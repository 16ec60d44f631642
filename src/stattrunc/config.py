"""Experiment configuration: schema, YAML loading, problem materialization.

A config names a model, the regeneration/center sets via ``z`` and
``K_max`` (K = {0..K_max}), a sweep of truncation sizes ``a_values``
(A = {0..a-1}), a reward, an h mode, and solver/oracle/output settings.
The CLI only sweeps contiguous prefixes; the library underneath accepts
arbitrary finite A.
"""

from __future__ import annotations

import os
import sys
import typing
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import yaml

from .chain import ChainModel, Reward, member_mask
from .models import (
    Gm1Params,
    LyapunovCertificate,
    gm1_certificate,
    gm1_chain,
    load_chain_from_file,
    random_walk_certificate,
    random_walk_chain,
)
from .solver import SolverOptions

MODELS = ("gm1", "random_walk")
REWARDS = ("identity", "half")
H_MODES = ("exact", "paper_literal")
FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class OracleSettings:
    """The Monte Carlo cross-check of ``--validate``.

    At least two cycles: the half-width of one is infinite, so every
    interval would pass.  The seed seeds numpy's PCG64, which takes
    non-negative integers only.
    """

    n_cycles: int = 20000
    seed: int = 12345

    def __post_init__(self):
        if self.n_cycles < 2:
            raise ValueError(f"n_cycles must be >= 2, got {self.n_cycles!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class OutputSettings:
    format: str = "csv"
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    z: int
    K_max: int
    a_values: tuple[int, ...]
    r_spec: str = "identity"
    h_mode: str = "exact"
    model_params: Mapping = field(default_factory=dict)
    solver: SolverOptions = SolverOptions()
    oracle: OracleSettings = OracleSettings()
    output: OutputSettings = OutputSettings()

    def __post_init__(self):
        if not (self.model in MODELS or self.model.startswith("file:")):
            raise ConfigError(f"model must be one of {MODELS} or 'file:<path>', "
                              f"got {self.model!r}")
        if not (self.r_spec in REWARDS or self.r_spec.startswith("file:")):
            raise ConfigError(f"r_spec must be one of {REWARDS} or 'file:<path>', "
                              f"got {self.r_spec!r}")
        if self.h_mode not in H_MODES:
            raise ConfigError(f"h_mode must be one of {H_MODES}, got {self.h_mode!r}")
        if self.h_mode == "paper_literal" and self.model not in MODELS:
            raise ConfigError("h_mode 'paper_literal' is only defined for the "
                              "built-in gm1/random_walk models")
        if not self.a_values:
            raise ConfigError("a_values must be non-empty")
        if any(b <= a for a, b in zip(self.a_values, self.a_values[1:])):
            raise ConfigError("a_values must be strictly increasing")
        if not 0 <= self.z <= self.K_max:
            raise ConfigError(f"need 0 <= z <= K_max, got z={self.z}, K_max={self.K_max}")
        if self.K_max >= min(self.a_values):
            raise ConfigError(f"need K_max < min(a_values), got K_max={self.K_max}, "
                              f"min a={min(self.a_values)}")
        if self.output.format not in FORMATS:
            raise ConfigError(f"output.format must be one of {FORMATS}")


_SCHEMA = {
    "model": str, "z": int, "K_max": int, "a_values": list,
    "r_spec": str, "h_mode": str, "model_params": dict,
    "solver": dict, "oracle": dict, "output": dict,
}
_REQUIRED = ("model", "z", "K_max", "a_values")


def _coerce(what: str, value, typ):
    """``value`` as ``typ`` (int, float or str); ``what`` names it in errors.

    PyYAML follows YAML 1.1, which reads ``1e-12`` (no decimal point) as a
    string, so numeric strings are parsed; an int field takes only
    integral values.  Booleans count as neither numbers nor strings.
    """
    got = value
    if typ in (int, float) and isinstance(value, str):
        for parse in (int, float):
            try:
                value = parse(value)
                break
            except ValueError:
                pass
    if not isinstance(value, bool):
        if typ is float and isinstance(value, (int, float)) \
                and not abs(value) > sys.float_info.max:
            return float(value)
        if typ is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, typ):
            return value
    kind = {int: "an integer", float: "a number", str: "a string"}[typ]
    raise ConfigError(f"{what} must be {kind}, got {got!r}")


def _section(raw: Mapping, name: str, cls, keys: str = "keys"):
    """``raw[name]`` (default empty) as a ``cls``; an unknown key is "unknown <keys>"."""
    sub = raw.get(name, {})
    if not isinstance(sub, Mapping):
        raise ConfigError(f"section '{name}' must be a mapping")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(sub) - allowed
    if unknown:
        raise ConfigError(f"unknown {keys} in '{name}': {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")
    hints = typing.get_type_hints(cls)
    fields = {}
    for key, value in sub.items():
        typ, optional = hints[key], False
        if typing.get_args(typ):        # ``T | None``
            typ, optional = typing.get_args(typ)[0], True
        fields[key] = (None if optional and value is None
                       else _coerce(f"bad '{name}' section: '{key}'", value, typ))
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad '{name}' section: {exc}") from exc


def parse_config(raw: Mapping, base_dir: str = ".") -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    Relative 'file:' paths in model and r_spec are resolved against
    ``base_dir`` (the config file's directory when loaded from disk).
    """
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {missing}")
    for key, typ in _SCHEMA.items():
        if key in raw and not isinstance(raw[key], typ) or \
                key in ("z", "K_max") and isinstance(raw.get(key), bool):
            raise ConfigError(f"key '{key}' must have type {typ.__name__}")

    def resolve(spec: str) -> str:
        if spec.startswith("file:"):
            p = spec[5:]
            if not os.path.isabs(p):
                p = os.path.normpath(os.path.join(base_dir, p))
            return "file:" + p
        return spec

    a_values = tuple(_coerce(f"a_values must be a list of integers: item {i}", a, int)
                     for i, a in enumerate(raw["a_values"]))
    return ExperimentConfig(
        model=resolve(raw["model"]),
        z=int(raw["z"]),
        K_max=int(raw["K_max"]),
        a_values=a_values,
        r_spec=resolve(raw.get("r_spec", "identity")),
        h_mode=raw.get("h_mode", "exact"),
        model_params=dict(raw.get("model_params", {})),
        solver=_section(raw, "solver", SolverOptions),
        oracle=_section(raw, "oracle", OracleSettings),
        output=_section(raw, "output", OutputSettings),
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML experiment file with line-aware error reporting."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error in {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def load_reward_table(path: str) -> Reward:
    """Reward table file: one 'state value' pair per line, default 0.

    '#' starts a comment.  Values must be finite and non-negative.  States
    are looked up in the sorted table (a range test and an offset when the
    table's states are a range).
    """
    table: dict[int, float] = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read reward table {path}: {exc}") from exc
    with fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'state value'")
            try:
                state, value = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if state < 0 or not 0.0 <= value < float("inf"):
                raise ConfigError(f"{path}:{lineno}: need state >= 0 and "
                                  "finite value >= 0")
            if state in table:
                raise ConfigError(f"{path}:{lineno}: duplicate state {state}")
            table[state] = value
    states = np.array(sorted(table), dtype=np.int64)
    values = np.array([table[x] for x in states.tolist()], dtype=np.float64)

    def batch_fn(xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape)
        hit = member_mask(xs, states)
        out[hit] = values[np.searchsorted(states, xs[hit])]
        return out

    return Reward(batch_fn)


def build_chain(config: ExperimentConfig) -> ChainModel:
    if config.model == "gm1":
        return gm1_chain(_section({"model_params": config.model_params}, "model_params",
                                  Gm1Params, "gm1 keys"))
    if config.model == "random_walk":
        if config.model_params:
            raise ConfigError("random_walk takes no model_params")
        return random_walk_chain()
    return load_chain_from_file(config.model[5:])


def build_reward(config: ExperimentConfig) -> Reward:
    """The config's reward."""
    if config.r_spec == "identity":
        return Reward(lambda xs: xs.astype(np.float64))
    if config.r_spec == "half":
        return Reward(lambda xs: xs.astype(np.float64) / 2.0)
    return load_reward_table(config.r_spec[5:])


def build_certificate(config: ExperimentConfig, chain: ChainModel, a: int,
                      K, r) -> LyapunovCertificate:
    """Drift certificate for the sweep's K and reward.

    ``a`` is unused: no model's certificate depends on the truncation
    size, so one certificate serves a whole sweep.  Built-in models carry
    analytic drift pairs; the exit bounds are computed exactly when the
    system for a truncation set is assembled.  File chains are finite, so
    a provably tight certificate is computed by first-step analysis: one
    sparse LU of I - P on the states outside K serves both g1 and g2
    (``oracle.tight_certificate``, imported lazily).  A file chain for
    which that solve fails (K unreachable from some state) is a
    ``ConfigError``.
    """
    if config.model == "gm1":
        return gm1_certificate()
    if config.model == "random_walk":
        return random_walk_certificate()
    from .oracle import OracleError, tight_certificate
    if chain.n_states is None:
        raise ConfigError("file model must declare its state count")
    try:
        return tight_certificate(chain, chain.n_states, K, r)
    except OracleError as exc:
        raise ConfigError(f"no drift certificate for {config.model[5:]}: {exc}") from exc
