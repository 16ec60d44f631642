"""Config-driven experiment runner.

``stattrunc run <config> [--out PATH] [--format csv|json] [--validate]``
sweeps the configured truncation sizes, runs the bound pipeline for each,
and emits one row per sweep point.  Numeric columns are printed with 12
significant digits; wall time is informational only.

Exit codes: 0 success, 1 output could not be written (I/O failure),
2 config error, 3 every sweep point failed numerically (solver failure
or degenerate delta).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from typing import Iterable

import numpy as np

from .bounds import DegenerateDeltaError, PipelineError, run_pipeline
from .chain import TruncationProblem
from .config import (
    ConfigError,
    ExperimentConfig,
    build_certificate,
    build_chain,
    build_reward,
    load_config,
)
from .models import ChainFileError
from .oracle import simulate_cycles

COLUMNS = (
    "a", "kappa_lower_r", "kappa_lower_e", "kappa_upper_r", "kappa_upper_e",
    "delta", "beta", "Delta1", "Delta2", "lower", "upper", "pi_tilde_r",
    "error_bound", "tv_bound", "wall_time_seconds", "status",
)
ORACLE_COLUMNS = ("oracle_ratio", "oracle_half_width", "oracle_pass")

# oracle cross-checks are desk-scale only
VALIDATE_MAX_A = 2000


def run_experiment(config: ExperimentConfig, *, validate: bool = False,
                   log=None) -> list[dict]:
    """One result row per a-value, in a-value order.

    In exact h mode a sweep value a means A = {0..a-1}.  In paper_literal
    mode it means A = {0..a}, matching the published experiments whose
    exit bounds sit at the boundary state x = a.  Exit bounds are always
    computed exactly, and on A = {0..a} they equal the published
    magnitudes.

    Rows that hit a degenerate delta or a solver failure carry a status
    marker and NaN numerics instead of aborting the sweep.  With
    ``validate``, sweep points with a <= 2000 get a Monte Carlo
    cross-check whose 3-half-width band must overlap the certified
    interval of that row.

    Neither the drift certificate nor the Monte Carlo estimate depends on
    a, so each is computed once per sweep: the certificate before the
    first point, the simulation (seed = configured seed) at the first row
    that is cross-checked, and none if no row is.  ``wall_time_seconds``
    times the bound computation of its point and excludes both.
    """
    if log is None:
        log = sys.stderr  # resolved per call so redirection works
    literal = config.h_mode == "paper_literal"
    chain = build_chain(config)
    reward = build_reward(config)
    max_size = max(config.a_values) + (1 if literal else 0)
    if chain.n_states is not None and max_size > chain.n_states:
        raise ConfigError(
            f"a={max(config.a_values)} exceeds the chain's {chain.n_states} states")
    K = np.arange(config.K_max + 1)
    cert = build_certificate(config, chain, max(config.a_values), K, reward)

    stats = None
    rows = []
    for a in config.a_values:
        row = {c: math.nan for c in COLUMNS}
        row["a"] = int(a)
        row["status"] = "ok"
        A_states = np.arange(a + 1 if literal else a)
        start = time.perf_counter()
        try:
            problem = TruncationProblem(chain=chain, A=A_states, z=config.z,
                                        K=K, r=reward)
            rep = run_pipeline(problem, cert, config.solver)
        except DegenerateDeltaError as exc:
            row["status"] = "degenerate_delta"
            print(f"stattrunc: a={a}: {exc}", file=log)
        except PipelineError as exc:
            row["status"] = "numerical_error"
            print(f"stattrunc: a={a}: {exc}", file=log)
        else:
            row.update(
                kappa_lower_r=rep.kappa_lower_r, kappa_lower_e=rep.kappa_lower_e,
                kappa_upper_r=rep.kappa_upper_r, kappa_upper_e=rep.kappa_upper_e,
                delta=rep.delta, beta=rep.beta,
                Delta1=rep.Delta1, Delta2=rep.Delta2,
                lower=rep.interval[0], upper=rep.interval[1],
                pi_tilde_r=rep.pi_tilde_r,
                error_bound=rep.error_bound, tv_bound=rep.tv_bound,
            )
        row["wall_time_seconds"] = time.perf_counter() - start

        if validate:
            for c in ORACLE_COLUMNS:
                row[c] = math.nan
            if row["status"] == "ok" and a <= VALIDATE_MAX_A:
                if stats is None:
                    # A only shapes excursion_survival, which no row reads
                    stats = simulate_cycles(chain, config.z, K, A_states, reward,
                                            config.oracle.n_cycles,
                                            config.oracle.seed)
                band = 3.0 * stats.half_width
                row["oracle_ratio"] = stats.ratio
                row["oracle_half_width"] = stats.half_width
                row["oracle_pass"] = bool(
                    stats.ratio - band <= row["upper"]
                    and stats.ratio + band >= row["lower"])
        rows.append(row)

    _warn_if_not_monotone(rows, log)
    return rows


def _warn_if_not_monotone(rows: list[dict], log) -> None:
    ok = [r for r in rows if r["status"] == "ok"]
    for prev, cur in zip(ok, ok[1:]):
        if cur["lower"] < prev["lower"]:
            print(f"stattrunc: warning: lower bound decreased from "
                  f"a={prev['a']} to a={cur['a']}", file=log)
        if (cur["upper"] - cur["lower"]) > (prev["upper"] - prev["lower"]):
            print(f"stattrunc: warning: interval width grew from "
                  f"a={prev['a']} to a={cur['a']}", file=log)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _coerce(value):
    # 12 significant digits in the serialized artifact, matching CSV.
    # Non-finite floats become null: bare NaN tokens are not valid JSON.
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else None
    return value


def emit(table: list[dict], format: str = "csv", path: str | None = None) -> None:
    """Write the result table as CSV or JSON (12 significant digits).

    ``path=None`` writes to stdout.  All rows must share one key set; an
    empty table is an error.
    """
    if not table:
        raise ValueError("refusing to emit an empty table")
    keys = list(table[0].keys())
    if any(list(r.keys()) != keys for r in table):
        raise ValueError("all rows must have identical columns")

    def write(fh):
        if format == "csv":
            writer = csv.writer(fh)
            writer.writerow(keys)
            for r in table:
                writer.writerow([_fmt(r[k]) for k in keys])
        elif format == "json":
            json.dump([{k: _coerce(r[k]) for k in keys} for r in table],
                      fh, indent=2)
            fh.write("\n")
        else:
            raise ValueError(f"unknown format {format!r}")

    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stattrunc",
        description="Certified stationary-expectation bounds for truncated "
                    "Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the sweep described by a config file")
    run_p.add_argument("config", help="YAML experiment file")
    run_p.add_argument("--out", help="output path (default: config's output.path, "
                       "else stdout)")
    run_p.add_argument("--format", choices=("csv", "json"),
                       help="override the configured output format")
    run_p.add_argument("--validate", action="store_true",
                       help="Monte Carlo cross-check on sweep points with "
                            f"a <= {VALIDATE_MAX_A}: one simulation per sweep, "
                            "seeded with oracle.seed (it does not depend on a)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    try:
        config = load_config(args.config)
        table = run_experiment(config, validate=args.validate)
    except (ConfigError, ChainFileError) as exc:
        print(f"stattrunc: config error: {exc}", file=sys.stderr)
        return 2

    out_path = args.out if args.out is not None else config.output.path
    out_format = args.format if args.format is not None else config.output.format
    try:
        emit(table, out_format, out_path)
    except OSError as exc:
        print(f"stattrunc: cannot write output: {exc}", file=sys.stderr)
        return 1

    if all(r["status"] != "ok" for r in table):
        print("stattrunc: every sweep point failed numerically", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
