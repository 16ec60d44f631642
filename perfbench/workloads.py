"""Workload definitions: the configs each workload sweeps, and its inputs.

Every workload is a closed loop with one caller: a full `run_experiment`
sweep in exact h-mode with A = {0..a-1}, then one direct point call at the
workload's largest a, repeated until the run's time is spent.  The gm1
and walk models are fixed by the paper, so the seed does not change them;
for `finite-validate` the seed drives the generated chain and the Monte
Carlo seed of the oracle cross-check.  The point is always at the largest a.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from decimal import localcontext
from typing import Callable

import numpy as np

from references import (PRECISION, Reference, gm1_reference, gth_reference,
                        gth_stationary, walk_reference)

GM1_C = 2.01
FINITE_STATES = 1500
#: Monte Carlo budget per validated sweep point, in chain steps.  Cycles are
#: set to steps * pi(0) (one cycle averages 1/pi(0) steps), so simulation
#: cost does not swing with the seed's mean cycle length (5.5 to 8.3).
SIM_STEPS = 130_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, work_dir) -> raw config mapping for `config.parse_config`
    make_config: Callable[[int, str], dict]
    #: (seed) -> the reference the stationary expectation is checked against
    make_reference: Callable[[int], Reference]
    validate: bool = False


def _gm1_config(seed: int, work_dir: str) -> dict:
    return {"model": "gm1", "model_params": {"c": GM1_C}, "z": 0, "K_max": 200,
            "a_values": [1000, 2500, 5000, 10000], "r_spec": "identity",
            "h_mode": "exact"}


def _walk_config(seed: int, work_dir: str) -> dict:
    return {"model": "random_walk", "z": 0, "K_max": 300,
            "a_values": [1000, 10000, 100000], "r_spec": "half",
            "h_mode": "exact"}


def finite_chain_rows(seed: int, n: int = FINITE_STATES):
    """Sparse chain on {0..n-1}: jumps of +-1..3, downward drift, self-loop at 0.

    Each state draws how many jump sizes it uses (1, 2 or 3), their
    weights, and a down probability in [0.52, 0.62]; up and down use the
    same sizes, so the mean jump is negative everywhere.  Down jumps below
    0 land on 0 and up jumps past n-1 are dropped before normalising, so
    every row keeps a +-1 neighbour and the chain is irreducible.  Returns
    a list of (targets, probs) with strictly increasing targets.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for x in range(n):
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k))
        p_down = float(rng.uniform(0.52, 0.62))
        mass: dict[int, float] = {}
        for d, w in zip(range(1, k + 1), weights):
            down = max(x - d, 0)
            mass[down] = mass.get(down, 0.0) + p_down * float(w)
            if x + d < n:
                mass[x + d] = mass.get(x + d, 0.0) + (1.0 - p_down) * float(w)
        targets = sorted(mass)
        probs = np.array([mass[t] for t in targets])
        probs /= probs.sum()
        rows.append((targets, [float(p) for p in probs]))
    return rows


def write_chain_file(rows, path: str) -> None:
    """Write rows in the `states N` / `src dst prob` format, probs round-trip exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"states {len(rows)}\n")
        for x, (targets, probs) in enumerate(rows):
            for t, p in zip(targets, probs):
                fh.write(f"{x} {t} {p!r}\n")


def _finite_config(seed: int, work_dir: str) -> dict:
    rows = finite_chain_rows(seed)
    path = os.path.join(work_dir, f"finite-chain-{seed}.txt")
    write_chain_file(rows, path)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        pi0 = float(gth_stationary(rows)[0])
    return {"model": "file:" + path, "z": 0, "K_max": 20,
            "a_values": [200, 400, 800, FINITE_STATES], "r_spec": "identity",
            "h_mode": "exact",
            "oracle": {"seed": seed, "n_cycles": max(1, round(SIM_STEPS * pi0))}}


def _finite_reference(seed: int) -> Reference:
    return gth_reference(finite_chain_rows(seed), reward=float)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "gm1-sweep",
            "G/M/1 rows of ~196 nonzeros and a banded I-B with ~1.96M LU fill: "
            "factorization and assembly dominate, and each sweep point refactors",
            _gm1_config, lambda seed: gm1_reference(GM1_C)),
        Workload(
            "walk-deep",
            "tridiagonal walk rows up to a=10^5: the per-row Python assembly "
            "loop is ~95% of a point and factorization ~2%",
            _walk_config, lambda seed: walk_reference()),
        Workload(
            "finite-validate",
            "seeded 1500-state file chain with --validate: Monte Carlo and dense "
            "certificates dominate, setup parses a file; solver and bounds ~3%",
            _finite_config, _finite_reference, validate=True),
    )
}
