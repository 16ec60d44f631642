"""Independent ground truth for desk-scale verification.

Three tools: the exact stationary distribution of a finite chain (dense),
a drift certificate that holds with equality on a finite chain (one
sparse LU of I - P restricted to the states outside K), and a seeded
Monte Carlo cycle simulator (one uniform per step, read in order from one
PCG64 stream) behind ``--validate``.  Nothing here shares code with the
bound pipeline: these are the cross-checks, so they build the whole
finite transition matrix from the chain's rows instead of using the
truncated-system machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import ChainModel, Reward, StateIndex, reward_values
from .models import LyapunovCertificate

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"

DEFAULT_CYCLE_CAP = 10**7

# uniforms drawn from the generator per refill; not part of the stream
# contract, since successive rng.random(n) calls continue one stream
_STREAM_BATCH = 4096
#: max-norm residual allowed of an exact stationary solve
STATIONARY_TOL = 1e-12


class OracleError(RuntimeError):
    """Exact solve failed or its result fails a consistency check."""


def _sparse_matrix(chain: ChainModel, n: int) -> sp.csr_matrix:
    """Row-stochastic matrix of the first n states; all mass must stay inside."""
    if n < 1:
        raise ValueError("n must be >= 1")
    indptr, targets, probs = chain.rows(np.arange(n))
    outside = np.flatnonzero(targets >= n)
    if outside.size:
        x = int(np.searchsorted(indptr, outside[0], side="right")) - 1
        raise OracleError(
            f"state {x} has transitions outside {{0..{n - 1}}}; "
            "the oracle needs a genuinely finite chain")
    return sp.csr_matrix((probs, targets, indptr), shape=(n, n))


def exact_stationary_finite(chain: ChainModel, n: int) -> np.ndarray:
    """Stationary distribution of a finite irreducible chain.

    Solves pi P = pi with the normalization sum(pi) = 1 replacing the last
    balance equation, then certifies the residual max-norm of the original
    balance system to ``STATIONARY_TOL``.  Reducible or otherwise
    degenerate inputs surface as ``OracleError``.
    """
    P = _sparse_matrix(chain, n).toarray()
    M = P.T - np.eye(n)
    M[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"stationary solve singular: {exc}") from exc
    # one refinement step keeps the residual at roundoff for mildly
    # ill-conditioned inputs
    pi = pi + np.linalg.solve(M, b - M @ pi)
    residual = float(np.abs(pi @ P - pi).max())
    if not np.isfinite(pi).all() or residual > STATIONARY_TOL:
        raise OracleError(f"stationary residual {residual:.3e} exceeds "
                          f"{STATIONARY_TOL:.1e}")
    if pi.min() <= 0.0:
        raise OracleError(
            "stationary solve produced a non-positive entry; "
            "chain is likely reducible")
    return pi


def tight_certificate(chain: ChainModel, n: int,
                      K: Iterable[StateIndex],
                      r: Callable[[StateIndex], float]) -> LyapunovCertificate:
    """Drift functions that hold with equality on a finite chain.

    g1(x) = E_x sum of r until hitting K, g2(x) = E_x (hitting time of K),
    both zero on K itself.  These satisfy the drift inequalities exactly,
    so they are valid certificates for any truncation problem on this
    chain with this K, with no analytic work.

    Both solve (I - P[idx, idx]) U = [r, 1] on the states idx outside K
    with one sparse LU, followed by one refinement step against the same
    factors.  Each column must then meet max|M u - f| <= 1e-9 (1 + max|u|);
    a singular factor, a non-finite solution or a larger residual raises
    ``OracleError``.
    """
    P = _sparse_matrix(chain, n)
    K_set = {int(k) for k in K}
    if not K_set or any(not 0 <= k < n for k in K_set):
        raise ValueError("K must be a non-empty subset of {0..n-1}")
    idx = np.setdiff1d(np.arange(n), list(K_set))
    g1 = np.zeros(n)
    g2 = np.zeros(n)
    if idx.size:
        F = np.column_stack([reward_values(r, idx), np.ones(idx.size)])
        M = (sp.identity(idx.size, format="csr") - P[idx][:, idx]).tocsc()
        try:
            lu = spla.splu(M)
        except RuntimeError as exc:
            raise OracleError(f"certificate solve singular: {exc}") from exc
        U = lu.solve(F)
        U = U + lu.solve(F - M @ U)
        if not np.isfinite(U).all():
            raise OracleError("certificate solve produced non-finite values")
        residual = np.abs(M @ U - F).max(axis=0)
        if np.any(residual > 1e-9 * (1.0 + np.abs(U).max(axis=0))):
            raise OracleError(f"certificate residual {float(residual.max()):.3e} too large")
        u1, u2 = U.T
        if u1.min() < -1e-9 or u2.min() < 1.0 - 1e-9:
            raise OracleError("certificate solve inconsistent; K may be "
                              "unreachable from part of the chain")
        g1[idx] = np.maximum(u1, 0.0)
        g2[idx] = np.maximum(u2, 0.0)
    return LyapunovCertificate(g1=Reward(g1.__getitem__), g2=Reward(g2.__getitem__))


@dataclass(frozen=True)
class CycleStats:
    """Summary of a batch of simulated regeneration cycles."""

    n_cycles: int
    mean_reward: float
    mean_length: float
    ratio: float
    half_width: float
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


# 99% two-sided normal quantile, for the ratio-estimator half-width
Z_99 = 2.5758293035489004


def simulate_cycles(chain: ChainModel, z: StateIndex,
                    r: Callable[[StateIndex], float],
                    n_cycles: int, seed: int, *,
                    max_steps: int = DEFAULT_CYCLE_CAP) -> CycleStats:
    """Simulate independent z-cycles and summarize their reward and length.

    Each cycle starts at X_0 = z and ends at the first return to z.  The
    ratio mean_reward/mean_length estimates the stationary expectation of
    r; its 99% half-width comes from the usual linearization of the ratio
    estimator.  Identical seeds reproduce identical results.  Each visited
    state's row and reward are read once, as one-state batches; a reward
    that is not finite and non-negative there raises the ``ValueError`` of
    ``reward_values``.

    Stream contract: step k of the whole run, counted across cycles,
    uses uniform k of ``numpy.random.default_rng(seed)``.  A step from x
    with uniform u moves to the first target of x's row whose cumulative
    probability exceeds u (the last target if none does: a row's sum may
    fall short of 1 by up to ``chain.ROW_SUM_TOL``).
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng = np.random.default_rng(seed)
    z = int(z)

    # per visited state: (targets, cumulative probs, last index, reward)
    visited: dict[int, tuple[list, list, int, float]] = {}

    def visit(x: int) -> tuple[list, list, int, float]:
        row = chain.row(x)
        entry = (row.targets.tolist(), np.cumsum(row.probs).tolist(),
                 row.targets.size - 1, float(reward_values(r, [x])[0]))
        visited[x] = entry
        return entry

    uniforms: list[float] = []
    pos = 0
    rewards = []
    lengths = []
    z_entry = visit(z)

    for c in range(n_cycles):
        entry = z_entry
        crew = z_entry[3]
        clen = 1
        while True:
            if pos == len(uniforms):
                uniforms = rng.random(_STREAM_BATCH).tolist()
                pos = 0
            targets, cum, last, _ = entry
            j = bisect_right(cum, uniforms[pos])
            pos += 1
            x = targets[j] if j <= last else targets[last]
            if x == z:
                break
            if clen >= max_steps:
                raise RuntimeError(
                    f"cycle {c} exceeded {max_steps} steps without returning "
                    f"to z={z}; chain may not be positive recurrent")
            entry = visited.get(x) or visit(x)
            crew += entry[3]
            clen += 1
        rewards.append(crew)
        lengths.append(clen)

    rewards = np.array(rewards, dtype=np.float64)
    lengths = np.array(lengths, dtype=np.float64)
    mean_reward = float(rewards.mean())
    mean_length = float(lengths.mean())
    ratio = mean_reward / mean_length
    if n_cycles > 1:
        d = rewards - ratio * lengths
        hw = Z_99 * float(d.std(ddof=1)) / (mean_length * np.sqrt(n_cycles))
    else:
        hw = float("inf")
    return CycleStats(n_cycles=n_cycles, mean_reward=mean_reward,
                      mean_length=mean_length, ratio=ratio, half_width=hw,
                      seed=int(seed))
