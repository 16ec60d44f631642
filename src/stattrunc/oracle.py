"""Independent ground truth for desk-scale verification.

Exact stationary solves and first-step regenerative expectations on finite
chains, a seeded Monte Carlo cycle simulator with excursion statistics,
and helpers for building provably tight drift certificates on finite
chains.  Nothing here shares code with the bound pipeline: these are the
cross-checks, so they build the whole finite transition matrix from the
chain's rows instead of using the truncated-system machinery.  First-step
systems are solved by one sparse LU of I - P restricted to the states
outside the stopping set; only ``exact_stationary_finite`` goes dense.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import ChainModel, Reward, StateIndex, reward_values
from .models import LyapunovCertificate

RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"

DEFAULT_CYCLE_CAP = 10**7

#: uniforms per cycle block of the simulator's stream (see simulate_cycles)
UNIFORM_BLOCK = 256
#: leading uniforms of each block turned into Python floats up front; the
#: rest only for a cycle that gets that far (most cycles are short)
UNIFORM_HEAD = 16
#: blocks drawn from the generator per call
UNIFORM_BATCH = 64
#: excursion rounds per cycle counted in ``CycleStats.excursion_survival``
MAX_TRACKED = 64
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


def _first_step_solve(P: sp.csr_matrix, idx: np.ndarray, F: np.ndarray,
                      what: str) -> np.ndarray:
    """Solve (I - P[idx, idx]) U = F, one column of U per column of F.

    One sparse LU serves every column, followed by one refinement step
    against the same factors.  Each column must then meet
    max|M u - f| <= 1e-9 (1 + max|u|); a singular factor, a non-finite
    solution or a larger residual raises ``OracleError``.
    """
    M = (sp.identity(idx.size, format="csr") - P[idx][:, idx]).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:
        raise OracleError(f"{what} solve singular: {exc}") from exc
    U = lu.solve(F)
    U = U + lu.solve(F - M @ U)
    if not np.isfinite(U).all():
        raise OracleError(f"{what} solve produced non-finite values")
    residual = np.abs(M @ U - F).max(axis=0)
    scale = 1.0 + np.abs(U).max(axis=0)
    if np.any(residual > 1e-9 * scale):
        raise OracleError(f"{what} residual {float(residual.max()):.3e} too large")
    return U


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


def regenerative_expectation_exact(chain: ChainModel, n: int, z: StateIndex,
                                   f: Callable[[StateIndex], float]) -> float:
    """E_z of the f-sum over one z-cycle, by first-step analysis.

    Solves u(x) = f(x) + sum_{y != z} P(x, y) u(y) on S \\ {z} and returns
    f(z) + sum_y P(z, y) u(y) with u(z) = 0.  With f = 1 this is the mean
    return time E_z tau(z).  f must be finite and non-negative.
    """
    P = _sparse_matrix(chain, n)
    if not 0 <= z < n:
        raise ValueError(f"z={z} out of range")
    idx = np.setdiff1d(np.arange(n), [z])
    fvals = reward_values(f, np.arange(n), "f")
    u = np.zeros(n)
    if idx.size:
        u[idx] = _first_step_solve(P, idx, fvals[idx], "first-step")
    return float(fvals[z]) + (P[z] @ u).item()


def tight_certificate(chain: ChainModel, n: int,
                      K: Iterable[StateIndex],
                      r: Callable[[StateIndex], float]) -> LyapunovCertificate:
    """Drift functions that hold with equality on a finite chain.

    g1(x) = E_x sum of r until hitting K, g2(x) = E_x (hitting time of K),
    both zero on K itself.  These satisfy the drift inequalities exactly,
    so they are valid certificates for any truncation problem on this
    chain with this K, with no analytic work.  Both come from one sparse
    LU of I - P restricted to the states outside K.
    """
    P = _sparse_matrix(chain, n)
    K_set = {int(k) for k in K}
    if not K_set or any(not 0 <= k < n for k in K_set):
        raise ValueError("K must be a non-empty subset of {0..n-1}")
    idx = np.setdiff1d(np.arange(n), list(K_set))
    g1 = np.zeros(n)
    g2 = np.zeros(n)
    if idx.size:
        rvec = reward_values(r, idx)
        u1, u2 = _first_step_solve(P, idx, np.column_stack([rvec, np.ones(idx.size)]),
                                   "certificate").T
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
    excursion_survival: tuple[float, ...]
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


# 99% two-sided normal quantile, for the ratio-estimator half-width
Z_99 = 2.5758293035489004


def simulate_cycles(chain: ChainModel, z: StateIndex,
                    K: Iterable[StateIndex], A: Iterable[StateIndex],
                    r: Callable[[StateIndex], float],
                    n_cycles: int, seed: int, *,
                    max_steps: int = DEFAULT_CYCLE_CAP) -> CycleStats:
    """Simulate independent z-cycles and summarize reward/length/excursions.

    Each cycle starts at X_0 = z and ends at the first return to z.  The
    ratio mean_reward/mean_length estimates the stationary expectation of
    r; its 99% half-width comes from the usual linearization of the ratio
    estimator.  excursion_survival[i-1] estimates P_z(tau(z) > Gamma_i),
    where Gamma_i is the first K-entry after the i-th exit from A: the
    chance the cycle is still running when the i-th outside excursion has
    come back.  A and K shape only excursion_survival: the ratio and its
    half-width are the same for every A.  Identical seeds reproduce
    identical results.  Each visited state's row and reward are read
    once, as one-state batches; a reward that is not finite and
    non-negative there raises the ``ValueError`` of ``reward_values``.

    Stream contract: one PCG64 stream, seeded with ``seed``, is read as
    consecutive blocks of ``UNIFORM_BLOCK`` uniforms.  Cycle c starts at
    the next unused block and spends one uniform per step; a cycle that
    runs past the end of its block continues into the following block,
    and the unused tail of a cycle's last block is discarded.  A step
    from x with uniform u moves to the first target of x's row whose
    cumulative probability exceeds u (the last target if none does: a
    row's sum may fall short of 1 by up to ``chain.ROW_SUM_TOL``).
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng = np.random.default_rng(seed)
    z = int(z)
    K_set = {int(k) for k in K}
    A_set = {int(a) for a in A}
    if z not in K_set or not K_set <= A_set:
        raise ValueError("need z in K and K a subset of A")

    # per visited state: (targets, cumulative probs, last index, reward)
    visited: dict[int, tuple[list, list, int, float]] = {}

    def visit(x: int) -> tuple[list, list, int, float]:
        row = chain.row(x)
        entry = (row.targets.tolist(), np.cumsum(row.probs).tolist(),
                 row.targets.size - 1, float(reward_values(r, [x])[0]))
        visited[x] = entry
        return entry

    batch = heads = None
    next_block = UNIFORM_BATCH

    def take_block() -> int:
        # index into ``batch`` of the next unused block; ``heads`` holds the
        # first UNIFORM_HEAD values of each block as Python floats
        nonlocal batch, heads, next_block
        if next_block == UNIFORM_BATCH:
            batch = rng.random((UNIFORM_BATCH, UNIFORM_BLOCK))
            heads = batch[:, :UNIFORM_HEAD].tolist()
            next_block = 0
        next_block += 1
        return next_block - 1

    rewards = []
    lengths = []
    survival_counts = np.zeros(MAX_TRACKED, dtype=np.int64)
    z_entry = visit(z)

    for c in range(n_cycles):
        b = take_block()
        uniforms = heads[b]
        end = UNIFORM_HEAD
        pos = 0
        entry = z_entry
        crew = z_entry[3]
        clen = 1
        rounds = 0
        escaped = False
        while True:
            if pos == end:
                if end == UNIFORM_HEAD:
                    uniforms = batch[b].tolist()
                    end = UNIFORM_BLOCK
                else:
                    b = take_block()
                    uniforms = heads[b]
                    end = UNIFORM_HEAD
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
            if not escaped:
                if x not in A_set:
                    escaped = True
            elif x in K_set:
                rounds += 1
                escaped = False
        rewards.append(crew)
        lengths.append(clen)
        if rounds:
            survival_counts[:min(rounds, MAX_TRACKED)] += 1

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
    tracked = int(np.max(np.nonzero(survival_counts)[0]) + 1) \
        if survival_counts.any() else 0
    survival = tuple(float(survival_counts[i]) / n_cycles for i in range(tracked))
    return CycleStats(n_cycles=n_cycles, mean_reward=mean_reward,
                      mean_length=mean_length, ratio=ratio, half_width=hw,
                      excursion_survival=survival, seed=int(seed))


@dataclass
class ExcursionReport:
    """Exact excursion expectations versus a claimed bounding function."""

    states: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)
    slack: list[float] = field(default_factory=list)
    drift_failures: list[int] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def excursion_bound_check(chain: ChainModel, n: int,
                          K: Iterable[StateIndex], A: Iterable[StateIndex],
                          g: Callable[[StateIndex], float],
                          f: Callable[[StateIndex], float]) -> ExcursionReport:
    """Check g(x) >= E_x sum_{j<T} f(X_j) exactly on a finite chain.

    T is the hitting time of K: that is the stopping time for which the
    drift inequality sum_{y not in K} P(x, y) g(y) <= g(x) - f(x) makes g
    a valid upper bound.  Reports per-state slack for x in A minus K,
    plus the states where the drift inequality itself fails (no guarantee
    applies there, but values and slack are still reported).  g and f
    must be finite and non-negative.
    """
    P = _sparse_matrix(chain, n)
    A_set = {int(a) for a in A}
    K_set = {int(k) for k in K}
    idx = np.setdiff1d(np.arange(n), list(K_set))
    u = np.zeros(n)
    g_all = reward_values(g, np.arange(n), "g")
    report = ExcursionReport()
    if idx.size:
        fvec = reward_values(f, idx, "f")
        u[idx] = _first_step_solve(P, idx, fvec, "excursion")
        g_idx = g_all[idx]
        g_masked = np.zeros(n)
        g_masked[idx] = g_idx
        failed = (P @ g_masked)[idx] > g_idx - fvec + 1e-9 * (1.0 + np.abs(g_idx))
        report.drift_failures = idx[failed].tolist()
    for x in sorted(A_set - K_set):
        if not 0 <= x < n:
            continue
        val = float(u[x])
        bound = float(g_all[x])
        report.states.append(x)
        report.values.append(val)
        report.bounds.append(bound)
        report.slack.append(bound - val)
        if val > bound + 1e-9 * (1.0 + abs(bound)):
            report.violations.append(x)
    return report
