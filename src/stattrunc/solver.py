"""Assembly and solution of the truncated substochastic linear systems.

The truncation set A with regeneration state z induces A' = A - {z} and
the matrix B restricted to A', which is strictly substochastic whenever
the chain is irreducible, so I - B is non-singular and its inverse is the
Neumann series sum_j B^j.  Everything downstream reduces to one transpose
solve against the entry row nu(x) = P(z, x) plus a handful of column
solves, all sharing a single factorization.

Two solution methods are provided: direct sparse LU (with iterative
refinement until the max-norm residual certificate is met) and the
monotone fixed-point iteration x <- Bx + b started at zero, whose iterates
increase toward the solution from below.  The correctness contract is the
reported residual, not the method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import ROW_CHUNK, TruncationProblem, is_contiguous, member_mask
from .models import LyapunovCertificate

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10 ** 6
#: stored-nonzero budget above which solves fall back to the matrix-free iteration
DEFAULT_MEMORY_BUDGET = 10 ** 8

ROW_IDENTITY_TOL = 1e-10


class AssemblyError(ValueError):
    """Raised when a truncated system cannot be assembled consistently."""


class SolverError(RuntimeError):
    """Raised when a linear solve cannot certify its residual."""


class SolverConvergenceError(SolverError):
    """Iteration cap exceeded; signals a degenerate or mis-assembled system."""


METHODS = ("auto", "direct", "fixed_point")


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by all linear solves in one pipeline run.

    Also the ``solver`` section of an experiment config, so a bad value is
    rejected when the config is read, not at the first solve.
    """

    tol: float = DEFAULT_TOL
    method: str = "auto"
    max_iter: int = DEFAULT_MAX_ITER
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (expected one of {METHODS})")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not self.memory_budget >= 0:
            raise ValueError(f"memory_budget must be >= 0, got {self.memory_budget!r}")

    def kwargs(self) -> dict:
        return dict(method=self.method, max_iter=self.max_iter,
                    memory_budget=self.memory_budget)


@dataclass
class TruncatedSystem:
    """Vectors and matrices of the truncated system over A' = A - {z}.

    For each x in A', row sums satisfy B(x,.) + p(x) + q(x) = 1 within
    ``ROW_IDENTITY_TOL``.  The scalars attached to z (its self-loop mass,
    reward and exit bounds) are carried alongside because the cycle-based
    formulas need them.
    """

    Aprime: np.ndarray           # ordered states of A'
    B: sp.csr_matrix             # substochastic restriction to A'
    nu: np.ndarray               # entry row P(z, x), x in A'
    p: np.ndarray                # exit column P(x, z)
    q: np.ndarray                # one-step escape mass into A^c
    r_vec: np.ndarray            # reward restricted to A'
    h1: np.ndarray               # reward overshoot bound on A'
    h2: np.ndarray               # length overshoot bound on A'
    A_full: np.ndarray           # ordered states of A (z included)
    z: int
    P_zz: float
    r_z: float
    h1_z: float
    h2_z: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return int(self.Aprime.size)

    def positions(self, states: Iterable[int]) -> np.ndarray:
        """Positions in A' of the given states (which must all lie in A')."""
        arr = np.asarray(sorted(set(int(s) for s in states)), dtype=np.int64)
        if arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not member_mask(arr, self.Aprime).all():
            missing = arr[~member_mask(arr, self.Aprime)]
            raise KeyError(f"states not in A': {missing.tolist()}")
        return np.searchsorted(self.Aprime, arr)


@dataclass
class SolveResult:
    """Solution of (I - B) x = b or the transpose system, with certificate."""

    x: np.ndarray
    residual_norm: float
    iterations: int
    method: str = "direct"
    # True when x was produced by the monotone iteration from zero, in which
    # case it underestimates the true solution componentwise even if stopped
    # early (up to roundoff).
    monotone_lower_bound: bool = False


def _g_values(certificate: LyapunovCertificate,
              xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``certificate.values(xs)``, a bad value raising ``AssemblyError``."""
    try:
        return certificate.values(xs)
    except ValueError as exc:
        raise AssemblyError(str(exc)) from exc


def expected_g(certificate: LyapunovCertificate, targets: np.ndarray,
               probs: np.ndarray) -> tuple[float, float]:
    """(sum_y P(x, y) g1(y), sum_y P(x, y) g2(y)) over the given row entries.

    The sums run left to right in the order given, so equal inputs give
    bit-equal sums.  A negative or non-finite g value raises
    ``AssemblyError``: the drift functions of a certificate are finite and
    non-negative by definition.
    """
    g1, g2 = _g_values(certificate, targets)
    acc1 = acc2 = 0.0
    for pr, g1y, g2y in zip(probs.tolist(), g1.tolist(), g2.tolist()):
        acc1 += pr * g1y
        acc2 += pr * g2y
    return acc1, acc2


def expected_g_rows(certificate: LyapunovCertificate, counts: np.ndarray,
                    targets: np.ndarray, probs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row mass and ``expected_g`` of consecutive runs of row entries.

    Row i owns the next ``counts[i]`` entries of ``targets``/``probs``.
    Returns ``(mass, s1, s2)``: each row's probability sum (numpy's sum of
    its entries) and its ``expected_g`` pair, bit for bit.  One ``g`` call
    covers every entry; the sums run a column at a time over a
    longest-row x rows layout padded with zeros, which keeps each row's
    left-to-right order.
    """
    n = counts.size
    mass, s1, s2 = np.zeros(n), np.zeros(n), np.zeros(n)
    if targets.size == 0:
        return mass, s1, s2
    g1, g2 = _g_values(certificate, targets)
    ends = np.cumsum(counts)
    row = np.repeat(np.arange(n), counts)
    col = np.arange(targets.size) - (ends - counts)[row]
    P, G1, G2 = (np.zeros((int(counts.max()), n)) for _ in range(3))
    P[col, row], G1[col, row], G2[col, row] = probs, g1, g2
    for j in range(P.shape[0]):
        mass += P[j]
        s1 += P[j] * G1[j]
        s2 += P[j] * G2[j]
    # any order sums two terms alike; a longer row takes numpy's own
    # (pairwise) sum, which is how a row's mass is defined
    for i in np.flatnonzero(counts > 2).tolist():
        mass[i] = probs[ends[i] - counts[i]:ends[i]].sum()
    return mass, s1, s2


def assemble_truncated_system(problem: TruncationProblem,
                              certificate: LyapunovCertificate) -> TruncatedSystem:
    """Build the truncated system for a problem and a Lyapunov certificate.

    The overshoot bounds h_i are computed exactly from the finite-support
    rows as h_i(x) = sum_{y not in A} P(x, y) g_i(y).  Rows of A' are read
    through ``chain.rows`` in chunks of ``ROW_CHUNK`` states; rewards and
    drift functions are evaluated on whole arrays of states.
    """
    chain, A, z = problem.chain, problem.A, problem.z
    if not member_mask(np.array([z]), A)[0]:
        raise AssemblyError(f"regeneration state z={z} not in truncation set")
    Aprime = A[A != z]
    m = Aprime.size

    nu = np.zeros(m)
    p = np.zeros(m)
    q = np.zeros(m)
    h1 = np.zeros(m)
    h2 = np.zeros(m)

    # row of the regeneration state
    zrow = chain.row(z)
    in_A = member_mask(zrow.targets, A)
    P_zz = 0.0
    at_z = zrow.targets == z
    if at_z.any():
        P_zz = float(zrow.probs[at_z][0])
    in_Aprime = in_A & ~at_z
    nu[np.searchsorted(Aprime, zrow.targets[in_Aprime])] = zrow.probs[in_Aprime]
    h1_z, h2_z = expected_g(certificate, zrow.targets[~in_A], zrow.probs[~in_A])
    zrow_total = zrow.total()
    if abs(zrow_total - 1.0) > ROW_IDENTITY_TOL:
        raise AssemblyError(f"row of z={z} sums to {zrow_total:.12g}")
    r_vec = problem.rewards(Aprime)

    # rows of A' in chunks of ROW_CHUNK states, as CSR pieces of B; column
    # indices already in the dtype the CSR matrix keeps, so that joining
    # the pieces makes no wider copy.  When A' is a range, a state's
    # column is its offset from the first state
    index_dtype = np.int32 if m < np.iinfo(np.int32).max else np.int64
    first = int(Aprime[0]) if is_contiguous(Aprime) else None
    data = [np.zeros(0)]
    indices = [np.zeros(0, dtype=index_dtype)]
    B_indptr = np.zeros(m + 1, dtype=np.int64)
    for start in range(0, m, ROW_CHUNK):
        xs = Aprime[start:start + ROW_CHUNK]
        n = xs.size
        indptr, targets, probs = chain.rows(xs)
        counts = np.diff(indptr)
        row = np.repeat(np.arange(n), counts)
        totals = np.zeros(n)
        nonempty = counts > 0
        totals[nonempty] = np.add.reduceat(probs, indptr[:-1][nonempty])
        dev = np.abs(totals - 1.0)
        bad = np.nonzero(dev > ROW_IDENTITY_TOL)[0]
        if bad.size:
            raise AssemblyError(f"row of state {xs[bad[0]]} sums off by {dev[bad[0]]:.3e}")
        in_A = member_mask(targets, A)
        at_z = targets == z
        inside = in_A & ~at_z
        outside = ~in_A
        p[start:start + n] = np.bincount(row[at_z], weights=probs[at_z], minlength=n)
        if outside.any():
            # q and h over the rows that have escaping entries (one row
            # per prefix truncation on the built-in chains)
            n_out = np.bincount(row[outside], minlength=n)
            esc = np.flatnonzero(n_out)
            q[start + esc], h1[start + esc], h2[start + esc] = expected_g_rows(
                certificate, n_out[esc], targets[outside], probs[outside])
        data.append(probs[inside])
        cols = (targets[inside] - first if first is not None
                else np.searchsorted(Aprime, targets[inside]))
        indices.append(cols.astype(index_dtype))
        B_indptr[start + 1:start + n + 1] = np.bincount(row[inside], minlength=n)

    if np.any(h1 < 0) or np.any(h2 < 0) or h1_z < 0 or h2_z < 0:
        raise AssemblyError("overshoot bounds h must be non-negative")

    np.cumsum(B_indptr, out=B_indptr)
    B = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), B_indptr),
                      shape=(m, m))

    system = TruncatedSystem(
        Aprime=Aprime, B=B, nu=nu, p=p, q=q, r_vec=r_vec,
        h1=h1, h2=h2, A_full=A, z=int(z), P_zz=P_zz,
        r_z=problem.reward(z), h1_z=h1_z, h2_z=h2_z,
    )
    if m:
        row_dev = np.abs(np.asarray(B.sum(axis=1)).ravel() + p + q - 1.0).max()
        if row_dev > ROW_IDENTITY_TOL:
            raise AssemblyError(f"B + p + q row sums deviate from 1 by {row_dev:.3e}")
    return system


def _lu(system: TruncatedSystem):
    if "lu" not in system._cache:
        m = system.size
        I_minus_B = (sp.identity(m, format="csr") - system.B).tocsc()
        system._cache["lu"] = spla.splu(I_minus_B)
    return system._cache["lu"]


def _residual(system: TruncatedSystem, x: np.ndarray, b: np.ndarray,
              transpose: bool) -> np.ndarray:
    Bx = system.B.T @ x if transpose else system.B @ x
    return b - (x - Bx)


def _scale(b: np.ndarray, x: np.ndarray) -> float:
    """Residual scale: tolerances are relative to the system's magnitude.

    max(1, |b|, |x|), so for O(1) right-hand sides the certificate is the
    plain absolute max-norm bound; for large-magnitude systems (e.g. h
    vectors growing like a^2) it is the attainable relative one, keeping
    every displayed digit certified.
    """
    bmax = float(np.abs(b).max(initial=0.0))
    xmax = float(np.abs(x).max(initial=0.0))
    return max(1.0, bmax, xmax)


def _finalize(system, x, b, transpose, tol, iterations, method, monotone):
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite intermediate in linear solve")
    lo = x.min() if x.size else 0.0
    if lo < 0.0:
        scale = max(1.0, float(np.abs(x).max()))
        if lo < -1e-8 * scale:
            raise SolverError(f"solution significantly negative (min {lo:.3e})")
        x = np.maximum(x, 0.0)
    res = float(np.abs(_residual(system, x, b, transpose)).max()) if x.size else 0.0
    cap = tol * _scale(b, x)
    if res > cap:
        raise SolverError(f"residual {res:.3e} exceeds tolerance {cap:.3e}")
    return SolveResult(x=x, residual_norm=res, iterations=iterations,
                       method=method, monotone_lower_bound=monotone)


def _solve_direct(system, b, tol, transpose):
    lu = _lu(system)
    trans = "T" if transpose else "N"
    x = lu.solve(b, trans=trans)
    iterations = 0
    # iterative refinement toward the roundoff floor, not just the requested
    # certificate: the extra triangular solves are cheap next to the
    # factorization and the downstream bound arithmetic benefits from
    # residuals at the eps level
    floor = 4.0 * np.finfo(np.float64).eps
    best = np.inf
    for _ in range(8):
        res = float(np.abs(_residual(system, x, b, transpose)).max(initial=0.0))
        if res <= floor * _scale(b, x) or res >= 0.9 * best:
            break
        best = res
        x = x + lu.solve(_residual(system, x, b, transpose), trans=trans)
        iterations += 1
    return _finalize(system, x, b, transpose, tol, iterations, "direct", False)


def _solve_fixed_point(system, b, tol, transpose, max_iter, best_effort):
    Bop = system.B.T.tocsr() if transpose else system.B
    x = np.zeros_like(b)
    iterations = 0
    step_norm = np.inf
    while iterations < max_iter:
        x_next = Bop @ x + b
        # monotone from zero; a gross decrease means a broken system
        drop = float((x - x_next).max(initial=0.0))
        if drop > 1e-12 * (1.0 + float(np.abs(x_next).max(initial=0.0))):
            raise SolverError(f"fixed-point iterate decreased by {drop:.3e}")
        step_norm = float(np.abs(x_next - x).max(initial=0.0))
        x = x_next
        iterations += 1
        if step_norm <= 0.25 * tol * _scale(b, x):
            res = np.abs(_residual(system, x, b, transpose)).max(initial=0.0)
            if res <= 0.5 * tol * _scale(b, x):
                break
    else:
        if not best_effort:
            raise SolverConvergenceError(
                f"no convergence in {max_iter} iterations (last step {step_norm:.3e}); "
                "the system may be degenerate or mis-assembled")
        res = float(np.abs(_residual(system, x, b, transpose)).max(initial=0.0))
        return SolveResult(x=np.maximum(x, 0.0), residual_norm=res,
                           iterations=iterations, method="fixed_point",
                           monotone_lower_bound=True)
    return _finalize(system, x, b, transpose, tol, iterations, "fixed_point", True)


def _solve(system, b, transpose, opts: SolverOptions, best_effort):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (system.size,):
        raise ValueError(f"right-hand side must have shape ({system.size},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if np.any(b < 0):
        raise ValueError("right-hand side must be non-negative")
    if system.size == 0:
        return SolveResult(x=np.zeros(0), residual_norm=0.0, iterations=0)
    method = opts.method
    if method == "auto":
        method = "direct" if system.B.nnz <= opts.memory_budget else "fixed_point"
    if method == "direct":
        return _solve_direct(system, b, opts.tol, transpose)
    return _solve_fixed_point(system, b, opts.tol, transpose, opts.max_iter, best_effort)


def solve(system: TruncatedSystem, b: np.ndarray, tol: float = DEFAULT_TOL, *,
          method: str = "auto", max_iter: int = DEFAULT_MAX_ITER,
          memory_budget: int = DEFAULT_MEMORY_BUDGET,
          best_effort: bool = False) -> SolveResult:
    """Solve (I - B) x = b with a certified max-norm residual.

    The certificate is |b - (I - B) x|_inf <= tol * max(1, |b|_inf,
    |x|_inf): an absolute bound for O(1) systems, relative for large ones
    (absolute 1e-12 is unreachable in double precision once the data grow
    past ~1e4).  ``method`` is "direct", "fixed_point" or "auto" (direct
    when the stored nonzeros fit the memory budget).  The fixed-point path
    iterates x <- Bx + b from zero, which increases monotonically toward
    the solution; with ``best_effort`` it returns the current iterate (a
    valid componentwise lower bound) instead of raising when the cap is
    hit.
    """
    opts = SolverOptions(tol, method, max_iter, memory_budget)
    return _solve(system, b, False, opts, best_effort)


def solve_transpose(system: TruncatedSystem, tol: float = DEFAULT_TOL, *,
                    b: np.ndarray | None = None, method: str = "auto",
                    max_iter: int = DEFAULT_MAX_ITER,
                    memory_budget: int = DEFAULT_MEMORY_BUDGET,
                    best_effort: bool = False) -> SolveResult:
    """Solve y (I - B) = nu (or a supplied row vector b) with certificate.

    One transpose solve serves every expression of the form
    nu (I - B)^{-1} v afterwards via inner products y . v.
    """
    b = system.nu if b is None else b
    opts = SolverOptions(tol, method, max_iter, memory_budget)
    return _solve(system, b, True, opts, best_effort)
