"""Assembly and solution of the truncated substochastic linear systems.

The truncation set A with regeneration state z induces A' = A - {z} and
the matrix B restricted to A', which is strictly substochastic whenever
the chain is irreducible, so I - B is non-singular and its inverse is the
Neumann series sum_j B^j.  Everything downstream reduces to one transpose
solve against the entry row nu(x) = P(z, x) plus a handful of column
solves, all sharing a single factorization.

Every solve is a direct sparse LU solve against that one factorization,
refined iteratively toward the roundoff floor, clamped to be
non-negative and returned only with a checked max-norm residual
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import TruncationProblem, is_contiguous, member_mask, reward_values
from .models import LyapunovCertificate

DEFAULT_TOL = 1e-12

ROW_IDENTITY_TOL = 1e-10


class AssemblyError(ValueError):
    """Raised when a truncated system cannot be assembled consistently."""


class SolverError(RuntimeError):
    """Raised when a linear solve cannot certify its residual."""


@dataclass(frozen=True)
class SolverOptions:
    """The residual tolerance shared by all linear solves in one pipeline run.

    Also the ``solver`` section of an experiment config, so a bad value is
    rejected when the config is read, not at the first solve.
    """

    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")


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
    iterations: int              # refinement steps after the first LU solve


def expected_g_rows(certificate: LyapunovCertificate, counts: np.ndarray,
                    targets: np.ndarray, probs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row mass and expected g of consecutive runs of row entries.

    Row i owns the next ``counts[i]`` entries of ``targets``/``probs``.
    Returns ``(mass, s1, s2)``: each row's probability sum (numpy's sum of
    its entries) and ``sum_y P(x, y) g_i(y)`` over its entries.  One
    evaluation of each g covers every entry, and ``np.bincount`` sums
    each row from 0.0 left to right in the order given, so equal rows give
    bit-equal sums whatever else the batch holds.  A negative or
    non-finite g value raises ``AssemblyError``: the drift functions of a
    certificate are finite and non-negative by definition.
    """
    n = counts.size
    try:
        g1 = reward_values(certificate.g1, targets, "g1")
        g2 = reward_values(certificate.g2, targets, "g2")
    except ValueError as exc:
        raise AssemblyError(str(exc)) from exc
    row = np.repeat(np.arange(n), counts)
    mass = np.bincount(row, probs, minlength=n)
    s1 = np.bincount(row, probs * g1, minlength=n)
    s2 = np.bincount(row, probs * g2, minlength=n)
    # any order sums two terms alike; a longer row takes numpy's own
    # (pairwise) sum, which is how a row's mass is defined
    ends = np.cumsum(counts)
    for i in np.flatnonzero(counts > 2).tolist():
        mass[i] = probs[ends[i] - counts[i]:ends[i]].sum()
    return mass, s1, s2


def assemble_truncated_system(problem: TruncationProblem,
                              certificate: LyapunovCertificate) -> TruncatedSystem:
    """Build the truncated system for a problem and a Lyapunov certificate.

    The overshoot bounds h_i are computed exactly from the finite-support
    rows as h_i(x) = sum_{y not in A} P(x, y) g_i(y).  Every row of A, z's
    included, is read once through ``chain.row_chunks``: z's row gives the
    entry row nu, the self-loop P(z, z) and h_i(z) exactly as any other
    row gives its B row, p, q and h_i.  Rewards and drift functions are
    evaluated on whole arrays of states.
    """
    chain, A, z = problem.chain, problem.A, problem.z
    is_z = A == z
    if not is_z.any():
        raise AssemblyError(f"regeneration state z={z} not in truncation set")
    iz = int(np.argmax(is_z))
    Aprime = A[~is_z]
    m = Aprime.size
    r_vec = problem.rewards(Aprime)

    p, q, h1, h2, nu = (np.zeros(m) for _ in range(5))
    # B as CSR pieces, column indices already in the dtype the CSR matrix
    # keeps, so that joining the pieces makes no wider copy.  When A' is a
    # range, a state's column is its offset from the first state
    index_dtype = np.int32 if m < np.iinfo(np.int32).max else np.int64
    first = int(Aprime[0]) if is_contiguous(Aprime) else None

    def columns(targets):
        return targets - first if first is not None else np.searchsorted(Aprime, targets)

    data = [np.zeros(0)]
    indices = [np.zeros(0, dtype=index_dtype)]
    B_indptr = np.zeros(m + 1, dtype=np.int64)
    for start, xs, indptr, targets, probs in chain.row_chunks(A):
        n = xs.size
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
        p_c = np.bincount(row[at_z], weights=probs[at_z], minlength=n)
        q_c, h1_c, h2_c = np.zeros(n), np.zeros(n), np.zeros(n)
        if outside.any():
            # q and h over the rows that have escaping entries (one row
            # per prefix truncation on the built-in chains)
            n_out = np.bincount(row[outside], minlength=n)
            esc = np.flatnonzero(n_out)
            q_c[esc], h1_c[esc], h2_c[esc] = expected_g_rows(
                certificate, n_out[esc], targets[outside], probs[outside])
        keep = xs != z
        if not keep.all():
            # z's row: its entries inside A' are nu, not a row of B, and
            # q_c[i] is z's own escaping mass q_z, which no bound uses
            i = iz - start
            P_zz, h1_z, h2_z = float(p_c[i]), float(h1_c[i]), float(h2_c[i])
            lo, hi = indptr[i], indptr[i + 1]
            to_nu = lo + np.flatnonzero(inside[lo:hi])
            nu[columns(targets[to_nu])] = probs[to_nu]
            inside[lo:hi] = False
        # the chunk's other rows are consecutive rows of A', written in
        # place: splitting arrays over all of A after the scan fragments
        # the heap and raised the gm1 a = 10^4 peak RSS by ~30 MB
        s0 = start - int(iz < start)
        out = slice(s0, s0 + int(keep.sum()))
        p[out], q[out], h1[out], h2[out] = p_c[keep], q_c[keep], h1_c[keep], h2_c[keep]
        data.append(probs[inside])
        indices.append(columns(targets[inside]).astype(index_dtype))
        B_indptr[out.start + 1:out.stop + 1] = np.bincount(row[inside], minlength=n)[keep]

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


def _finite(x: np.ndarray) -> np.ndarray:
    """x itself, checked before any residual is formed from it.

    An overflowed iterate would otherwise reach ``_residual`` and make
    numpy warn (inf - inf) before the solve is rejected.
    """
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite intermediate in linear solve")
    return x


def _solve(system, b, transpose, opts: SolverOptions) -> SolveResult:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (system.size,):
        raise ValueError(f"right-hand side must have shape ({system.size},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if np.any(b < 0):
        raise ValueError("right-hand side must be non-negative")
    if system.size == 0:
        return SolveResult(x=np.zeros(0), residual_norm=0.0, iterations=0)
    lu = _lu(system)
    trans = "T" if transpose else "N"
    x = _finite(lu.solve(b, trans=trans))
    residual = _residual(system, x, b, transpose)
    iterations = 0
    # iterative refinement toward the roundoff floor, not just the requested
    # certificate: the extra triangular solves are cheap next to the
    # factorization and the downstream bound arithmetic benefits from
    # residuals at the eps level.  ``residual`` always belongs to the
    # current x, so each residual is evaluated once
    floor = 4.0 * np.finfo(np.float64).eps
    best = np.inf
    for _ in range(8):
        res = float(np.abs(residual).max())
        if res <= floor * _scale(b, x) or res >= 0.9 * best:
            break
        best = res
        x = _finite(x + lu.solve(residual, trans=trans))
        residual = _residual(system, x, b, transpose)
        iterations += 1

    lo = x.min()
    if lo < 0.0:
        scale = max(1.0, float(np.abs(x).max()))
        if lo < -1e-8 * scale:
            raise SolverError(f"solution significantly negative (min {lo:.3e})")
        x = np.maximum(x, 0.0)
        residual = _residual(system, x, b, transpose)
    res = float(np.abs(residual).max())
    cap = opts.tol * _scale(b, x)
    if res > cap:
        raise SolverError(f"residual {res:.3e} exceeds tolerance {cap:.3e}")
    return SolveResult(x=x, residual_norm=res, iterations=iterations)


def solve(system: TruncatedSystem, b: np.ndarray,
          tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve (I - B) x = b with a certified max-norm residual.

    The system's sparse LU factorization (computed once and cached) gives
    x, which is refined, clamped at zero and checked.  The certificate is
    |b - (I - B) x|_inf <= tol * max(1, |b|_inf, |x|_inf): an absolute
    bound for O(1) systems, relative for large ones (absolute 1e-12 is
    unreachable in double precision once the data grow past ~1e4).
    """
    return _solve(system, b, False, SolverOptions(tol))


def solve_transpose(system: TruncatedSystem, tol: float = DEFAULT_TOL, *,
                    b: np.ndarray | None = None) -> SolveResult:
    """Solve y (I - B) = nu (or a supplied row vector b) with certificate.

    The same factorization and certificate as ``solve``.  One transpose
    solve serves every expression of the form nu (I - B)^{-1} v afterwards
    via inner products y . v.
    """
    b = system.nu if b is None else b
    return _solve(system, b, True, SolverOptions(tol))
