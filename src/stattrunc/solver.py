"""Assembly and solution of the truncated substochastic linear systems.

The truncation set A with regeneration state z induces A' = A - {z} and
the matrix B restricted to A', which is strictly substochastic whenever
the chain is irreducible, so I - B is non-singular and its inverse is the
Neumann series sum_j B^j.  Everything downstream reduces to one transpose
solve against the entry row nu(x) = P(z, x) plus a handful of column
solves, all sharing a single factorization.

I - B is factored in state order with diagonal pivots and no row
exchanges.  It is a nonsingular M-matrix, so every pivot is positive, and
the fill of L + U stays inside the envelope of I - B: on the built-in
chains, whose rows reach one state up and a bounded number of states
down, that is a band, and the factorization costs a fraction of what a
fill-reducing column ordering costs to compute.

Every solve is a direct sparse LU solve against that one factorization,
refined iteratively, clamped to be non-negative and returned only with a
checked max-norm residual certificate.  The row solve y = nu (I - B)^{-1}
is refined for forward accuracy, against residuals formed in long double
(mixed-precision iterative refinement, Higham, "Accuracy and Stability of
Numerical Algorithms", ch. 12): every inner product of the bounds is taken
with y.  The column solves are refined for backward error, in double,
until the residual reaches the roundoff floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import (TruncationProblem, as_state_array, is_contiguous, member_mask,
                    reward_values)
from .models import LyapunovCertificate

DEFAULT_TOL = 1e-12


class AssemblyError(ValueError):
    """Raised when a truncated system cannot be assembled consistently."""


class SolverError(RuntimeError):
    """Raised when a linear solve cannot certify its residual."""


@dataclass(frozen=True)
class SolverOptions:
    """The residual tolerance shared by all linear solves in one pipeline run.

    Also the ``solver`` section of an experiment config, so a bad value is
    rejected when the config is read, not at the first solve.  10 * tol is
    the threshold delta must exceed, so it must lie below 1.
    """

    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not (0 < self.tol and 10.0 * self.tol < 1.0):
            raise ValueError(f"tol must be positive with 10*tol < 1, got {self.tol!r}")


@dataclass
class TruncatedSystem:
    """Vectors and matrices of the truncated system over A' = A - {z}.

    For each x in A', B(x,.) + p(x) + q(x) is the mass of x's row, which
    ``ChainModel.rows`` checked to lie within ``chain.ROW_SUM_TOL`` of 1;
    every entry of B, nu, p, q and h is non-negative.  The scalars
    attached to z (its self-loop mass, reward and exit bounds) are carried
    alongside because the cycle-based formulas need them.
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
        arr = as_state_array(states)
        missing = ~member_mask(arr, self.Aprime)
        if missing.any():
            raise KeyError(f"states not in A': {arr[missing].tolist()}")
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
    # B's column indices are written in the dtype the CSR matrix keeps, so
    # it makes no wider copy.  When A' is a range, a state's column is its
    # offset from the first state
    index_dtype = np.int32 if m < np.iinfo(np.int32).max else np.int64
    first = int(Aprime[0]) if is_contiguous(Aprime) else None
    A_range = (int(A[0]), int(A[-1])) if is_contiguous(A) else None

    def columns(targets):
        return targets - first if first is not None else np.searchsorted(Aprime, targets)

    def all_in_B(xs, targets):
        # every entry of the chunk is an entry of B: A is a range that holds
        # every target, z lies outside the targets' range and z's row is
        # in another chunk
        if A_range is None or xs[0] <= z <= xs[-1]:
            return False
        lo, hi = int(targets.min()), int(targets.max())
        return A_range[0] <= lo and hi <= A_range[1] and not lo <= z <= hi

    # B's entries are written chunk after chunk into one pair of arrays,
    # sized at the first chunk to its longest row times m (B's nnz or just
    # above it on chains of equal-length rows), grown by realloc if a later
    # chunk needs more and cut to nnz at the end.  So B is never held
    # twice, and no per-chunk pieces leave heap holes whose layout, which
    # varies from run to run, decides where the factorization's copy of B
    # goes: that swung the gm1 a = 10^4 peak RSS by ~10 MB
    data, indices = np.empty(0), np.empty(0, dtype=index_dtype)
    nnz = 0

    def put(vals, cols, counts):
        nonlocal nnz
        end = nnz + vals.size
        if end > data.size:
            cap = max(end, 2 * data.size, int(counts.max(initial=0)) * m)
            data.resize(cap, refcheck=False)
            indices.resize(cap, refcheck=False)
        data[nnz:end] = vals
        indices[nnz:end] = cols
        nnz = end

    B_indptr = np.zeros(m + 1, dtype=np.int64)
    for start, xs, indptr, targets, probs in chain.row_chunks(A):
        n = xs.size
        counts = np.diff(indptr)
        s0 = start - int(iz < start)
        if all_in_B(xs, targets):
            # p, q and h stay 0 on these rows; the chunk is B's next rows
            put(probs, columns(targets), counts)
            B_indptr[s0 + 1:s0 + n + 1] = counts
            continue
        row = np.repeat(np.arange(n), counts)
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
        out = slice(s0, s0 + int(keep.sum()))
        p[out], q[out], h1[out], h2[out] = p_c[keep], q_c[keep], h1_c[keep], h2_c[keep]
        put(probs[inside], columns(targets[inside]), counts)
        B_indptr[out.start + 1:out.stop + 1] = np.bincount(row[inside], minlength=n)[keep]

    np.cumsum(B_indptr, out=B_indptr)
    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    B = sp.csr_matrix((data, indices, B_indptr), shape=(m, m))

    return TruncatedSystem(
        Aprime=Aprime, B=B, nu=nu, p=p, q=q, r_vec=r_vec,
        h1=h1, h2=h2, A_full=A, z=int(z), P_zz=P_zz,
        r_z=problem.reward(z), h1_z=h1_z, h2_z=h2_z,
    )


def _lu(system: TruncatedSystem):
    """The state-order LU of I - B, computed once per system.

    B in CSC form is B^T in CSR form, the copy of B that the row-solve
    residual reads; it is cached as such.  When every diagonal entry of B
    is stored, that copy is turned into I - B for the factorization (-b off
    the diagonal, 1 - b_ii on it: the values of ``identity - B``) and back
    into B^T after it, exactly, so the factorization costs no second copy
    of B.
    """
    if "lu" not in system._cache:
        m = system.size

        def factor(I_minus_B):
            # state order, diagonal pivots: I - B is a nonsingular M-matrix,
            # so every pivot is positive and perm_r = perm_c = identity
            return spla.splu(I_minus_B, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                             relax=1, panel_size=1)

        diag = system.B.diagonal()
        Bt = system.B.tocsc()
        if np.all(diag > 0.0):
            Bt.data *= -1.0
            Bt.setdiag(1.0 - diag)
            system._cache["lu"] = factor(Bt)
            Bt.data *= -1.0
            Bt.setdiag(diag)
        else:
            system._cache["lu"] = factor(sp.identity(m, format="csc") - Bt)
        system._cache["Bt"] = sp.csr_matrix((Bt.data, Bt.indices, Bt.indptr),
                                            shape=(m, m), copy=False)
    return system._cache["lu"]


#: values of B^T held in long double at a time by the row-solve residual
#: (4 MB); a block holds whole rows, so a longer row is a block of its own
LD_BLOCK = 1 << 18


def _residual(system: TruncatedSystem, x: np.ndarray, b: np.ndarray,
              transpose: bool) -> np.ndarray:
    """b - (I - B) x, or b - x (I - B) in long double when ``transpose``.

    x B is B^T x, read from the transposed copy of B that ``_lu`` keeps,
    a block of rows at a time: each row's values go to long double and its
    entry of B^T x is their sum with x, left to right from 0.  That is the
    order of a product with a long-double copy of all of B, so the blocks
    give the same bits without holding such a copy.
    """
    if not transpose:
        return b - (x - system.B @ x)
    Bt = system._cache["Bt"]
    m, indptr = system.size, Bt.indptr
    x_ld = x.astype(np.longdouble)
    Btx = np.empty(m, dtype=np.longdouble)
    vals = np.empty(min(Bt.nnz, max(LD_BLOCK, int(np.diff(indptr).max()))), dtype=np.longdouble)
    i0 = 0
    while i0 < m:
        i1 = int(np.searchsorted(indptr, indptr[i0] + vals.size, side="right")) - 1
        lo, hi = indptr[i0], indptr[i1]
        np.copyto(vals[:hi - lo], Bt.data[lo:hi])
        rows = sp.csr_matrix((vals[:hi - lo], Bt.indices[lo:hi], indptr[i0:i1 + 1] - lo),
                             shape=(i1 - i0, m))
        Btx[i0:i1] = rows @ x_ld
        i0 = i1
    return b.astype(np.longdouble) - (x_ld - Btx)


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
    # Iterative refinement (see the module docstring).  The row solve stops
    # after a correction at y's last bit or one that did not halve, a column
    # solve once its residual reaches the roundoff floor or stops shrinking.
    # ``residual`` always belongs to the current x, so each residual is
    # evaluated once
    eps = np.finfo(np.float64).eps
    best = np.inf
    for _ in range(8):
        if not transpose:
            size = float(np.abs(residual).max())
            if size <= 4.0 * eps * _scale(b, x) or size >= 0.9 * best:
                break
            best = size
        step = lu.solve(residual.astype(np.float64, copy=False), trans=trans)
        x = _finite(x + step)
        residual = _residual(system, x, b, transpose)
        iterations += 1
        if transpose:
            size = float(np.abs(step).max())
            if size <= eps * float(np.abs(x).max()) or size >= 0.5 * best:
                break
            best = size

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

    The same factorization and certificate as ``solve``, with the residual
    formed in long double, so that refinement makes y accurate to its last
    bit.  One transpose solve serves every expression of the form
    nu (I - B)^{-1} v afterwards via inner products y . v.
    """
    b = system.nu if b is None else b
    return _solve(system, b, True, SolverOptions(tol))
