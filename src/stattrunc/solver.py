"""Assembly and solution of the truncated substochastic linear systems.

The truncation set A with regeneration state z induces A' = A - {z} and
the matrix B restricted to A', which is strictly substochastic whenever
the chain is irreducible, so I - B is non-singular and its inverse is the
Neumann series sum_j B^j.  Everything downstream reduces to one transpose
solve against the entry row nu(x) = P(z, x) plus a handful of column
solves, all sharing a single factorization.

That factorization is LAPACK's band LU (dgbtrf) of M = (I - B)^T, whose
column j is row j of I - B, in state order.  Its bandwidths are how far a
row of B reaches up and down in A'.  Rows of B are substochastic, so M is
column diagonally dominant, and partial pivoting takes the diagonal pivot
unless rounding tips a nearly singular block of I - B the other way (as
on gm1 with a hole at z + 1, where every state below z leaves A through
z).  The band LU is kept only when every pivot is on the diagonal: then
M = L U with no fill outside the band, the row solve (with M) is two BLAS
triangular band solves (dtbsv), with L then U, and the column solves
(with M^T) are two, with U^T then L^T.  The first m' columns of the
factors are then the factors of M's leading m' x m' block, so the system
of a prefix of A (``prefix_system``) solves with the factorization of a
larger one.  A system whose band LU exchanges a row, or whose band would
hold more than ``BAND_FILL`` times the entries of I - B (say, every row
jumps to one hub state), is factored by SuperLU in state order instead.

When the chain declares a tail (``chain.ChainTail``) and A is a range,
the rows of A' that are the tail with every target in A' (the tail run)
are one stencil: row i holds the tail's probability k at column
i + jump k.  B then stores only the other rows as a CSR matrix, and each
consumer of B adds the run's part itself: the assembly skips its rows,
the band factorization writes them as one broadcast slice, and the
products B x and x B add them as shifted slices or a convolution.
``TruncatedSystem.full_B`` writes the run out, for SuperLU and the tests.

Every solve is refined iteratively, clamped to be non-negative and
returned only with a checked max-norm residual certificate.  The row solve
y = nu (I - B)^{-1} is refined for forward accuracy (mixed-precision
iterative refinement, Higham, "Accuracy and Stability of Numerical
Algorithms", ch. 12): every inner product of the bounds is taken with y.
It forms one long-double residual, then updates it in double: each step
changes y by so little that the update's rounding lies far below that of
the long-double residual.  The column solves are refined for backward
error, in double, until the residual reaches the roundoff floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf

from .chain import (ChainModel, TruncationProblem, as_state_array, is_contiguous,
                    member_mask, merge_rows, reward_values)
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


@dataclass(frozen=True)
class TailRun:
    """Rows ``start`` .. ``stop - 1`` of B, each the chain's tail.

    In positions of A', row i holds ``probs[k]`` at column i + ``jumps[k]``.
    An empty run has ``start == stop == m``.
    """

    start: int
    stop: int
    jumps: np.ndarray
    probs: np.ndarray

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def nnz(self) -> int:
        return self.size * self.jumps.size


def _tail_run(chain: ChainModel, A: np.ndarray, z: int) -> TailRun:
    """The rows of A' that are the chain's tail with every target in A'.

    A must be a range holding z.  A tail row x has its targets in A' and
    on z's side when x > z, x + jumps[0] > z and x + jumps[-1] <= max A;
    those states are a range, whose positions in A' are their offsets
    from min A less one (z lies below them).  Tail rows below z, which
    the built-in chains (z below the tail) never have, stay in the CSR
    part: so the run of a prefix of A is this run cut at the prefix's top.
    """
    m = A.size - 1
    tail = chain.tail
    if tail is not None and is_contiguous(A):
        lo = max(tail.x0, z + 1 - min(int(tail.jumps[0]), 0))
        hi = int(A[-1]) - max(int(tail.jumps[-1]), 0)
        if lo <= hi:
            first = int(A[0]) + 1
            return TailRun(lo - first, hi + 1 - first, tail.jumps, tail.probs)
    return TailRun(m, m, np.zeros(0, dtype=np.int64), np.zeros(0))


def _csr(m: int, parts) -> sp.csr_matrix:
    """The m x m CSR matrix of the row parts of ``chain.merge_rows``."""
    indptr, indices, data = merge_rows(m, parts)
    return sp.csr_matrix((data, indices, indptr), shape=(m, m))


@dataclass
class TruncatedSystem:
    """Vectors and matrices of the truncated system over A' = A - {z}.

    For each x in A', B(x,.) + p(x) + q(x) is the mass of x's row, which
    ``ChainModel.rows`` checked to lie within ``chain.ROW_SUM_TOL`` of 1;
    every entry of B, nu, p, q and h is non-negative, and B's column
    indices are sorted within each row, as a row's targets are.  The scalars
    attached to z (its self-loop mass, reward and exit bounds) are carried
    alongside because the cycle-based formulas need them.

    B is held in two parts: the tail ``run``, whose rows are the chain's
    tail (see ``TailRun``), and the CSR matrix ``B`` of every other row,
    with the run's rows left empty.  ``full_B`` writes out the whole.
    """

    Aprime: np.ndarray           # ordered states of A'
    B: sp.csr_matrix             # the rows of B outside the tail run
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
    run: TailRun
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return int(self.Aprime.size)

    def full_B(self) -> sp.csr_matrix:
        """B as one CSR matrix, the run's rows written out: the matrix the
        same chain without a tail assembles."""
        B, run, m = self.B, self.run, self.size
        rows = np.arange(run.start, run.stop)
        return _csr(m, [(np.arange(m), np.diff(B.indptr), B.indices, B.data),
                        (rows, np.full(run.size, run.jumps.size),
                         (rows[:, None] + run.jumps).ravel(), np.tile(run.probs, run.size))])

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
    rows as h_i(x) = sum_{y not in A} P(x, y) g_i(y).  Every row of A
    outside the tail run (see ``TailRun``), z's included, is read once
    through ``chain.row_chunks``: z's row gives the entry row nu, the
    self-loop P(z, z) and h_i(z) exactly as any other row gives its B row,
    p, q and h_i.  The run's rows are the chain's tail, with p, q and h 0.
    Rewards are evaluated on all of A' and drift functions on the escaping
    entries, each on whole arrays of states.
    """
    chain, A, z = problem.chain, problem.A, problem.z
    is_z = A == z
    if not is_z.any():
        raise AssemblyError(f"regeneration state z={z} not in truncation set")
    iz = int(np.argmax(is_z))
    Aprime = A[~is_z]
    m = Aprime.size
    r_vec = problem.rewards(Aprime)
    run = _tail_run(chain, A, z)

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
    # sized at the first chunk to its longest row times the rows read (B's
    # nnz or just above it on chains of equal-length rows), grown by
    # realloc if a later chunk needs more and cut to nnz at the end.  So B
    # is never held twice, and no per-chunk pieces leave heap holes whose
    # layout, which varies from run to run, decides where the
    # factorization's copy of B goes: that swung the gm1 a = 10^4 peak RSS
    # by ~10 MB when B held every row
    data, indices = np.empty(0), np.empty(0, dtype=index_dtype)
    nnz = 0

    def put(vals, cols, counts):
        nonlocal nnz
        end = nnz + vals.size
        if end > data.size:
            cap = max(end, 2 * data.size, int(counts.max(initial=0)) * (m - run.size))
            data.resize(cap, refcheck=False)
            indices.resize(cap, refcheck=False)
        data[nnz:end] = vals
        indices[nnz:end] = cols
        nnz = end

    def row_chunks():
        # the rows of A below and above the run, whose states are
        # A[run.start + 1:run.stop + 1] (z lies below them); ``start``
        # indexes A
        for base in (0, run.stop + 1):
            states = A[base:run.start + 1] if base == 0 else A[base:]
            for start, *chunk in chain.row_chunks(states):
                yield base + start, *chunk

    B_indptr = np.zeros(m + 1, dtype=np.int64)
    for start, xs, indptr, targets, probs in row_chunks():
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
        r_z=problem.reward(z), h1_z=h1_z, h2_z=h2_z, run=run,
    )


def prefix_system(system: TruncatedSystem, problem: TruncationProblem,
                  certificate: LyapunovCertificate) -> TruncatedSystem:
    """The truncated system of ``problem``, read off the larger ``system``.

    ``problem.A`` must be a leading part of ``system.A_full`` that holds
    its z, and ``system`` must have been assembled from ``problem``'s
    chain and reward and from ``certificate``.  nu, p and r are then
    leading parts of ``system``'s, and the tail run is ``system``'s cut at
    the prefix's top.  Two kinds of rows are read again through
    ``chain.rows``: the rows that reach past the prefix, whose q and h
    change and whose B entries past it go, and the rows that leave the run
    because they reach past it, whose B entries are written to the CSR
    part.  Every other row of the CSR part is ``system``'s.  Every array
    equals that of ``assemble_truncated_system(problem, certificate)``.

    When ``system`` has a ``BandLU`` of the prefix's own band, the prefix
    solves with its leading m' columns: the factors its own factorization
    would compute, as no row was exchanged.
    """
    A, z = problem.A, problem.z
    n = A.size
    if z != system.z or not np.array_equal(A, system.A_full[:n]):
        raise ValueError(f"A must be a leading part of the system's A and hold its z={system.z}")
    m = n - 1
    B, Aprime = system.B, system.Aprime[:m]
    run = _tail_run(problem.chain, A, z)
    left = np.arange(system.run.start, min(system.run.stop, m))
    left = left[(left < run.start) | (left >= run.stop)]
    hi = int(B.indptr[m])
    row = np.repeat(np.arange(m), np.diff(B.indptr[:m + 1]))
    inside = B.indices[:hi] < m

    fix = np.union1d(row[~inside], left)
    xs = np.append(Aprime[fix], z)
    row_ptr, targets, probs = problem.chain.rows(xs)
    row_x = np.repeat(np.arange(xs.size), np.diff(row_ptr))
    outside = ~member_mask(targets, A)
    n_out = np.bincount(row_x[outside], minlength=xs.size)
    esc = np.flatnonzero(n_out)
    q_x, h1_x, h2_x = np.zeros(xs.size), np.zeros(xs.size), np.zeros(xs.size)
    q_x[esc], h1_x[esc], h2_x[esc] = expected_g_rows(
        certificate, n_out[esc], targets[outside], probs[outside])
    q, h1, h2 = system.q[:m].copy(), system.h1[:m].copy(), system.h2[:m].copy()
    q[fix], h1[fix], h2[fix] = q_x[:-1], h1_x[:-1], h2_x[:-1]

    # the rows that leave the run have every target but those past the
    # prefix in A' (none is z)
    new = np.isin(fix, left)
    entry = np.append(new, False)[row_x] & ~outside
    B_m = _csr(m, [(np.arange(m), np.bincount(row[inside], minlength=m),
                    B.indices[:hi][inside], B.data[:hi][inside]),
                   (fix[new], np.bincount(row_x[entry], minlength=xs.size)[:-1][new],
                    np.searchsorted(Aprime, targets[entry]), probs[entry])])
    prefix = TruncatedSystem(
        Aprime=Aprime, B=B_m,
        nu=system.nu[:m], p=system.p[:m], q=q, r_vec=system.r_vec[:m], h1=h1, h2=h2,
        A_full=A, z=system.z, P_zz=system.P_zz, r_z=system.r_z,
        h1_z=float(h1_x[-1]), h2_z=float(h2_x[-1]), run=run,
    )
    lu = system._cache.get("lu")
    if isinstance(lu, BandLU) and _band(prefix.B, prefix.run) == (lu.kl, lu.ku):
        prefix._cache["lu"] = lu.leading(m)
    return prefix


#: the band LU is used while its storage, (2 kl + ku + 1) m entries, is at
#: most this many times the entries of I - B (nnz(B) + m); past that, SuperLU
BAND_FILL = 4

#: values of B converted to long double, or of M written into band storage,
#: at a time (4 MB of long double); a block holds whole rows of B, so a
#: longer row is a block of its own
LD_BLOCK = 1 << 18


def _row_blocks(indptr: np.ndarray):
    """Consecutive row ranges (i0, i1) of the CSR row pointer ``indptr``,
    each holding at most ``LD_BLOCK`` entries or one row."""
    m = indptr.size - 1
    size = max(LD_BLOCK, int(np.diff(indptr).max(initial=0)))
    i0 = 0
    while i0 < m:
        i1 = int(np.searchsorted(indptr, indptr[i0] + size, side="right")) - 1
        yield i0, i1
        i0 = i1


def _band(B: sp.csr_matrix, run: TailRun | None = None) -> tuple[int, int] | None:
    """(kl, ku) of M = (I - B)^T, B the CSR rows ``B`` plus the tail
    ``run``, or None when its band is too wide.

    kl and ku are how far a row of B reaches up and down; a row's first
    and last columns are its lowest and highest, as B's column indices
    and a tail's jumps are sorted.  The band is too wide when it would
    hold more than ``BAND_FILL`` times the entries of I - B, the run's
    included.
    """
    m = B.shape[0]
    rows = np.flatnonzero(np.diff(B.indptr))
    kl = ku = nnz_run = 0
    if rows.size:
        kl = max(0, int((B.indices[B.indptr[rows + 1] - 1] - rows).max()))
        ku = max(0, int((rows - B.indices[B.indptr[rows]]).max()))
    if run is not None and run.size:
        kl, ku = max(kl, int(run.jumps[-1])), max(ku, -int(run.jumps[0]))
        nnz_run = run.nnz
    return (kl, ku) if (2 * kl + ku + 1) * m <= BAND_FILL * (B.nnz + nnz_run + m) else None


class BandLU:
    """The LU factors of M = (I - B)^T, with every pivot on the diagonal,
    in LAPACK band storage.

    M = L U, with L unit lower of bandwidth kl and U upper of bandwidth
    kl + ku.  ``ab`` is dgbtrf's band: its rows 0 .. kl + ku hold U in
    upper band storage, its rows below the multipliers of L.  ``L`` is a
    view of ``ab``'s buffer from row kl + ku, with ``ab``'s leading
    dimension, so it is L in lower band storage (U's diagonal at its row 0
    is never read, as L's diagonal is a unit one).  ``solve(b, trans)`` has
    SuperLU's meaning on I - B: ``"N"`` solves (I - B) x = b, a solve with
    M^T, and ``"T"`` solves x (I - B) = b, a solve with M.  Each is two
    BLAS triangular band solves (dtbsv).
    """

    def __init__(self, ab: np.ndarray, L: np.ndarray, kl: int, ku: int):
        self.ab, self.L, self.kl, self.ku = ab, L, kl, ku

    @classmethod
    def factor(cls, B: sp.csr_matrix, kl: int, ku: int,
               run: TailRun | None = None) -> "BandLU | None":
        """The band LU of (I - B)^T, B the CSR rows ``B`` plus the tail
        ``run``, or None when partial pivoting exchanges a row, as rounding
        can make it do where a block of I - B is nearly singular."""
        m, indptr = B.shape[0], B.indptr
        width = 2 * kl + ku + 1
        # M[i, j] is ab[kl + ku + i - j, j], and column j of M is row j of
        # I - B: ab^T, in C order, is B with each row's columns shifted by
        # kl + ku minus its position, negated, plus 1 at column kl + ku.
        # One spare row of the buffer lets the view L of width rows, which
        # starts kl + ku entries in, end inside it
        buf = np.zeros((m + 1, width))
        abT = buf[:m]
        for i0, i1 in _row_blocks(indptr):
            lo, hi = indptr[i0], indptr[i1]
            ptr = indptr[i0:i1 + 1] - lo
            cols = B.indices[lo:hi] - np.repeat(np.arange(i0, i1, dtype=B.indices.dtype),
                                                np.diff(ptr))
            cols += kl + ku
            sp.csr_matrix((np.negative(B.data[lo:hi]), cols, ptr),
                          shape=(i1 - i0, width)).toarray(out=abT[i0:i1])
        if run is not None and run.size:
            abT[run.start:run.stop, kl + ku + run.jumps] = -run.probs
        ab = abT.T
        ab[kl + ku] += 1.0
        ab, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"I - B is singular: zero pivot at position {info - 1}")
        if not np.array_equal(piv, np.arange(m)):
            return None
        L = buf.reshape(-1)[kl + ku:kl + ku + width * m].reshape(m, width).T
        return cls(ab, L, kl, ku)

    def leading(self, m: int) -> "BandLU":
        """The factors of M's leading m x m block: our first m columns, as
        no row was exchanged."""
        return BandLU(self.ab[:, :m], self.L[:, :m], self.kl, self.ku)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        k = self.kl + self.ku
        if trans == "N":
            x = dtbsv(k, self.ab, b, trans=1)
            return dtbsv(self.kl, self.L, x, lower=1, trans=1, diag=1, overwrite_x=1)
        x = dtbsv(self.kl, self.L, b, lower=1, diag=1)
        return dtbsv(k, self.ab, x, overwrite_x=1)


def _check_escapes(system: TruncatedSystem, B_full: sp.csr_matrix) -> None:
    """Raise ``SolverError`` unless the chain leaves A' from every state.

    I - B is singular when a class of states in A' is closed: from there the
    chain never reaches z or leaves A.  The band LU reports that as a zero
    pivot, but SuperLU can crash on it, so it is found first: by a
    breadth-first search from the rows that lose mass (p + q > 0) back
    along the entries of B.  ``scipy.sparse.csgraph`` is imported here,
    so only a system that SuperLU factors loads it.
    """
    from scipy.sparse.csgraph import breadth_first_order

    m = system.size
    leak = np.flatnonzero(system.p + system.q > 0.0)
    rows = np.repeat(np.arange(m), np.diff(B_full.indptr))
    back = sp.csr_matrix((np.ones(rows.size + leak.size),
                          (np.concatenate((B_full.indices, np.full(leak.size, m))),
                           np.concatenate((rows, leak)))), shape=(m + 1, m + 1))
    reached = np.zeros(m + 1, dtype=bool)
    reached[breadth_first_order(back, m, return_predecessors=False)] = True
    if not reached.all():
        x = int(system.Aprime[np.argmin(reached)])
        raise SolverError(f"I - B is singular: from state {x} the chain never reaches "
                          f"z={system.z} or leaves A")


def _lu(system: TruncatedSystem):
    """The state-order LU of I - B, computed once per system.

    A ``BandLU`` of (I - B)^T when ``_band`` finds the band narrow enough
    and partial pivoting takes every pivot on the diagonal, else SuperLU's
    LU of I - B in state order with diagonal pivots, from ``full_B``.
    Both hold no fill outside the envelope of I - B.
    """
    if "lu" not in system._cache:
        B, run, m = system.B, system.run, system.size
        band = _band(B, run)
        lu = BandLU.factor(B, *band, run) if band is not None else None
        if lu is None:
            B_full = system.full_B()
            _check_escapes(system, B_full)
            # I - B is a nonsingular M-matrix, so every pivot is positive
            # and perm_r = perm_c = identity
            lu = spla.splu((sp.identity(m, format="csr") - B_full).tocsc(),
                           permc_spec="NATURAL",
                           diag_pivot_thresh=0.0, relax=1, panel_size=1)
        system._cache["lu"] = lu
    return system._cache["lu"]


def _transposed(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                n: int) -> sp.csc_matrix:
    """The transpose of the CSR rows (data, indices, indptr) over n columns,
    on those very arrays.

    Set, not passed to the constructor, which copies arrays that are views
    of less than half of their base, as each row block of B is.
    """
    T = sp.csc_matrix((n, indptr.size - 1), dtype=data.dtype)
    T.data, T.indices, T.indptr = data, indices, indptr
    return T


def _Bx(system: TruncatedSystem, x: np.ndarray) -> np.ndarray:
    """B x, in double.

    Each row's products are summed left to right from 0, as scipy's CSR
    product sums them: the run's rows by one shifted slice of x per jump,
    so they give the very sums of their written-out form in ``full_B``.
    """
    Bx = system.B @ x
    run = system.run
    rows = Bx[run.start:run.stop]     # empty in the CSR part: zeros
    for j, p in zip(run.jumps.tolist(), run.probs.tolist()):
        rows += x[run.start + j:run.stop + j] * p
    return Bx


def _xB(system: TruncatedSystem, x: np.ndarray) -> np.ndarray:
    """x B, in the dtype of x: double, or long double.

    The sums are those of scipy's product of ``full_B``'s transpose, bit
    for bit: each column adds its terms in row order, from 0.  A
    long-double product is formed a block of rows at a time, each block
    of at most ``LD_BLOCK`` entries of ``full_B`` summed on its own and
    added to the total, so no long-double copy of all of B is held.
    """
    B, run, m = system.B, system.run, system.size
    blocks = [(0, m)]
    if x.dtype != B.data.dtype:
        counts = np.diff(B.indptr)
        counts[run.start:run.stop] = run.jumps.size
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        blocks = _row_blocks(indptr)
    xB = np.zeros(m, dtype=x.dtype)
    for i0, i1 in blocks:
        xB += _xB_rows(system, x, i0, i1)
    return xB


def _xB_rows(system: TruncatedSystem, x: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """The sum over rows i0 .. i1 - 1 of x_i B(i, .), term by term in row
    order from 0: the CSR rows below the run, then the run's, then the CSR
    rows above it."""
    B, run, m = system.B, system.run, system.size
    r0, r1 = min(max(run.start, i0), i1), min(max(run.stop, i0), i1)
    indptr, lo = B.indptr, B.indptr[i0]
    vals = B.data[lo:indptr[i1]].astype(x.dtype, copy=False)
    part = _transposed(vals[:indptr[r0] - lo], B.indices[lo:indptr[r0]],
                       indptr[i0:r0 + 1] - lo, m) @ x[i0:r0]
    if r1 > r0:
        jumps = run.jumps.tolist()
        c0, c1 = r0 + jumps[0], r1 + jumps[-1]
        if x.dtype == B.data.dtype:
            _add_run(part, x, run, r0, r1, c0, c1)
        else:
            # a long-double convolution sums each column's terms in the
            # order of its longer operand, x's run entries padded, from 0;
            # the columns that the CSR rows below reached go on from their
            # sums instead
            span = c1 - c0 - (r1 - r0) + 1
            taps = np.zeros(span, dtype=x.dtype)
            taps[run.jumps - jumps[0]] = run.probs
            padded = np.zeros(r1 - r0 + span, dtype=x.dtype)
            padded[:r1 - r0] = x[r0:r1]
            reached = int(B.indices[lo:indptr[r0]].max(initial=c0 - 1)) + 1
            head = part[c0:reached].copy()
            part[c0:c1] += np.convolve(padded, taps)[:c1 - c0]
            part[c0:reached] = head
            _add_run(part, x, run, r0, r1, c0, reached)
    for i in range(r1, i1):
        cols = slice(indptr[i] - lo, indptr[i + 1] - lo)
        part[B.indices[lo:][cols]] += vals[cols] * x[i]
    return part


def _add_run(part: np.ndarray, x: np.ndarray, run: TailRun, r0: int, r1: int,
             c0: int, c1: int) -> None:
    """Add to the columns c0 .. c1 - 1 of ``part`` the terms x_i B(i, .) of
    the run's rows r0 .. r1 - 1, in row order: one shifted slice of x per
    jump, the highest jump first."""
    for j, p in zip(run.jumps[::-1].tolist(), run.probs[::-1].tolist()):
        a, b = max(r0, c0 - j), min(r1, c1 - j)
        if a < b:
            part[a + j:b + j] += x[a:b] * p


def _residual(system: TruncatedSystem, x: np.ndarray, b: np.ndarray,
              transpose: bool) -> np.ndarray:
    """b - (I - B) x, or b - x (I - B) in long double when ``transpose``."""
    if not transpose:
        return b - (x - _Bx(system, x))
    x_ld = x.astype(np.longdouble)
    return b.astype(np.longdouble) - (x_ld - _xB(system, x_ld))


def _move(system: TruncatedSystem, x: np.ndarray, x_new: np.ndarray, b: np.ndarray,
          residual: np.ndarray, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
    """x_new and its residual, given x and its residual.

    A column solve forms the residual of x_new afresh.  The row solve
    updates x's long-double residual r to r - (d - d B), d = x_new - x,
    with d B in double: d is exact where x_new is within a factor 2 of x
    (Sterbenz), and a refinement step or the clamp is so small that d B's
    rounding lies far below the long-double rounding of r itself.
    """
    if not transpose:
        return x_new, _residual(system, x_new, b, False)
    d = x_new - x
    if d.any():     # a last step often rounds away in every entry of y
        residual -= d - _xB(system, d)
    return x_new, residual


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
    # ``residual`` always belongs to the current x: the row solve forms its
    # long-double residual once and updates it in double, a column solve
    # forms each of its own once
    eps = np.finfo(np.float64).eps
    best = np.inf
    for _ in range(8):
        if not transpose:
            size = float(np.abs(residual).max())
            if size <= 4.0 * eps * _scale(b, x) or size >= 0.9 * best:
                break
            best = size
        step = lu.solve(residual.astype(np.float64, copy=False), trans=trans)
        x, residual = _move(system, x, _finite(x + step), b, residual, transpose)
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
        x, residual = _move(system, x, np.maximum(x, 0.0), b, residual, transpose)
    res = float(np.abs(residual).max())
    cap = opts.tol * _scale(b, x)
    if res > cap:
        raise SolverError(f"residual {res:.3e} exceeds tolerance {cap:.3e}")
    return SolveResult(x=x, residual_norm=res, iterations=iterations)


def solve(system: TruncatedSystem, b: np.ndarray,
          tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve (I - B) x = b with a certified max-norm residual.

    The system's LU factorization (computed once and cached) gives
    x, which is refined, clamped at zero and checked.  The certificate is
    |b - (I - B) x|_inf <= tol * max(1, |b|_inf, |x|_inf): an absolute
    bound for O(1) systems, relative for large ones (absolute 1e-12 is
    unreachable in double precision once the data grow past ~1e4).
    """
    return _solve(system, b, False, SolverOptions(tol))


def solve_transpose(system: TruncatedSystem, tol: float = DEFAULT_TOL, *,
                    b: np.ndarray | None = None) -> SolveResult:
    """Solve y (I - B) = nu (or a supplied row vector b) with certificate.

    The same factorization and certificate as ``solve``, with one residual
    formed in long double, then updated in double, so that refinement makes
    y accurate to its last bit.  One transpose solve serves every expression
    of the form nu (I - B)^{-1} v afterwards via inner products y . v.
    """
    b = system.nu if b is None else b
    return _solve(system, b, True, SolverOptions(tol))
