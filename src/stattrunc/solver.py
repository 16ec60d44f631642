"""Assembly and solution of the truncated substochastic linear systems.

The truncation set A with regeneration state z induces A' = A - {z} and
the matrix B restricted to A', which is strictly substochastic whenever
the chain is irreducible, so I - B is non-singular and its inverse is the
Neumann series sum_j B^j.  Everything downstream reduces to one transpose
solve against the entry row nu(x) = P(z, x) plus a handful of column
solves, all sharing a single factorization.

That factorization is LAPACK's band LU (dgbtrf) of M = (I - B)^T, whose
column j is row j of I - B, in state order, restricted to a band: its
bandwidths are how far B~, B's entries of at least ``BAND_CUT`` = 2^-106
(u^2, u the unit roundoff), reaches up and down in A'.  On gm1 that is 34
states down where B's rows reach 195: the jumps below -34 carry
8.9e-34 in all, and the band holds B~ exactly.  The factor is that of I - B_b,
B_b the entries of B inside the band (B~ <= B_b <= B), and serves only
as the preconditioner of the refined solves below.

Every residual of those solves is formed against B~ alone (``_cut``):
products with B~ read 36 of gm1's 197 tail jumps.  The entries left out,
E = B - B~ >= 0, move into the certificate instead: ``_cut`` bounds the
mass of every row and column of E by e-bar (~8.9e-34 on gm1, 0 when no
entry lies below the cut, as on the walk and on file chains), so the
residual against B is at most that against B~ plus e-bar |x|_inf in each
entry, and the certified residual is that sum.  A solve refines towards
the solution with B~ at a rate of at most |(I - B)^{-1}| times the most
entries a row (column solves) or a column (the row solve) of B_b holds
below the cut, times 2^-106; a solve that does not converge fails its
residual check.  Rows of B are substochastic and B_b <= B, so
M_b = (I - B_b)^T is column diagonally dominant, and partial pivoting
takes the diagonal pivot unless rounding tips a nearly singular block of
I - B the other way (as on gm1 with a hole at z + 1, where every state
below z leaves A through z).  The band LU is kept only when every pivot
is on the diagonal: then M_b = L U with no fill outside the band, the
row solve (with M_b) is two BLAS triangular band solves (dtbsv), with L
then U, and the column solves (with M_b^T) are two, with U^T then L^T.
The first m' columns of the factors are then the factors of M_b's
leading m' x m' block, so the system of a prefix of A whose band is the
same (``prefix_system``) solves with the factorization of a larger one.
On a chain with a declared tail the run's rows make the elimination a
Toeplitz one, whose factors reach a fixed point (the canonical
factorization of structured Markov chains; Bini, Latouche and Meini,
"Numerical Methods for Structured Markov Chains", 2005): in double the
columns repeat bit for bit, on the walk from column ~51.  With kl = 1,
as on both built-in chains, dgbtrf runs on chunks of columns and stops
where they repeat; the repeated column is broadcast, and the factor is
the one call's bit for bit (``BandLU.factor``).
A system whose band LU exchanges a row, or whose band would hold more
than ``BAND_FILL`` times the entries of I - B (say, every row jumps to
one hub state), is factored by SuperLU in state order instead, with
every entry of B.

When the chain declares a tail (``chain.ChainTail``) and A is a range,
the rows of A' that are the tail with every target in A' (the tail run)
are one stencil: row i holds the tail's probability k at column
i + jump k.  B then stores only the other rows as a CSR matrix, and each
consumer of B adds the run's part itself: the assembly skips its rows,
the band factorization writes them as one broadcast slice, and the
products B~ x and x B~ add their kept jumps as shifted slices or a
convolution.
``TruncatedSystem.full_B`` writes the run out, for SuperLU and the tests.

Every solve is refined iteratively, clamped to be non-negative and
returned only with a checked max-norm residual certificate.  The row solve
y = nu (I - B)^{-1} is refined for forward accuracy (mixed-precision
iterative refinement, Higham, "Accuracy and Stability of Numerical
Algorithms", ch. 12): every inner product of the bounds is taken with y.
It forms one long-double residual against B~, a block of rows of B at
a time (``LD_BLOCK``), then updates it in double: each step
changes y by so little that the update's rounding lies far below that of
the long-double residual.  The column solves are refined for backward
error, in double, until the residual reaches the roundoff floor.

On a deep truncation of a light-tailed chain y underflows to exact zeros
after a few thousand states (the walk at a = 10^5 has 1,073 nonzero
entries), and the row solve stops there, as a sparse triangular solve
whose cost follows the nonzeros (Gilbert and Peierls, 1988).  With s one
past the last nonzero entry of a vector (``_support``) and R how far B~
reaches to a higher column (``_reach``), the row solve holds every vector
only up to its support: y's first entries, b's, each step's and the
long-double residual's first max(min(m, s + R), support(b)) entries.
With kl = 1 the L pass of a band LU runs on chunks of L's columns and
stops at a chunk that ends in 0, the U pass on the factor's first s
columns; the residual, each update, x + step, its checks and the clamp
read the rows of B~ below the s of y or of the step and form the
entries below s + R; past those, the residual is b, which is 0 past its
own support.  SuperLU's solution is cut at its support the same way.
Every term left out is an exact-zero product or an x - 0, so each solve
is the full-length one bit for bit, and y is the only vector of length
m it allocates; a dense y (gm1 up to a = 10^4, file chains) takes the
full length.  A column solve reads each m-length vector once per
iterate: one max and one min give its max-norm and finiteness, and the
residual is formed in place.
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
    """Solution of (I - B) x = b or the transpose system, with certificate.

    ``residual_norm`` is the max-norm of the residual against B~ plus
    e-bar |x|_inf (see ``_cut``): a bound on that against all of B, up to
    the rounding of the former.
    """

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

#: B~ is B's entries of at least u^2 (u = 2^-53, the unit roundoff): the
#: band LU factors I - B restricted to B~'s reach, and every residual reads
#: B~ alone, the certificate bounding what the smaller entries add
#: (``_cut``)
BAND_CUT = 2.0 ** -106

#: entries of B (all of them, not B~'s) per block of rows whose product
#: with y is summed on its own in long double, or per block of M written
#: into band storage (4 MB of long double); a block holds whole rows of B,
#: so a longer row is a block of its own
LD_BLOCK = 1 << 18


def _row_blocks(indptr: np.ndarray, longest: int | None = None):
    """Consecutive row ranges (i0, i1) of the CSR row pointer ``indptr``,
    each holding at most ``LD_BLOCK`` entries or one row.  A longer row
    widens every block to its length: ``longest`` is that of a matrix
    whose leading rows ``indptr`` holds, which then get its blocks."""
    m = indptr.size - 1
    if longest is None:
        longest = int(np.diff(indptr).max(initial=0))
    size = max(LD_BLOCK, longest)
    i0 = 0
    while i0 < m:
        i1 = int(np.searchsorted(indptr, indptr[i0] + size, side="right")) - 1
        yield i0, i1
        i0 = i1


def _cut(system: TruncatedSystem) -> tuple[sp.csr_matrix, TailRun, float]:
    """B~, the entries of B of at least ``BAND_CUT``, as CSR rows and a tail
    run, and e-bar, an upper bound on the mass of E = B - B~ in any row or
    column of B; derived once per system.

    Every residual reads B~ alone: E >= 0, so |b - (I - B) x| is at most
    |b - (I - B~) x| + e-bar |x|_inf in each entry, and |b - x (I - B)|
    too, and the certified residual is that sum.  When no entry of B lies
    below the cut, B~ is B itself (the same CSR matrix and run) and
    e-bar is 0.
    """
    if "cut" not in system._cache:
        B, run, m = system.B, system.run, system.size
        keep = B.data >= BAND_CUT
        drop = run.probs < BAND_CUT
        cut = (B, run, 0.0)
        if not keep.all() or drop.any():
            E = sp.csr_matrix((np.where(keep, 0.0, B.data), B.indices, B.indptr), shape=(m, m))
            ones = np.ones(m)
            mass_col = E.T @ ones
            # a column that no small CSR entry reaches gets at most one run
            # row's dropped mass; column c of the others gets its share, the
            # dropped jumps j with start <= c - j < stop, summed in order by
            # reduceat over [lo, hi) (which gives an empty range one entry,
            # so it is masked; the appended 0 keeps hi in range)
            reached = np.flatnonzero(mass_col)
            jumps, probs = run.jumps[drop], np.append(run.probs[drop], 0.0)
            lo = np.searchsorted(jumps, reached - run.stop, side="right")
            hi = np.searchsorted(jumps, reached - run.start, side="right")
            share = np.add.reduceat(probs, np.stack((lo, hi), axis=1).ravel())[::2]
            mass_col[reached] += np.where(lo < hi, share, 0.0)
            mass = max((E @ ones).max(initial=0.0), mass_col.max(initial=0.0),
                       probs.sum())
            # each sum has under 2^31 terms, so it is within 2^-21 of its
            # exact value, which the scaled sum, rounded up, exceeds
            ebar = float(np.nextafter(mass * (1.0 + 2.0 ** -20), np.inf))
            B_cut = B.copy()
            B_cut.data[~keep] = 0.0
            B_cut.eliminate_zeros()
            cut = (B_cut, TailRun(run.start, run.stop, run.jumps[~drop], run.probs[~drop]), ebar)
        system._cache["cut"] = cut
    return system._cache["cut"]


def _reach(system: TruncatedSystem) -> int:
    """R, how far B~ reaches to a higher column: the most any of its entries'
    columns exceeds its row, or 0; derived once per system, from ``_cut``.

    A row vector that is 0 from entry s on has x B~ = 0 from entry s + R
    on.  R is 1 on the walk and on gm1, whose rows jump up by at most 1.
    """
    if "reach" not in system._cache:
        B, run, _ = _cut(system)
        reach = int(run.jumps.max(initial=0)) if run.size else 0
        # the CSR part's rows inside the run are empty
        for i0, i1 in ((0, run.start), (run.stop, B.shape[0])):
            ptr = B.indptr[i0:i1 + 1]
            rows = np.repeat(np.arange(i0, i1), np.diff(ptr))
            reach = max(reach, int((B.indices[ptr[0]:ptr[-1]] - rows).max(initial=0)))
        system._cache["reach"] = reach
    return system._cache["reach"]


def _support(x: np.ndarray) -> int:
    """One past the last nonzero entry of x, or 0 when x is 0.

    A row solve on a deep truncation of a light-tailed chain underflows to
    exact zeros after a few thousand states; its passes stop there.
    """
    if not x.size or x[-1] != 0:
        return x.size
    nz = np.flatnonzero(x != 0)
    return int(nz[-1]) + 1 if nz.size else 0


def _band(B: sp.csr_matrix, run: TailRun | None = None) -> tuple[int, int] | None:
    """(kl, ku) of the band of M = (I - B)^T that the band LU factors, B
    the CSR rows ``B`` plus the tail ``run``, or None when it is too wide.

    kl and ku are how far B's entries of at least ``BAND_CUT`` reach up
    and down in a row; the entries outside that band are left out of the
    factor.  The band is too wide when it would hold more than
    ``BAND_FILL`` times the entries of I - B, the run's included.
    """
    m = B.shape[0]
    kl = ku = nnz_run = 0
    for i0, i1 in _row_blocks(B.indptr):
        lo, hi = B.indptr[i0], B.indptr[i1]
        rows = np.repeat(np.arange(i0, i1), np.diff(B.indptr[i0:i1 + 1]))
        reach = (B.indices[lo:hi] - rows)[B.data[lo:hi] >= BAND_CUT]
        kl, ku = max(kl, int(reach.max(initial=0))), max(ku, -int(reach.min(initial=0)))
    if run is not None and run.size:
        jumps = run.jumps[run.probs >= BAND_CUT]
        kl, ku = max(kl, int(jumps.max(initial=0))), max(ku, -int(jumps.min(initial=0)))
        nnz_run = run.nnz
    return (kl, ku) if (2 * kl + ku + 1) * m <= BAND_FILL * (B.nnz + nnz_run + m) else None


class BandLU:
    """The LU factors of M = (I - B)^T restricted to its band (kl, ku), with
    every pivot on the diagonal, in LAPACK band storage.

    The entries of M outside the band are entries of B below ``BAND_CUT``
    (see ``_band``), so the factors are those of M_b = (I - B_b)^T, B_b
    the entries of B inside the band, which differs from M by less than u^2
    in each entry it leaves out; the refined solves make up the difference
    (see the module docstring).  M_b = L U, with L unit lower of
    bandwidth kl and U upper of bandwidth kl + ku.  ``ab`` is dgbtrf's
    band: its rows 0 .. kl + ku hold U in upper band storage, its rows
    below the multipliers of L.  ``L`` is a view of ``ab``'s buffer from
    row kl + ku, with ``ab``'s leading dimension, so it is L in lower band
    storage (U's diagonal at its row 0 is never read, as L's diagonal is a
    unit one).  ``solve(b, trans)`` has SuperLU's meaning on I - B_b:
    ``"N"`` solves (I - B_b) x = b, a solve with M_b^T, and ``"T"`` solves
    x (I - B_b) = b, a solve with M_b.  Each is two BLAS triangular band
    solves (dtbsv), the L pass of ``"T"`` one per chunk of columns when
    kl = 1.  ``factor`` calls dgbtrf once, or once per chunk of columns
    when kl = 1 and the band holds a tail run.
    """

    def __init__(self, ab: np.ndarray, L: np.ndarray, kl: int, ku: int):
        self.ab, self.L, self.kl, self.ku = ab, L, kl, ku

    @classmethod
    def factor(cls, B: sp.csr_matrix, kl: int, ku: int,
               run: TailRun | None = None) -> "BandLU | None":
        """The band LU of (I - B)^T restricted to the band (kl, ku), B the
        CSR rows ``B`` plus the tail ``run``, or None when partial pivoting
        exchanges a row, as rounding can make it do where a block of I - B
        is nearly singular.

        With kl = 1 and a tail run, dgbtrf runs on chunks of columns and
        stops where the factor's columns repeat; any other band is one
        call.  Either way the factor, the pivots and a zero pivot's
        position are the one call's, bit for bit:

        - Eliminating column j with kl = 1 and no row exchange changes
          only row j + 1, in columns j + 1 .. j + ku.  So after the columns
          below c, row c is U's row c and the rows below it are M's own,
          and dgbtrf on columns c .. e - 1 (a column slice of the band)
          does the one call's operations on them, but for column e - 1's
          pivot and multiplier, which need row e.  The next chunk starts
          ku + 1 columns back, with the rows of those columns below its
          first put back to M's.  The first chunk ends at ``FIRST_CHUNK``,
          or at 2 (ku + 1) when that is later, so that it is longer than
          that overlap, and each next one at twice the last one's end.
          M's band is written only as a chunk needs it.  A row exchange
          moves a row up, so after one the whole band is factored again
          in one call.
        - The run's rows of M, run.start + 1 .. run.stop - ku - 1, are one
          stencil.  Once a chunk's last ku + 2 finished columns, from
          run.start on, are equal bit for bit, U's row i equals its row
          i + 1, so every later column is that one up to column
          run.stop - ku - 2.  Those columns are written as a broadcast, and
          the last chunk starts at run.stop - ku - 1.
        """
        m = B.shape[0]
        width = 2 * kl + ku + 1
        # ab^T, in C order, holds column j of M, row j of I - B, as its row
        # j (see ``_band_rows``).  One spare row of the buffer lets the view
        # L of width rows, which starts kl + ku entries in, end inside it
        buf = np.zeros((m + 1, width))
        abT = buf[:m]
        bits = abT.view(np.int64)
        stencil = _stencil(run, kl, ku) if run is not None and run.size else None
        chunked = kl == 1 and stencil is not None
        # the entries of a chunk's first ku + 1 columns below its first row
        below = np.add.outer(np.arange(ku + 1), np.arange(width)) > kl + ku
        # a chunk overlaps the next by ku + 1 columns, and must be longer
        first = max(FIRST_CHUNK, 2 * (ku + 1))
        c = w = 0                 # the chunk's first column; columns < w are written
        saved, repeats = None, False
        while True:
            e = m if not chunked or repeats else min(m, max(first, 2 * w))
            _band_rows(abT[w:e], B, kl, ku, w, run, stencil)
            w = e
            if saved is not None:
                np.copyto(abT[c:c + ku + 1], saved, where=below)
            saved = abT[e - ku - 1:e].copy() if e < m else None
            ab, piv, info = dgbtrf(abT[c:e].T, kl, ku, overwrite_ab=1)
            if not np.shares_memory(ab, buf):
                abT[c:e] = ab.T
            done = e if e == m else e - 1
            if 0 < info <= done - c:
                raise SolverError(f"I - B is singular: zero pivot at position {c + info - 1}")
            if not np.array_equal(piv[:done - c], np.arange(done - c)):
                if not chunked:
                    return None
                abT[:w] = 0.0
                c = w = 0
                saved, chunked = None, False
                continue
            if e == m:
                break
            c = e - ku - 1
            last = run.stop - ku - 1
            if (last >= e and done - ku - 2 >= run.start
                    and (bits[done - ku - 2:done] == bits[done - 1]).all()):
                # the overlap's rows below ``last`` are run rows of M
                abT[done:last + ku + 1] = abT[done - 1]
                c, w, saved, repeats = last, last + ku + 1, stencil, True
        L = buf.reshape(-1)[kl + ku:kl + ku + width * m].reshape(m, width).T
        return cls(abT.T, L, kl, ku)

    def leading(self, m: int) -> "BandLU":
        """The factors of M's leading m x m block: our first m columns, as
        no row was exchanged."""
        return BandLU(self.ab[:, :m], self.L[:, :m], self.kl, self.ku)

    def solve(self, b: np.ndarray, trans: str = "N",
              overwrite_b: bool = False) -> np.ndarray:
        """U^T then L^T for ``"N"``, L then U for ``"T"`` (see the class
        docstring).

        ``"N"`` reads and returns all m entries, and may overwrite b when
        ``overwrite_b``.  ``"T"`` follows the support of its right-hand
        side: b holds the first n <= m entries of a row vector that is 0
        past them, and the solution comes back up to its last nonzero
        entry (``_support``), past which it is 0.  Its U pass runs on U's
        first s columns only, s the support of the L pass's output: past
        it that output is 0, and so is U's back-substitution, exactly.
        With kl = 1 the L pass runs on chunks of L's columns, the first
        ending at ``FIRST_CHUNK`` or at twice b's support when that is
        later, each next one at twice the last one's end.  A chunk starts
        at the last one's final column, whose entry is final, so dtbsv
        applies its multiplier to the next row as the one call does.  The
        pass stops at a chunk whose final entry is 0: b is 0 past it, so
        every later entry is +0.  With kl > 1 it is one call.
        """
        k = self.kl + self.ku
        if trans == "N":
            x = dtbsv(k, self.ab, b, trans=1, overwrite_x=int(overwrite_b))
            return dtbsv(self.kl, self.L, x, lower=1, trans=1, diag=1, overwrite_x=1)
        m, sb = self.ab.shape[1], _support(b)
        # with kl > 1 a chunk would start kl columns back: one chunk
        e = min(m, max(FIRST_CHUNK, 2 * sb)) if self.kl == 1 else m
        x = np.zeros(e)
        x[:sb] = b[:sb]
        c = 0
        while True:
            x[c:e] = dtbsv(self.kl, self.L[:, c:e], x[c:e], lower=1, diag=1, overwrite_x=1)
            if e == m or not _support(x[e - 1:e]):
                break
            c, e = e - 1, min(m, 2 * e)
            x.resize(e, refcheck=False)
        x = x[:_support(x)]
        if x.size:
            x[:] = dtbsv(k, self.ab[:, :x.size], x, overwrite_x=1)
        return x


#: the first chunk of a chunked band factor ends at this column, or at
#: 2 (ku + 1) when that is later (``BandLU.factor``); the walk's columns
#: repeat from column ~51
FIRST_CHUNK = 1 << 9


def _stencil(run: TailRun, kl: int, ku: int) -> np.ndarray:
    """The row of ab^T (see ``_band_rows``) of every row of the tail run."""
    row = np.zeros(2 * kl + ku + 1)
    inside = (run.jumps >= -ku) & (run.jumps <= kl)
    row[kl + ku + run.jumps[inside]] = -run.probs[inside]
    row[kl + ku] += 1.0
    return row


def _band_rows(out: np.ndarray, B: sp.csr_matrix, kl: int, ku: int, i0: int,
               run: TailRun | None, stencil: np.ndarray | None) -> None:
    """Write rows i0 .. i0 + len(out) - 1 of ab^T, M's band as ``BandLU``
    stores it, transposed, into the zero array ``out``; ``stencil`` is the
    run's row (``_stencil``).

    M[i, j] is ab[kl + ku + i - j, j], and column j of M is row j of I - B:
    row j of ab^T is B's row j with each column shifted by kl + ku minus
    j, negated, plus 1 at column kl + ku.  The entries that land outside
    its columns kl .. 2 kl + ku are outside the band, and left out.  A row
    of B holds each column once, as a row's targets are strictly
    increasing.
    """
    n, width = out.shape
    indptr = B.indptr[i0:i0 + n + 1]
    if indptr[-1] > indptr[0]:
        for r0, r1 in _row_blocks(indptr):
            lo, hi = indptr[r0], indptr[r1]
            rows = np.repeat(np.arange(r0, r1, dtype=B.indices.dtype),
                             np.diff(indptr[r0:r1 + 1]))
            cols = B.indices[lo:hi] - rows
            cols += kl + ku - i0
            inside = (cols >= kl) & (cols < width)
            out[rows[inside], cols[inside]] = np.negative(B.data[lo:hi][inside])
    out[:, kl + ku] += 1.0
    if stencil is not None:
        # the run's rows hold no CSR entry
        r0, r1 = max(run.start, i0), min(run.stop, i0 + n)
        if r0 < r1:
            out[r0 - i0:r1 - i0] = stencil


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

    A ``BandLU`` of (I - B)^T restricted to its band when ``_band`` finds
    the band narrow enough and partial pivoting takes every pivot on the
    diagonal, else SuperLU's LU of all of I - B in state order with
    diagonal pivots, from ``full_B``.
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
    """B~ x, in double (see ``_cut``).

    Each row's products are summed left to right from 0, as scipy's CSR
    product sums them: the run's rows by one shifted slice of x per kept
    jump, so they give the very sums of their written-out form.
    """
    B, run, _ = _cut(system)
    Bx = B @ x
    rows = Bx[run.start:run.stop]     # empty in the CSR part: zeros
    term = np.empty(run.size)
    for j, p in zip(run.jumps.tolist(), run.probs.tolist()):
        rows += np.multiply(x[run.start + j:run.stop + j], p, out=term)
    return Bx


def _xB(system: TruncatedSystem, x: np.ndarray) -> np.ndarray:
    """x B~, in the dtype of x: double, or long double (see ``_cut``).

    ``x`` holds the first k <= m entries of a row vector that is 0 past
    them, so only B~'s rows 0 .. k - 1 are read, and only the first
    n = min(m, k + R) entries of the product are returned, R = ``_reach``:
    every later one is 0.  The sums are those of scipy's product of B~
    written out and transposed, bit for bit: each column adds its terms in
    row order, from 0, and the rows left out add only exact zeros.  A
    long-double product is formed a block of rows at a time, each block of
    at most ``LD_BLOCK`` entries of ``full_B`` (not of B~) summed on its
    own and added to the total, so no long-double copy of all of B is
    held; the blocks past row k are skipped.
    """
    m, full_run, k = system.size, system.run, x.size
    blocks = [(0, k)]
    if x.dtype != np.float64:
        # full_B's first k rows, blocked as all of full_B is: its longest
        # row sets the block size if it holds more than LD_BLOCK entries,
        # which needs the CSR part to hold more
        longest = full_run.jumps.size
        if system.B.nnz > LD_BLOCK:
            longest = max(longest, int(np.diff(system.B.indptr).max()))
        counts = np.diff(system.B.indptr[:k + 1])
        counts[full_run.start:full_run.stop] = full_run.jumps.size
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        blocks = _row_blocks(indptr, longest)
    B, run, _ = _cut(system)
    n = min(m, k + _reach(system))
    xB = np.zeros(n, dtype=x.dtype)
    for i0, i1 in blocks:
        xB += _xB_rows(B, run, x, i0, i1, n)
    return xB


def _xB_rows(B: sp.csr_matrix, run: TailRun, x: np.ndarray, i0: int, i1: int,
             n: int) -> np.ndarray:
    """The sum over rows i0 .. i1 - 1 of x_i B(i, .), B the CSR rows ``B``
    plus the tail ``run``, term by term in row order from 0: the CSR rows
    below the run, then the run's, then the CSR rows above it.  Its first
    n entries, which hold every column those rows reach."""
    r0, r1 = min(max(run.start, i0), i1), min(max(run.stop, i0), i1)
    indptr, lo = B.indptr, B.indptr[i0]
    vals = B.data[lo:indptr[i1]].astype(x.dtype, copy=False)
    part = _transposed(vals[:indptr[r0] - lo], B.indices[lo:indptr[r0]],
                       indptr[i0:r0 + 1] - lo, n) @ x[i0:r0]
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


def _ends(system: TruncatedSystem, x: np.ndarray) -> tuple[int, int]:
    """(s, n): the row vector whose first entries x holds is 0 from entry
    s on (``_support``), and x B~ from entry n = min(m, s + R) on
    (``_reach``)."""
    s = _support(x)
    return s, min(system.size, s + _reach(system))


def _residual(system: TruncatedSystem, x: np.ndarray, b: np.ndarray,
              transpose: bool) -> np.ndarray:
    """b - (I - B~) x, or b - x (I - B~) in long double when ``transpose``
    (see ``_cut``).

    A column residual is formed in B~ x's own buffer.  The row residual
    takes x and b as the first entries of row vectors that are 0 past
    them, and returns only its first hi = max(n, support(b)) entries, n
    from x (``_ends``): it is formed on the rows of B~ that x's support
    reads and the n columns they reach, and past those it is b itself,
    which is 0 past hi.  Each term left out is an exact-zero product or
    an x - 0, so every entry is the one the whole product gives.
    """
    if not transpose:
        r = _Bx(system, x)
        np.subtract(x, r, out=r)
        return np.subtract(b, r, out=r)
    s, n = _ends(system, x)
    hi = max(n, _support(b))
    r = np.zeros(hi, dtype=np.longdouble)
    r[:min(hi, b.size)] = b[:hi]
    x_ld = np.zeros(n, dtype=np.longdouble)
    x_ld[:min(n, x.size)] = x[:n]
    r[:n] -= x_ld - _xB(system, x_ld[:s])
    return r


def _move(system: TruncatedSystem, x: np.ndarray, x_new: np.ndarray, b: np.ndarray,
          residual: np.ndarray, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
    """x_new and its residual against B~, given x and its residual.

    A column solve forms the residual of x_new afresh.  The row solve
    updates x's long-double residual r to r - (d - d B~), d = x_new - x,
    with d B~ in double: d is exact where x_new is within a factor 2 of x
    (Sterbenz), and a refinement step or the clamp is so small that d B~'s
    rounding lies far below the long-double rounding of r itself.  There
    x_new holds at least as many first entries as x, r the first entries
    that ``_residual`` returns; only r's first n entries move, n from d's
    support (``_ends``), and r grows to n entries when d reaches further
    (b is 0 past r).
    """
    if not transpose:
        return x_new, _residual(system, x_new, b, False)
    d = x_new.copy()
    d[:x.size] -= x
    s, n = _ends(system, d)
    if s:     # a last step often rounds away in every entry of y
        if n > residual.size:
            residual = np.concatenate((residual, np.zeros(n - residual.size, residual.dtype)))
        if n > d.size:
            d = np.concatenate((d, np.zeros(n - d.size)))
        residual[:n] -= d[:n] - _xB(system, d[:s])
    return x_new, residual


def _scale(bmax: float, xmax: float) -> float:
    """Residual scale: tolerances are relative to the system's magnitude.

    max(1, |b|, |x|), given |b| and |x|, so for O(1) right-hand sides the
    certificate is the plain absolute max-norm bound; for large-magnitude
    systems (e.g. h vectors growing like a^2) it is the attainable
    relative one, keeping every displayed digit certified.
    """
    return max(1.0, bmax, xmax)


def _absmax(v: np.ndarray) -> float:
    """max |v|, 0 for an empty v, from one max and one min of v: NaN if v
    holds one.  ``+ 0.0`` turns the -0.0 of a v of zeros into +0.0."""
    if not v.size:
        return 0.0
    return float(max(v.max(), -v.min())) + 0.0


def _extent(x: np.ndarray) -> tuple[float, float]:
    """(min x, max |x|) of an iterate (0 for an empty x), checked before
    any residual is formed from it.

    An overflowed iterate would otherwise reach ``_residual`` and make
    numpy warn (inf - inf) before the solve is rejected; a NaN or an inf
    entry makes max |x| one.
    """
    if not x.size:
        return 0.0, 0.0
    lo = float(x.min())
    size = max(float(x.max()), -lo) + 0.0
    if not np.isfinite(size):
        raise SolverError("non-finite intermediate in linear solve")
    return lo, size


def _lu_solve(lu, b: np.ndarray, transpose: bool, overwrite_b: bool = False) -> np.ndarray:
    """The LU solve of a refined solve, with a ``BandLU`` or SuperLU.

    A column solve takes and returns all m entries, and may overwrite b
    when ``overwrite_b``.  The row solve takes b's first entries, past
    which it is 0, and returns the solution's up to its support
    (``BandLU.solve``); SuperLU's full-length solution is cut there too.
    """
    if isinstance(lu, BandLU):
        return lu.solve(b, "T" if transpose else "N", overwrite_b)
    if not transpose:
        return lu.solve(b)
    m = lu.shape[0]
    if b.size < m:
        b = np.concatenate((b, np.zeros(m - b.size)))
    x = lu.solve(b, trans="T")
    return x[:_support(x)]


def _solve(system, b, transpose, opts: SolverOptions) -> SolveResult:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (system.size,):
        raise ValueError(f"right-hand side must have shape ({system.size},)")
    # a NaN reaches both the min and the max
    lo, bmax = float(b.min(initial=0.0)), float(b.max(initial=0.0))
    if not (np.isfinite(lo) and np.isfinite(bmax)):
        raise ValueError("right-hand side must be finite")
    if lo < 0:
        raise ValueError("right-hand side must be non-negative")
    m = system.size
    if m == 0:
        return SolveResult(x=np.zeros(0), residual_norm=0.0, iterations=0)
    lu = _lu(system)
    if transpose:
        # the row solve holds b, x, each step and the residual up to their
        # supports (see the module docstring)
        b = b[:_support(b)]
    x = _lu_solve(lu, b, transpose)
    xlo, xmax = _extent(x)
    residual = _residual(system, x, b, transpose)
    rmax = None if transpose else _absmax(residual)
    iterations = 0
    # Iterative refinement (see the module docstring).  The row solve stops
    # after a correction at y's last bit or one that did not halve, a column
    # solve once its residual reaches the roundoff floor or stops shrinking.
    # ``residual`` always belongs to the current x: the row solve forms its
    # long-double residual once and updates it in double, a column solve
    # forms each of its own once, and its max once
    eps = np.finfo(np.float64).eps
    best = np.inf
    for _ in range(8):
        if transpose:
            step = _lu_solve(lu, residual.astype(np.float64), True)
            x_new = np.zeros(max(x.size, step.size))
            x_new[:x.size] = x
            x_new[:step.size] += step
        else:
            if rmax <= 4.0 * eps * _scale(bmax, xmax) or rmax >= 0.9 * best:
                break
            best = rmax
            # x + step in the step's buffer, the residual's own
            x_new = np.add(x, _lu_solve(lu, residual, False, overwrite_b=True), out=residual)
        xlo, xmax = _extent(x_new)
        x, residual = _move(system, x, x_new, b, residual, transpose)
        iterations += 1
        if transpose:
            size = _absmax(step)
            if size <= eps * xmax or size >= 0.5 * best:
                break
            best = size
        else:
            rmax = _absmax(residual)

    if xlo < 0.0:
        if xlo < -1e-8 * max(1.0, xmax):
            raise SolverError(f"solution significantly negative (min {xlo:.3e})")
        x, residual = _move(system, x, np.maximum(x, 0.0), b, residual, transpose)
        xmax, rmax = _absmax(x), None
    # the residual against B is within e-bar |x|_inf of that against B~
    res = (_absmax(residual) if rmax is None else rmax) + _cut(system)[2] * xmax
    cap = opts.tol * _scale(bmax, xmax)
    if res > cap:
        raise SolverError(f"residual {res:.3e} exceeds tolerance {cap:.3e}")
    if transpose and x.size < m:
        # y, the one vector of length m the row solve allocates
        y = np.zeros(m)
        y[:x.size] = x
        x = y
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
