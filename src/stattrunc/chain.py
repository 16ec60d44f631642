"""Sparse Markov chain abstraction over integer-encoded state spaces.

States are non-negative integers; a chain is anything that can produce the
sparse transition rows of given states on demand.  Rows must have finite
support, which keeps exit masses and tail sums exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# Default tolerance for |row sum - 1|.  Model coefficients are computed in
# floating point, so exact unity is unattainable.
ROW_SUM_TOL = 1e-12

#: states per ``ChainModel.rows`` call in ``ChainModel.row_chunks``; bounds
#: the temporaries of a batch (a G/M/1 row has ~200 entries)
ROW_CHUNK = 1024

StateIndex = int
RewardFn = Callable[[StateIndex], float]


@dataclass(frozen=True)
class SparseRow:
    """One transition row P(x, .) with zero entries omitted.

    A well-formed row has strictly increasing targets, strictly positive
    probabilities and a total mass of 1 (within ``ROW_SUM_TOL``).  The
    constructor does not enforce this so that malformed rows can be built
    and then reported by :func:`validate_rows`.
    """

    targets: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.targets.shape != self.probs.shape or self.targets.ndim != 1:
            raise ValueError("targets and probs must be 1-d arrays of equal length")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[StateIndex, float]]) -> "SparseRow":
        pairs = list(pairs)
        targets = [t for t, _ in pairs]
        probs = [p for _, p in pairs]
        return cls(np.array(targets, dtype=np.int64), np.array(probs, dtype=np.float64))

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(t), float(p)) for t, p in zip(self.targets, self.probs)]

    def total(self) -> float:
        return float(self.probs.sum())

    def issues(self, tol: float = ROW_SUM_TOL) -> list[str]:
        """Return human-readable descriptions of invariant violations."""
        problems = []
        if self.targets.size and np.any(self.targets < 0):
            problems.append("negative target state")
        if self.targets.size and np.any(np.diff(self.targets) <= 0):
            problems.append("targets not strictly increasing (duplicate or unsorted)")
        if self.probs.size and np.any(self.probs <= 0.0):
            problems.append("non-positive probability entry")
        dev = abs(self.total() - 1.0)
        if dev > tol:
            problems.append(f"row sum deviates from 1 by {dev:.3e}")
        return problems


#: rows(xs) result in CSR form: row i is targets/probs[indptr[i]:indptr[i+1]]
RowBatch = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True, kw_only=True)
class ChainModel:
    """A Markov chain given by on-demand sparse row access.

    ``rows_fn`` is the contract: it returns the rows of a whole int64
    state array at once in CSR form (see :meth:`rows`).  A user chain
    may give the per-state form ``row_fn(x) -> SparseRow`` instead, and
    ``rows`` then stacks it.  Either must be deterministic: repeated
    calls for the same state return identical rows.  ``n_states`` is set
    for finite chains and left ``None`` for countably infinite ones.
    """

    row_fn: Callable[[StateIndex], SparseRow] | None = None
    description: str
    n_states: int | None = None
    rows_fn: Callable[[np.ndarray], RowBatch] | None = None

    def __post_init__(self):
        if self.rows_fn is None and self.row_fn is None:
            raise ValueError(f"chain {self.description!r} needs rows_fn or row_fn")

    def _check_states(self, lo: int, hi: int) -> None:
        if lo < 0:
            raise ValueError(f"state index must be non-negative, got {lo}")
        if self.n_states is not None and hi >= self.n_states:
            raise ValueError(
                f"state {hi} out of range for finite chain with {self.n_states} states")

    def row(self, x: StateIndex) -> SparseRow:
        """Row of the one state ``x``: a view of ``rows([x])``."""
        _, targets, probs = self.rows([x])
        return SparseRow(targets, probs)

    def rows(self, xs) -> RowBatch:
        """Rows of the states ``xs`` as ``(indptr, targets, probs)``.

        Row i of the batch is ``targets[indptr[i]:indptr[i+1]]`` with
        ``probs`` alongside.  Uses ``rows_fn`` when the chain has one,
        else stacks ``row_fn``.
        """
        xs = np.asarray(xs, dtype=np.int64).reshape(-1)
        if xs.size:
            self._check_states(int(xs.min()), int(xs.max()))
        if self.rows_fn is None:
            return _stack_rows([self.row_fn(x) for x in xs.tolist()])
        indptr, targets, probs = self.rows_fn(xs)
        indptr = np.asarray(indptr, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if (indptr.shape != (xs.size + 1,) or indptr[0] != 0
                or not targets.shape == probs.shape == (indptr[-1],)):
            raise ValueError("rows_fn must return CSR arrays (indptr, targets, probs) "
                             f"for {xs.size} states")
        return indptr, targets, probs

    def row_chunks(self, xs: np.ndarray):
        """Scan the rows of the int64 states ``xs`` in chunks of ``ROW_CHUNK``.

        Yields ``(start, chunk, indptr, targets, probs)``: ``chunk`` is
        ``xs[start:start + ROW_CHUNK]`` and the rest is ``rows(chunk)``.
        """
        for start in range(0, xs.size, ROW_CHUNK):
            chunk = xs[start:start + ROW_CHUNK]
            yield (start, chunk, *self.rows(chunk))


def _stack_rows(rows: Sequence[SparseRow]) -> RowBatch:
    """CSR form ``(indptr, targets, probs)`` of a list of rows."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.targets.size for r in rows], out=indptr[1:])
    if not rows:
        return indptr, np.zeros(0, dtype=np.int64), np.zeros(0)
    return (indptr, np.concatenate([r.targets for r in rows]),
            np.concatenate([r.probs for r in rows]))


def csr_chain(indptr: np.ndarray, targets: np.ndarray, probs: np.ndarray,
              description: str) -> ChainModel:
    """Finite chain whose rows are stored once as CSR arrays.

    ``rows`` gathers from the arrays, so it gives the stored entries
    unchanged.
    """
    def rows_fn(xs: np.ndarray) -> RowBatch:
        starts = indptr[xs]
        counts = indptr[xs + 1] - starts
        out = np.zeros(xs.size + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        src = np.repeat(starts - out[:-1], counts) + np.arange(out[-1])
        return out, targets[src], probs[src]

    return ChainModel(description=description, n_states=indptr.size - 1, rows_fn=rows_fn)


def matrix_chain(P: np.ndarray, description: str = "dense matrix chain") -> ChainModel:
    """Wrap a dense row-stochastic matrix as a ChainModel (zeros dropped)."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    src, dst = np.nonzero(P != 0.0)
    indptr = np.zeros(P.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=P.shape[0]), out=indptr[1:])
    return csr_chain(indptr, dst.astype(np.int64), P[src, dst], description)


def is_contiguous(sorted_states: np.ndarray) -> bool:
    """Whether a sorted, duplicate-free integer array is a range lo..hi."""
    return bool(sorted_states.size) and \
        int(sorted_states[-1]) - int(sorted_states[0]) == sorted_states.size - 1


def member_mask(values: np.ndarray, sorted_states: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``values`` occur in the sorted array ``sorted_states``.

    ``sorted_states`` must be sorted and duplicate-free.  When it is a
    range of integers and ``values`` are integers too, membership is the
    range test lo <= v <= hi; otherwise a binary search.
    """
    if sorted_states.size == 0:
        return np.zeros(values.shape, dtype=bool)
    if values.dtype.kind == "i" and is_contiguous(sorted_states):
        return (values >= sorted_states[0]) & (values <= sorted_states[-1])
    idx = np.searchsorted(sorted_states, values)
    idx_c = np.minimum(idx, sorted_states.size - 1)
    return (idx < sorted_states.size) & (sorted_states[idx_c] == values)


def as_state_array(states: Iterable[StateIndex]) -> np.ndarray:
    """Normalize a collection of states to a sorted, duplicate-free int64 array.

    A 1-d integer ndarray is converted in one copy, and sorted only when
    it is not already strictly increasing.
    """
    if isinstance(states, np.ndarray) and states.ndim == 1 \
            and np.can_cast(states.dtype, np.int64):
        arr = states.astype(np.int64)
        if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
            arr = np.unique(arr)
    else:
        arr = np.unique(np.asarray(list(states), dtype=np.int64))
    if arr.size and arr[0] < 0:
        raise ValueError("state indices must be non-negative")
    return arr


@dataclass(frozen=True)
class Reward:
    """A function of states, r(x) or a drift function g_i(x), in array form.

    ``batch_fn`` maps an int64 state array to the float64 values at all
    of them at once.  Calling a ``Reward`` on one state evaluates a
    one-state batch, so code that reads one state at a time takes it
    unchanged; ``reward_values`` evaluates many, checked.
    """

    batch_fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: StateIndex) -> float:
        return float(self.batch_fn(np.array([x], dtype=np.int64))[0])


def reward_values(r: RewardFn | Reward, xs, name: str = "r") -> np.ndarray:
    """Values of the state function ``r`` at the states ``xs``, as float64.

    A ``Reward`` is evaluated on the whole array; any other callable is
    called once per state.  Every value must be finite and non-negative;
    the first state whose value is not is named in the ``ValueError``, as
    ``name(x)=value``.
    """
    xs = np.asarray(xs, dtype=np.int64).reshape(-1)
    if isinstance(r, Reward):
        vals = np.asarray(r.batch_fn(xs), dtype=np.float64)
        if vals.shape != xs.shape:
            raise ValueError(f"{name} batch_fn must return {xs.size} values, "
                             f"got shape {vals.shape}")
    else:
        vals = np.array([float(r(x)) for x in xs.tolist()], dtype=np.float64)
    bad = ~(np.isfinite(vals) & (vals >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} must be finite and non-negative, "
                         f"got {name}({xs[i]})={vals[i]}")
    return vals


@dataclass(frozen=True)
class TruncationProblem:
    """Bundle (chain, A, z, K, r) defining one bound computation.

    ``A`` is the finite truncation set, ``z`` the regeneration state and
    ``K`` the finite set on whose complement the Lyapunov drift holds.
    Requires z in K and K a subset of A.  The reward ``r`` (a plain
    callable or a ``Reward``) must be finite and non-negative on every
    state it is queried at.
    """

    chain: ChainModel
    A: np.ndarray
    z: StateIndex
    K: np.ndarray
    r: RewardFn | Reward

    def __post_init__(self):
        object.__setattr__(self, "A", as_state_array(self.A))
        object.__setattr__(self, "K", as_state_array(self.K))
        if not member_mask(np.array([self.z]), self.K)[0]:
            raise ValueError(f"regeneration state z={self.z} must belong to K")
        if not member_mask(self.K, self.A).all():
            raise ValueError("K must be a subset of the truncation set A")

    def reward(self, x: StateIndex) -> float:
        return float(self.rewards([x])[0])

    def rewards(self, xs) -> np.ndarray:
        """Checked rewards of the states ``xs`` (see ``reward_values``)."""
        return reward_values(self.r, xs)


@dataclass
class ValidationReport:
    """Outcome of row validation over a finite set of states."""

    checked: list[int] = field(default_factory=list)
    deviations: dict[int, float] = field(default_factory=dict)
    issues: list[tuple[int, str]] = field(default_factory=list)

    @property
    def max_abs_deviation(self) -> float:
        return max(self.deviations.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return not self.issues


def validate_rows(chain: ChainModel, states: Iterable[StateIndex],
                  tol: float = ROW_SUM_TOL) -> ValidationReport:
    """Check SparseRow invariants for every state in a finite set.

    Failures are reported, not raised, so that deliberately malformed
    inputs can be inspected.
    """
    report = ValidationReport()
    for x in sorted(set(int(s) for s in states)):
        row = chain.row(x)
        report.checked.append(x)
        report.deviations[x] = abs(row.total() - 1.0)
        for msg in row.issues(tol):
            report.issues.append((x, msg))
    return report


def one_step_fringe(chain: ChainModel, A: Iterable[StateIndex]) -> np.ndarray:
    """States outside A reachable from A in one step with positive probability.

    Returned as a sorted int64 array.
    """
    A_arr = as_state_array(A)
    found = [np.zeros(0, dtype=np.int64)]
    for _, _, _, targets, _ in chain.row_chunks(A_arr):
        found.append(np.unique(targets[~member_mask(targets, A_arr)]))
    return np.unique(np.concatenate(found))
