"""Sparse Markov chain abstraction over integer-encoded state spaces.

States are non-negative integers; a chain is anything that can produce the
sparse transition rows of given states on demand.  Rows must have finite
support, which keeps exit masses and tail sums exactly computable.  An
infinite chain may also declare a translation-invariant tail: from a
level x0 on, every row is the same jumps with the same probabilities
(``ChainTail``), so those rows need neither generating nor storing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: the one bound on |row sum - 1| a transition row must meet.  Model
#: coefficients are computed in floating point, so exact unity is
#: unattainable
ROW_SUM_TOL = 1e-10

#: states per ``ChainModel.rows`` call in ``ChainModel.row_chunks``; bounds
#: the temporaries of a batch (a G/M/1 row has ~200 entries)
ROW_CHUNK = 1024

StateIndex = int
RewardFn = Callable[[StateIndex], float]


@dataclass(frozen=True)
class SparseRow:
    """One transition row P(x, .) with zero entries omitted.

    The constructor checks only that targets and probs are 1-d arrays of
    equal length.  ``ChainModel.rows`` checks the rest of the row
    contract (see ``ChainModel``) on every row it returns.
    """

    targets: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.targets.shape != self.probs.shape or self.targets.ndim != 1:
            raise ValueError("targets and probs must be 1-d arrays of equal length")

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(t), float(p)) for t, p in zip(self.targets, self.probs)]


#: rows(xs) result in CSR form: row i is targets/probs[indptr[i]:indptr[i+1]]
RowBatch = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ChainTail:
    """The rows of every state x >= ``x0``: ``probs[k]`` at ``x + jumps[k]``.

    ``jumps`` are integers and ``probs`` their probabilities, 1-d and of
    equal length.  ``ChainModel`` checks them against the row contract
    once, when the chain is built.
    """

    x0: int
    jumps: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", int(self.x0))
        object.__setattr__(self, "jumps", np.asarray(self.jumps, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.jumps.shape != self.probs.shape or self.jumps.ndim != 1:
            raise ValueError("tail jumps and probs must be 1-d arrays of equal length")


@dataclass(frozen=True, kw_only=True)
class ChainModel:
    """A Markov chain given by on-demand sparse row access.

    ``rows_fn`` is the contract: it returns the rows of a whole int64
    state array at once in CSR form (see :meth:`rows`).  A user chain
    may give the per-state form ``row_fn(x) -> SparseRow`` instead, and
    ``rows`` then stacks it.  Either must be deterministic: repeated
    calls for the same state return identical rows.  ``n_states`` is set
    for finite chains and left ``None`` for countably infinite ones.

    Every row must be a probability row: non-empty, targets non-negative
    and strictly increasing, every probability > 0, and a sum within
    ``ROW_SUM_TOL`` of 1.  ``rows`` checks this on every row it returns,
    so the rows the bounds rely on (B non-negative and substochastic)
    are checked exactly once, whichever form the chain gives.

    An infinite chain may declare a ``tail`` (a ``ChainTail`` or a tuple
    ``(x0, jumps, probs)``): the rows of all states >= x0.  ``rows`` then
    answers those states from the tail, and asks ``rows_fn`` or
    ``row_fn`` only for the head, the states below x0.  The tail is one
    row shifted, so the row contract is checked on it once, here, at x0:
    a row that passes at x0 passes at every larger state.
    """

    row_fn: Callable[[StateIndex], SparseRow] | None = None
    description: str
    n_states: int | None = None
    rows_fn: Callable[[np.ndarray], RowBatch] | None = None
    tail: ChainTail | None = None

    def __post_init__(self):
        if self.tail is not None:
            self._check_tail()
        if self.rows_fn is None and self.row_fn is None \
                and (self.tail is None or self.tail.x0 > 0):
            raise ValueError(f"chain {self.description!r} needs rows_fn or row_fn")

    def _check_tail(self) -> None:
        try:
            tail = self.tail if isinstance(self.tail, ChainTail) else ChainTail(*self.tail)
            object.__setattr__(self, "tail", tail)
            if self.n_states is not None:
                raise ValueError("a finite chain has no tail")
            if tail.x0 < 0:
                raise ValueError(f"x0 must be non-negative, got {tail.x0}")
            _check_rows(np.array([tail.x0]), np.array([0, tail.jumps.size]),
                        tail.x0 + tail.jumps, tail.probs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"tail of chain {self.description!r}: {exc}") from exc

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
        ``probs`` alongside.  States in the tail are answered from it;
        the others from ``rows_fn`` when the chain has one, else by
        stacking ``row_fn``.  The first head state, in batch order, whose
        row breaks the row contract is named in a ``ValueError``.
        """
        xs = np.asarray(xs, dtype=np.int64).reshape(-1)
        if xs.size:
            self._check_states(int(xs.min()), int(xs.max()))
        if self.tail is None:
            return self._head_rows(xs)
        in_tail = xs >= self.tail.x0
        if in_tail.all():
            return self._tail_rows(xs)
        if not in_tail.any():
            return self._head_rows(xs)
        parts = []
        for rows, batch_rows in ((~in_tail, self._head_rows), (in_tail, self._tail_rows)):
            ptr, targets, probs = batch_rows(xs[rows])
            parts.append((np.flatnonzero(rows), np.diff(ptr), targets, probs))
        return merge_rows(xs.size, parts)

    def _tail_rows(self, xs: np.ndarray) -> RowBatch:
        """``rows`` of states in the tail: one broadcast, checked at x0."""
        jumps, probs = self.tail.jumps, self.tail.probs
        return (np.arange(0, (xs.size + 1) * jumps.size, jumps.size, dtype=np.int64),
                (xs[:, None] + jumps).ravel(), np.tile(probs, xs.size))

    def _head_rows(self, xs: np.ndarray) -> RowBatch:
        """``rows`` of states below the tail, from ``rows_fn`` or ``row_fn``."""
        if self.rows_fn is None:
            indptr, targets, probs = _stack_rows([self.row_fn(x) for x in xs.tolist()])
        else:
            indptr, targets, probs = self.rows_fn(xs)
            indptr = np.asarray(indptr, dtype=np.int64)
            targets = np.asarray(targets, dtype=np.int64)
            probs = np.asarray(probs, dtype=np.float64)
            if (indptr.shape != (xs.size + 1,) or indptr[0] != 0
                    or not targets.shape == probs.shape == (indptr[-1],)):
                raise ValueError("rows_fn must return CSR arrays (indptr, targets, probs) "
                                 f"for {xs.size} states")
        _check_rows(xs, indptr, targets, probs)
        return indptr, targets, probs

    def row_chunks(self, xs: np.ndarray):
        """Scan the rows of the int64 states ``xs`` in chunks of ``ROW_CHUNK``.

        Yields ``(start, chunk, indptr, targets, probs)``: ``chunk`` is
        ``xs[start:start + ROW_CHUNK]`` and the rest is ``rows(chunk)``.
        """
        for start in range(0, xs.size, ROW_CHUNK):
            chunk = xs[start:start + ROW_CHUNK]
            yield (start, chunk, *self.rows(chunk))


def _check_rows(xs: np.ndarray, indptr: np.ndarray, targets: np.ndarray,
                probs: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first of ``xs`` whose CSR row breaks
    the row contract of ``ChainModel``."""
    # an entry is good when its probability is > 0 (NaN is not) and its
    # target exceeds the one before it, or, first in its row, is >= 0
    good = probs > 0.0
    good[1:] &= targets[1:] > targets[:-1]
    nonempty = indptr[:-1] < indptr[1:]
    heads = indptr[:-1][nonempty]
    good[heads] = (probs[heads] > 0.0) & (targets[heads] >= 0)
    dev = np.zeros(xs.size)
    dev[nonempty] = np.abs(np.add.reduceat(probs, heads) - 1.0)
    bad = ~nonempty | (dev > ROW_SUM_TOL)
    if good.all() and not bad.any():
        return
    bad[np.searchsorted(indptr, np.flatnonzero(~good), side="right") - 1] = True
    i = int(np.argmax(bad))
    t, p = targets[indptr[i]:indptr[i + 1]], probs[indptr[i]:indptr[i + 1]]
    if not t.size:
        fault = "is empty"
    elif not (t[1:] > t[:-1]).all():
        fault = "has targets that are not strictly increasing"
    elif t[0] < 0:
        fault = f"has a negative target {t[0]}"
    elif not (p > 0.0).all():
        j = int(np.argmin(p > 0.0))
        fault = f"has a non-positive or NaN probability {p[j]} at target {t[j]}"
    else:
        fault = f"sums off by {dev[i]:.3e}"
    raise ValueError(f"row of state {xs[i]} {fault}")


def merge_rows(n: int, parts) -> RowBatch:
    """CSR form ``(indptr, targets, probs)`` of n rows given in parts.

    Each part is ``(rows, counts, targets, probs)``: row ``rows[i]`` holds
    the part's next ``counts[i]`` entries, in order.  No row takes entries
    from two parts.
    """
    counts = np.zeros(n, dtype=np.int64)
    for rows, cnt, _, _ in parts:
        counts[rows] += cnt
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    targets, probs = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    for rows, cnt, t, p in parts:
        pos = np.repeat(indptr[rows] - (np.cumsum(cnt) - cnt), cnt) + np.arange(t.size)
        targets[pos], probs[pos] = t, p
    return indptr, targets, probs


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


def one_step_fringe(chain: ChainModel, A: Iterable[StateIndex]) -> np.ndarray:
    """States outside A reachable from A in one step with positive probability.

    Returned as a sorted int64 array.  When A is a range lo..hi and the
    chain has a tail, the tail rows of A are not read: for each jump j,
    their targets are the range [max(lo, x0) + j, hi + j], and the fringe
    is those ranges outside A.  Only A's other rows are read.
    """
    A_arr = as_state_array(A)
    found = [np.zeros(0, dtype=np.int64)]
    read, tail = A_arr, chain.tail
    if tail is not None and is_contiguous(A_arr):
        lo, hi = int(A_arr[0]), int(A_arr[-1])
        first = max(lo, tail.x0)
        if first <= hi:
            read = A_arr[:first - lo]
            starts, ends = first + tail.jumps, hi + tail.jumps
            # the parts below and above A, each a union of ranges marked
            # on a span no longer than the tail's reach
            for a, b in ((starts, np.minimum(ends, lo - 1)), (np.maximum(starts, hi + 1), ends)):
                a, b = a[a <= b], b[a <= b]
                if a.size:
                    base = int(a.min())
                    cover = np.zeros(int(b.max()) - base + 2, dtype=np.int64)
                    np.add.at(cover, a - base, 1)
                    np.add.at(cover, b - base + 1, -1)
                    found.append(base + np.flatnonzero(np.cumsum(cover[:-1])))
    for _, _, _, targets, _ in chain.row_chunks(read):
        found.append(np.unique(targets[~member_mask(targets, A_arr)]))
    return np.unique(np.concatenate(found))
