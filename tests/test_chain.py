import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stattrunc import (
    ChainModel,
    Gm1Params,
    SparseRow,
    TruncationProblem,
    gm1_chain,
    load_chain_from_file,
    matrix_chain,
    one_step_fringe,
    random_walk_chain,
    validate_rows,
)
from stattrunc.chain import ROW_CHUNK, Reward, as_state_array, member_mask, reward_values
from stattrunc.models import _beta_table

from conftest import gm1_row_reference, stacked_rows, walk_row_reference


def test_sparse_row_round_trip():
    row = SparseRow.from_pairs([(0, 0.25), (3, 0.75)])
    assert row.entries == [(0, 0.25), (3, 0.75)]
    assert row.total() == 1.0
    assert row.issues() == []


def test_sparse_row_shape_mismatch():
    with pytest.raises(ValueError):
        SparseRow(np.array([0, 1]), np.array([1.0]))


@pytest.mark.parametrize("targets,probs,expect", [
    ([-1, 2], [0.5, 0.5], "negative target"),
    ([2, 1], [0.5, 0.5], "not strictly increasing"),
    ([1, 1], [0.5, 0.5], "not strictly increasing"),
    ([0, 1], [0.5, -0.5], "non-positive"),
    ([0, 1], [0.5, 0.4], "deviates"),
])
def test_sparse_row_issue_detection(targets, probs, expect):
    issues = SparseRow(np.array(targets), np.array(probs)).issues()
    assert any(expect in msg for msg in issues)


def test_chain_row_index_guards():
    chain = matrix_chain(np.eye(2))
    with pytest.raises(ValueError, match="non-negative"):
        chain.row(-1)
    with pytest.raises(ValueError, match="out of range"):
        chain.row(2)


def test_matrix_chain_drops_zeros():
    P = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
    chain = matrix_chain(P)
    assert chain.n_states == 3
    row = chain.row(0)
    assert row.entries == [(0, 0.5), (2, 0.5)]
    assert chain.row(1).entries == [(1, 1.0)]


def test_matrix_chain_rejects_non_square():
    with pytest.raises(ValueError):
        matrix_chain(np.ones((2, 3)))


def test_member_mask():
    sorted_states = np.array([1, 4, 7])
    vals = np.array([0, 1, 4, 5, 7, 9])
    assert member_mask(vals, sorted_states).tolist() == [False, True, True, False, True, False]
    assert not member_mask(vals, np.array([], dtype=np.int64)).any()


def test_as_state_array_normalizes():
    assert as_state_array([3, 1, 3, 2]).tolist() == [1, 2, 3]
    with pytest.raises(ValueError):
        as_state_array([1, -2])


BIG = np.iinfo(np.int64).max


@pytest.mark.parametrize("states", [
    [], [7], [5, 6, 7, 8], [0, 1, 2], [BIG - 3, BIG - 2, BIG - 1, BIG],
    [2, 5, 9], [1, 4, 7],
])
def test_member_mask_range_test_matches_isin(states):
    # a contiguous set takes the range test, the others the binary search;
    # both must give np.isin's answer below, inside, between and above
    sorted_states = np.array(states, dtype=np.int64)
    lo = states[0] if states else 0
    hi = states[-1] if states else 0
    near = {v + d for v in (lo, hi) for d in (-2, -1, 0, 1, 2)}
    vals = np.array(sorted(v for v in near | {0, 1, 3, 6, 8, 10, BIG, -BIG - 1}
                           if -BIG - 1 <= v <= BIG), dtype=np.int64)
    assert member_mask(vals, sorted_states).tolist() == np.isin(vals, sorted_states).tolist()
    assert member_mask(vals[:0], sorted_states).shape == (0,)


def _old_as_state_array(states):
    """The list round trip ``as_state_array`` had before its ndarray path."""
    arr = np.unique(np.asarray(list(states), dtype=np.int64))
    if arr.size and arr[0] < 0:
        raise ValueError("state indices must be non-negative")
    return arr


@given(st.lists(st.integers(-3, 60), max_size=30),
       st.sampled_from([np.int64, np.int32, np.uint8, np.int8, bool]))
def test_as_state_array_ndarray_path_keeps_list_results(values, dtype):
    if dtype is np.uint8:
        values = [v for v in values if v >= 0]
    arr = np.array(values, dtype=dtype)
    try:
        want = _old_as_state_array(arr).tolist()
    except ValueError as exc:
        want = exc
    for states in (arr, arr.tolist(), tuple(arr.tolist()), set(arr.tolist()), iter(arr.tolist())):
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                as_state_array(states)
        else:
            got = as_state_array(states)
            assert got.dtype == np.int64 and got.tolist() == want


def test_as_state_array_edge_inputs():
    increasing = np.array([2, 5, 9], dtype=np.int64)
    out = as_state_array(increasing)
    increasing[0] = 99                  # the result is a copy, not a view
    assert out.tolist() == [2, 5, 9]
    assert as_state_array(np.array([9, 2, 2, 5])).tolist() == [2, 5, 9]
    assert as_state_array(np.array([[2, 1], [0, 5]])).tolist() == [0, 1, 2, 5]
    assert as_state_array(np.array([1.7, 0.2])).tolist() == [0, 1]
    assert as_state_array(np.array([3, 1], dtype=np.uint64)).tolist() == [1, 3]
    assert as_state_array(range(4)).tolist() == [0, 1, 2, 3]
    for bad, err in ((np.array([4, -1]), ValueError), (np.array([-1, 4]), ValueError),
                     (np.array([np.nan]), ValueError), (np.array(4), TypeError)):
        with pytest.raises(err):
            as_state_array(bad)


def test_reward_values_batch_and_scalar_paths():
    xs = np.array([0, 3, 7])
    half = Reward(lambda xs: xs / 2.0)
    assert half(3) == 1.5
    assert reward_values(half, xs).tolist() == [0.0, 1.5, 3.5]
    assert reward_values(lambda x: x / 2.0, xs).tolist() == [0.0, 1.5, 3.5]
    assert reward_values(lambda x: 1.0, xs).tolist() == [1.0, 1.0, 1.0]
    assert reward_values(half, []).shape == (0,)


@pytest.mark.parametrize("batch_out", [np.zeros(2), np.zeros((3, 1)), np.float64(1.0)])
def test_reward_batch_of_wrong_shape_is_rejected(batch_out):
    r = Reward(lambda xs: batch_out)
    with pytest.raises(ValueError, match="batch_fn must return 3 values"):
        reward_values(r, np.array([0, 1, 2]))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("batch", [False, True])
def test_reward_values_name_the_first_bad_state(bad, batch):
    def scalar(x):
        return bad if x in (5, 8) else 1.0
    r = Reward(lambda xs: np.where((xs == 5) | (xs == 8), bad, 1.0)) if batch else scalar
    with pytest.raises(ValueError, match=rf"finite and non-negative, got r\(5\)={bad}"):
        reward_values(r, np.arange(10))
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(10), z=0, K=[0], r=r)
    assert prob.reward(4) == 1.0
    with pytest.raises(ValueError, match=r"r\(8\)"):
        prob.reward(8)


def test_truncation_problem_membership_checks(two_state):
    with pytest.raises(ValueError, match="must belong to K"):
        TruncationProblem(chain=two_state["chain"], A=[0, 1], z=0, K=[1],
                          r=two_state["r"])
    with pytest.raises(ValueError, match="subset"):
        TruncationProblem(chain=two_state["chain"], A=[0], z=0, K=[0, 1],
                          r=two_state["r"])
    prob = TruncationProblem(chain=two_state["chain"], A=[1, 0, 1], z=0, K=[0],
                             r=two_state["r"])
    assert prob.A.tolist() == [0, 1]
    with pytest.raises(ValueError, match="non-negative"):
        prob_neg = TruncationProblem(chain=two_state["chain"], A=[0, 1], z=0,
                                     K=[0], r=lambda x: -1.0)
        prob_neg.reward(0)


def test_validate_rows_flags_bad_sum():
    P = np.array([[0.5, 0.5], [0.9, 0.0]])  # second row short by 0.1
    report = validate_rows(matrix_chain(P), [0, 1])
    assert not report.passed
    assert report.checked == [0, 1]
    assert report.max_abs_deviation == pytest.approx(0.1)
    assert any(x == 1 for x, _ in report.issues)


def test_validate_rows_clean(two_state):
    report = validate_rows(two_state["chain"], [0, 1])
    assert report.passed and report.max_abs_deviation <= 1e-15


def test_one_step_fringe_walk():
    walk = random_walk_chain()
    assert one_step_fringe(walk, range(10)).tolist() == [10]


def test_one_step_fringe_full_chain_empty(uniform4):
    fringe = one_step_fringe(uniform4["chain"], range(4))
    assert fringe.dtype == np.int64 and fringe.size == 0


@given(st.integers(0, 2**31 - 1), st.integers(2, 12))
def test_random_rows_validate(seed, n):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n)
    report = validate_rows(matrix_chain(P), range(n))
    assert report.passed


def assert_rows_match_row(chain, row_of, xs):
    """``chain.rows(xs)`` against the per-state reference ``row_of``, stacked."""
    got = chain.rows(np.asarray(xs, dtype=np.int64))
    for g, one, want in zip(got, stacked_rows(chain.row, xs), stacked_rows(row_of, xs)):
        assert g.dtype == want.dtype
        assert np.array_equal(g, want) and np.array_equal(one, want)


def gm1_cut(c):
    """First x whose row has no tail mass P(x, 0): tail[x + 1] == 0."""
    return _beta_table(c)[0].size - 1


@settings(max_examples=60)
@given(st.sampled_from([2.01, 0.5, 7.0]), st.data())
def test_gm1_rows_match_row(c, data):
    cut = gm1_cut(c)
    chain = gm1_chain(Gm1Params(c=c))
    assert chain.row(cut).targets[0] > 0 and chain.row(cut - 1).targets[0] == 0
    near = st.one_of(st.just(0), st.integers(0, 5), st.integers(cut - 3, cut + 3),
                     st.integers(0, 3 * cut))
    assert_rows_match_row(chain, lambda x: gm1_row_reference(x, c),
                          data.draw(st.lists(near, max_size=25)))


@pytest.mark.parametrize("c", [0.5, 2.01, 7.0])
@pytest.mark.parametrize("batch", ["past-cut", "straddle", "shuffled"])
def test_gm1_rows_match_row_on_full_chunks(c, batch):
    # a whole ROW_CHUNK of states: past the cut every row is the broadcast
    # band; a batch with states below the cut takes the per-entry path
    cut = gm1_cut(c)
    if batch == "past-cut":
        xs = np.arange(cut, cut + ROW_CHUNK)
    elif batch == "straddle":
        xs = np.arange(cut - 100, cut - 100 + ROW_CHUNK)
    else:
        rng = np.random.default_rng(7)
        xs = rng.permutation(np.concatenate([np.arange(cut + 5, cut + 500)] * 2
                                            + [rng.integers(0, 3 * cut, 34)]))
    assert xs.size >= ROW_CHUNK and (xs.min() >= cut) == (batch == "past-cut")
    assert_rows_match_row(gm1_chain(Gm1Params(c=c)), lambda x: gm1_row_reference(x, c), xs)


@given(st.lists(st.one_of(st.just(0), st.integers(0, 10**6)), max_size=25))
def test_random_walk_rows_match_row(xs):
    assert_rows_match_row(random_walk_chain(), walk_row_reference, xs)


@pytest.fixture(scope="module")
def file_chain(tmp_path_factory):
    rng = np.random.default_rng(3)
    n = 40
    path = tmp_path_factory.mktemp("chains") / "chain.txt"
    lines = [f"states {n}"]
    rows = {}
    for x in rng.permutation(n):  # rows listed out of order
        targets = rng.choice(n, size=rng.integers(1, 6), replace=False)
        probs = rng.dirichlet(np.ones(targets.size))
        for t, p in zip(targets, probs):
            lines.append(f"{x} {t} {float(p)!r}")
        order = np.argsort(targets)
        rows[int(x)] = SparseRow(targets[order], probs[order])
    path.write_text("\n".join(lines) + "\n")
    return load_chain_from_file(str(path)), rows


@given(st.lists(st.integers(0, 39), max_size=60))
def test_file_chain_rows_match_row(file_chain, xs):
    chain, rows = file_chain
    assert_rows_match_row(chain, rows.__getitem__, xs)


@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.data())
def test_matrix_chain_rows_match_row(seed, n, data):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.5)
    P[np.arange(n), rng.integers(0, n, size=n)] += 0.5  # no empty row
    P /= P.sum(axis=1, keepdims=True)
    chain = matrix_chain(P)
    assert_rows_match_row(chain, lambda x: SparseRow(np.flatnonzero(P[x]), P[x][P[x] != 0]),
                          data.draw(st.lists(st.integers(0, n - 1), max_size=30)))


def test_rows_fallback_stacks_row_fn():
    walk = random_walk_chain()
    plain = ChainModel(row_fn=walk_row_reference, description="walk without rows_fn")
    xs = [0, 5, 0, 9]
    for g, want in zip(plain.rows(xs), walk.rows(xs)):
        assert np.array_equal(g, want)
    empty = plain.rows([])
    assert empty[0].tolist() == [0] and empty[1].size == empty[2].size == 0


def test_rows_index_guards_and_shape_check():
    chain = matrix_chain(np.eye(3))
    with pytest.raises(ValueError, match="non-negative"):
        chain.rows([0, -1])
    with pytest.raises(ValueError, match="out of range"):
        chain.rows([1, 3])
    short = ChainModel(description="bad batch",
                       rows_fn=lambda xs: (np.array([0, 1]), np.array([0]), np.array([1.0])))
    with pytest.raises(ValueError, match="CSR"):
        short.rows([0, 1])
    with pytest.raises(ValueError, match="needs rows_fn or row_fn"):
        ChainModel(description="no rows")


def test_one_step_fringe_spans_row_chunks():
    walk = random_walk_chain()
    A = [x for x in range(3 * ROW_CHUNK) if x % 500 != 7]
    holes = [x for x in range(3 * ROW_CHUNK) if x % 500 == 7]
    assert one_step_fringe(walk, A).tolist() == holes + [3 * ROW_CHUNK]
    gm1 = gm1_chain()
    assert one_step_fringe(gm1, range(50)).tolist() == [50]
