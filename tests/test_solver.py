import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import stattrunc.chain as chain_module
import stattrunc.solver as solver_module
from stattrunc import (
    AssemblyError,
    ChainModel,
    LyapunovCertificate,
    PipelineError,
    Reward,
    SolverError,
    TruncationProblem,
    assemble_truncated_system,
    SparseRow,
    gm1_beta_coeffs,
    Gm1Params,
    gm1_certificate,
    gm1_chain,
    matrix_chain,
    random_walk_chain,
    run_pipeline,
    solve,
    solve_transpose,
    tight_certificate,
)
from stattrunc.chain import ROW_CHUNK, member_mask
from stattrunc.models import random_walk_rows

from conftest import expected_g, gm1_row_reference, walk_row_reference

ZERO_CERT = LyapunovCertificate(g1=lambda x: 0.0, g2=lambda x: 0.0)


def walk_system(a: int):
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(a), z=0,
                             K=[0], r=lambda x: x / 2.0)
    return assemble_truncated_system(prob, LyapunovCertificate(
        g1=lambda x: float(x) ** 2, g2=lambda x: float(x) ** 2))


def test_two_state_assembly(two_state):
    prob = TruncationProblem(chain=two_state["chain"], A=[0, 1], z=0, K=[0],
                             r=two_state["r"])
    sys_ = assemble_truncated_system(prob, ZERO_CERT)
    assert sys_.Aprime.tolist() == [1]
    assert sys_.B.toarray().tolist() == [[0.0]]
    assert sys_.nu.tolist() == [0.5]
    assert sys_.p.tolist() == [1.0]
    assert sys_.q.tolist() == [0.0]
    assert sys_.P_zz == 0.5
    assert sys_.r_vec.tolist() == [1.0]
    assert solve(sys_, sys_.p + sys_.q).x.tolist() == [1.0]


def test_walk_assembly_escape_mass():
    sys_ = walk_system(10)
    # only the top state can leave A = {0..9}, with the upward third
    assert sys_.Aprime.tolist() == list(range(1, 10))
    np.testing.assert_allclose(sys_.q[:-1], 0.0)
    assert sys_.q[-1] == pytest.approx(1.0 / 3.0)
    row_sums = np.asarray(sys_.B.sum(axis=1)).ravel() + sys_.p + sys_.q
    np.testing.assert_allclose(row_sums, 1.0, atol=1e-15)
    # exit bounds follow from g(x) = x^2 at the landing state 10
    assert sys_.h1[-1] == pytest.approx(100.0 / 3.0)


def test_gm1_assembly_exact_mode():
    a = 50
    prob = TruncationProblem(chain=gm1_chain(), A=np.arange(a), z=0, K=[0],
                             r=lambda x: float(x))
    sys_ = assemble_truncated_system(prob, ZERO_CERT)
    beta0 = gm1_beta_coeffs(Gm1Params())[0]
    # upward jumps go one step at a time, so only x = a-1 escapes
    nz = np.nonzero(sys_.q)[0]
    assert sys_.Aprime[nz].tolist() == [a - 1]
    assert sys_.q[nz[0]] == pytest.approx(beta0, rel=1e-14)
    assert solve(sys_, sys_.p + sys_.q).x == pytest.approx(np.ones(a - 1), abs=1e-10)


def test_gamblers_ruin_hitting_probabilities():
    """Solving against the exit column p reproduces the ruin formula."""
    sys_ = walk_system(10)
    x = solve(sys_, sys_.p).x
    for j in range(1, 10):
        expect = 1.0 - (2.0 ** j - 1.0) / (2.0 ** 10 - 1.0)
        assert x[j - 1] == pytest.approx(expect, abs=1e-12)


def test_transpose_matches_adjoint_identity():
    sys_ = walk_system(40)
    rng = np.random.default_rng(5)
    b = rng.uniform(0.0, 3.0, size=sys_.size)
    y = solve_transpose(sys_).x
    assert float(y @ b) == pytest.approx(float(sys_.nu @ solve(sys_, b).x), rel=1e-11)


def test_direct_unreachable_tolerance_raises():
    sys_ = walk_system(30)
    with pytest.raises(SolverError, match="exceeds tolerance"):
        solve(sys_, sys_.p, tol=1e-30)


def test_residual_certificate_is_scale_relative():
    # right-hand sides of size ~1e6 cannot meet an absolute 1e-12 residual,
    # but the certified relative residual must still hold
    sys_ = walk_system(500)
    b = sys_.h2 + 1.0
    res = solve(sys_, b)
    scale = max(1.0, float(np.abs(b).max()), float(np.abs(res.x).max()))
    assert scale > 1e4
    assert res.residual_norm <= 1e-12 * scale


def test_each_residual_is_evaluated_once(monkeypatch):
    # one residual per iterate: the first LU solve and each refinement step;
    # a dense random chain, on which these solves do refine
    rng = np.random.default_rng(5)
    P = rng.uniform(size=(150, 150)) ** 4
    P /= P.sum(axis=1, keepdims=True)
    prob = TruncationProblem(chain=matrix_chain(P), A=np.arange(150), z=0, K=[0],
                             r=lambda x: 1.0)
    sys_ = assemble_truncated_system(prob, ZERO_CERT)
    calls = []
    orig = solver_module._residual

    def counting(system, x, b, transpose):
        calls.append(transpose)
        return orig(system, x, b, transpose)

    monkeypatch.setattr(solver_module, "_residual", counting)
    steps = []
    for transpose in (False, True):
        for b in (sys_.p, np.ones(sys_.size)):
            calls.clear()
            res = solve_transpose(sys_, b=b) if transpose else solve(sys_, b)
            assert calls == [transpose] * (res.iterations + 1)
            steps.append(res.iterations)
    assert max(steps) >= 1


def test_rhs_validation():
    sys_ = walk_system(10)
    with pytest.raises(ValueError, match="shape"):
        solve(sys_, np.ones(3))
    with pytest.raises(ValueError, match="non-negative"):
        solve(sys_, -np.ones(sys_.size))
    with pytest.raises(ValueError, match="finite"):
        solve(sys_, np.full(sys_.size, np.nan))
    with pytest.raises(ValueError, match="tol"):
        solve(sys_, sys_.p, tol=0.0)


@pytest.mark.parametrize("transpose", [False, True])
def test_overflowing_solve_raises_without_numpy_warnings(transpose):
    """A right-hand side of 1e308 overflows the first LU solve.  The solve
    must stop at that iterate, before a residual formed from inf can make
    numpy warn."""
    sys_ = walk_system(100)
    b = np.full(sys_.size, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite intermediate"):
            solve_transpose(sys_, b=b) if transpose else solve(sys_, b)


def gm1_system(a: int):
    prob = TruncationProblem(chain=gm1_chain(), A=np.arange(a + 1), z=0,
                             K=np.arange(201), r=float)
    return assemble_truncated_system(prob, gm1_certificate())


def test_state_order_factor_is_unpivoted_with_band_fill():
    """I - B is a nonsingular M-matrix, so its LU in state order takes
    every diagonal pivot, and L + U fill exactly the band of I - B (L's unit
    diagonal stored too): lower bandwidth 195 and upper 1 on gm1."""
    sys_ = gm1_system(2000)
    lu = solver_module._lu(sys_)
    m = sys_.size
    assert np.array_equal(lu.perm_r, np.arange(m))
    assert np.array_equal(lu.perm_c, np.arange(m))
    B = sys_.B.tocoo()
    lower, upper = int((B.row - B.col).max()), int((B.col - B.row).max())
    assert (lower, upper) == (195, 1)
    band = sum(m - abs(k) for k in range(-upper, lower + 1))
    assert lu.L.nnz + lu.U.nnz == band + m


@pytest.mark.parametrize("model", ["gm1", "walk"])
def test_factor_is_that_of_identity_minus_B_and_B_transposed_is_kept(model):
    # gm1 stores every diagonal entry of B, so its transposed copy of B is
    # turned into I - B for the factorization and back; the walk's B has
    # no diagonal entry, so I - B is a second array
    sys_ = gm1_system(600) if model == "gm1" else walk_system(600)
    assert np.all(sys_.B.diagonal() > 0) == (model == "gm1")
    lu = solver_module._lu(sys_)
    want = spla.splu((sp.identity(sys_.size, format="csr") - sys_.B).tocsc(),
                     permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1)
    Bt = sys_._cache["Bt"]
    for got, ref in ((lu.L, want.L), (lu.U, want.U), (Bt, sys_.B.T.tocsr())):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name


@pytest.mark.parametrize("block", [1, 150, solver_module.LD_BLOCK])
def test_transpose_residual_matches_a_long_double_copy_of_B(monkeypatch, block):
    # blocks of whole rows of B^T, one row each once a row outgrows the
    # block, give the bits of one product with a long-double copy of B
    monkeypatch.setattr(solver_module, "LD_BLOCK", block)
    for sys_ in (gm1_system(600), walk_system(600)):
        x = solve_transpose(sys_).x
        x_ld = x.astype(np.longdouble)
        want = sys_.nu.astype(np.longdouble) - (x_ld - sys_.B.astype(np.longdouble).T @ x_ld)
        got = solver_module._residual(sys_, x, sys_.nu, True)
        assert got.dtype == np.longdouble and np.array_equal(got, want)


def test_gm1_center_is_refined_to_the_stored_chain_mean():
    """At A = {0..9999} the center pi~(r) is within 1e-14 of the mean of the
    double-precision gm1 chain, 133.16712406453872 (perfbench/README.md).
    The unrefined row solve misses it by ~1.5e-12 relative."""
    prob = TruncationProblem(chain=gm1_chain(), A=np.arange(10000), z=0,
                             K=np.arange(201), r=float)
    rep = run_pipeline(prob, gm1_certificate())
    assert rep.pi_tilde_r == pytest.approx(133.16712406453872, rel=1e-14, abs=0)


def test_row_solve_matches_refinement_against_a_colamd_factor():
    """y = nu (I - B)^{-1} does not depend on the factorization it is refined
    with: refined the same way against a COLAMD-ordered LU, it agrees to
    4 ulp of max |y|, and to 16 ulp in every entry, the tail entries that
    y . h and y . q read included.  The unrefined solves of the two factors
    differ by ~80 ulp of max |y| and ~1400 ulp in some entry."""
    sys_ = gm1_system(2000)
    lu = spla.splu((sp.identity(sys_.size, format="csr") - sys_.B).tocsc())
    B_ld = sys_.B.astype(np.longdouble)
    eps = np.finfo(np.float64).eps
    y, best = lu.solve(sys_.nu, trans="T"), np.inf
    for _ in range(8):
        y_ld = y.astype(np.longdouble)
        residual = sys_.nu.astype(np.longdouble) - (y_ld - B_ld.T @ y_ld)
        step = lu.solve(residual.astype(np.float64), trans="T")
        y = y + step
        size = np.abs(step).max()
        if size <= eps * np.abs(y).max() or size >= 0.5 * best:
            break
        best = size
    got = solve_transpose(sys_).x
    assert np.abs(got - y).max() <= 4 * eps * y.max()
    assert np.max(np.abs(got - y) / y) <= 16 * eps


def test_empty_system():
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    prob = TruncationProblem(chain=matrix_chain(P), A=[0], z=0, K=[0],
                             r=lambda x: 1.0)
    sys_ = assemble_truncated_system(prob, ZERO_CERT)
    assert sys_.size == 0
    out = solve(sys_, np.zeros(0))
    assert out.x.size == 0 and out.residual_norm == 0.0


def test_assembly_rejects_bad_rows():
    P = np.array([[0.5, 0.4], [1.0, 0.0]])  # first row short
    prob = TruncationProblem(chain=matrix_chain(P), A=[0, 1], z=0, K=[0],
                             r=lambda x: 1.0)
    with pytest.raises(ValueError, match="row of state 0 sums") as exc:
        assemble_truncated_system(prob, ZERO_CERT)
    assert type(exc.value) is ValueError  # the chain's own error, not the assembly's


def test_assembly_rejects_negative_lyapunov_values():
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(6), z=0,
                             K=[0], r=lambda x: 1.0)
    bad = LyapunovCertificate(g1=lambda x: -1.0, g2=lambda x: 0.0)
    with pytest.raises(AssemblyError, match="negative"):
        assemble_truncated_system(prob, bad)


def test_positions_lookup():
    sys_ = walk_system(10)
    assert sys_.positions([3, 7]).tolist() == [2, 6]
    assert sys_.positions([]).size == 0
    with pytest.raises(KeyError):
        sys_.positions([0])  # z itself is not in A'


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(3, 9))
def test_solve_certificate_on_random_chains(seed, n):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n)
    chain = matrix_chain(P)
    r = lambda x: 1.0
    prob = TruncationProblem(chain=chain, A=np.arange(n), z=0, K=[0], r=r)
    sys_ = assemble_truncated_system(prob, tight_certificate(chain, n, [0], r))
    b = rng.uniform(0.0, 5.0, size=n - 1)
    res = solve(sys_, b)
    scale = max(1.0, float(np.abs(b).max()), float(np.abs(res.x).max()))
    assert res.residual_norm <= 1e-12 * scale
    assert np.all(res.x >= 0.0)
    y = solve_transpose(sys_).x
    assert float(y @ b) == pytest.approx(float(sys_.nu @ res.x), rel=1e-9, abs=1e-9)


def reference_assembly(problem, certificate) -> dict:
    """Per-row assembly: one ``chain.row`` call and scalar sums per state."""
    chain, A, z = problem.chain, problem.A, problem.z
    Aprime = A[A != z]
    m = Aprime.size
    nu, p, q, r_vec, h1, h2 = (np.zeros(m) for _ in range(6))
    rows_idx, cols_idx, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    zrow = chain.row(z)
    in_A = member_mask(zrow.targets, A)
    at_z = zrow.targets == z
    P_zz = float(zrow.probs[at_z][0]) if at_z.any() else 0.0
    in_Aprime = in_A & ~at_z
    nu[np.searchsorted(Aprime, zrow.targets[in_Aprime])] = zrow.probs[in_Aprime]
    h1_z, h2_z = expected_g(certificate, zrow.targets[~in_A], zrow.probs[~in_A])
    for i, x in enumerate(Aprime.tolist()):
        row = chain.row(x)
        in_A = member_mask(row.targets, A)
        at_z = row.targets == z
        if at_z.any():
            p[i] = float(row.probs[at_z][0])
        inside = in_A & ~at_z
        outside = ~in_A
        q[i] = float(row.probs[outside].sum())
        cols = np.searchsorted(Aprime, row.targets[inside])
        rows_idx.append(np.full(cols.size, i, dtype=np.int64))
        cols_idx.append(cols)
        vals.append(row.probs[inside])
        r_vec[i] = problem.reward(x)
        h1[i], h2[i] = expected_g(certificate, row.targets[outside], row.probs[outside])
    B = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows_idx),
                                              np.concatenate(cols_idx))), shape=(m, m))
    return dict(data=B.data, indices=B.indices, indptr=B.indptr, nu=nu, p=p, q=q,
                r_vec=r_vec, h1=h1, h2=h2, P_zz=P_zz, h1_z=h1_z, h2_z=h2_z)


def assert_matches_reference(problem, certificate):
    sys_ = assemble_truncated_system(problem, certificate)
    got = dict(data=sys_.B.data, indices=sys_.B.indices, indptr=sys_.B.indptr,
               nu=sys_.nu, p=sys_.p, q=sys_.q, r_vec=sys_.r_vec, h1=sys_.h1,
               h2=sys_.h2, P_zz=sys_.P_zz, h1_z=sys_.h1_z, h2_z=sys_.h2_z)
    want = reference_assembly(problem, certificate)
    for key, value in want.items():
        assert np.asarray(got[key]).dtype == np.asarray(value).dtype, key
        assert np.array_equal(got[key], value), key
    return sys_


WALK_CERT = LyapunovCertificate(g1=lambda x: float(x) ** 2, g2=lambda x: float(x) ** 2)


@pytest.mark.parametrize("chunk", [5, 64, ROW_CHUNK])
@pytest.mark.parametrize("case", ["walk-prefix", "walk-holes", "walk-zhole",
                                  "gm1-prefix", "gm1-holes", "gm1-zhole"])
def test_assembly_matches_per_row_reference(monkeypatch, chunk, case):
    monkeypatch.setattr(chain_module, "ROW_CHUNK", chunk)
    model, shape = case.split("-")
    a = 3 * ROW_CHUNK + 17 if chunk == ROW_CHUNK else 400
    A = np.arange(a)
    z, K = 0, [0]
    if shape == "holes":
        # non-prefix A with z != 0: holes leave rows several escaping entries
        A = A[(A % 97 != 40) & ((A < 150) | (A > 153))]
        z, K = 12, [3, 12]
    if shape == "zhole":
        # z in the middle of a chunk, and its own row escapes through z + 1
        z = a // 2 + 3
        A, K = A[A != z + 1], [3, z]
    chain, cert = ((random_walk_chain(), WALK_CERT) if model == "walk"
                   else (gm1_chain(), gm1_certificate()))
    prob = TruncationProblem(chain=chain, A=A, z=z, K=K, r=lambda x: x / 2.0)
    sys_ = assert_matches_reference(prob, cert)
    assert np.count_nonzero(sys_.q) > (0 if shape == "prefix" else 1)
    assert (sys_.h1_z > 0 and sys_.h2_z > 0) == (shape == "zhole")


@pytest.mark.parametrize("chunk", [5, 64, ROW_CHUNK])
@pytest.mark.parametrize("model", ["walk", "gm1"])
@pytest.mark.parametrize("shape", ["zmid", "offset"])
def test_assembly_on_a_range_matches_per_row_reference(monkeypatch, chunk, model, shape):
    # A is a range, so a chunk whose targets all lie in A' skips the mask
    # passes; G/M/1 rows above a z in the middle of A still reach z, and on
    # a range that starts above 0 the first rows escape below it
    monkeypatch.setattr(chain_module, "ROW_CHUNK", chunk)
    a = 3 * ROW_CHUNK + 17 if chunk == ROW_CHUNK else 400
    if shape == "zmid":
        A, z = np.arange(a), a // 2 + 3
        K = [3, z]
    else:
        A, z = np.arange(a // 4, a), a // 4
        K = [z]
    chain, cert = ((random_walk_chain(), WALK_CERT) if model == "walk"
                   else (gm1_chain(), gm1_certificate()))
    prob = TruncationProblem(chain=chain, A=A, z=z, K=K, r=lambda x: x / 2.0)
    sys_ = assert_matches_reference(prob, cert)
    assert np.count_nonzero(sys_.p) > (1 if model == "gm1" else 0)


def test_assembly_through_row_fn_fallback_matches_batch_rows():
    gm1 = gm1_chain()
    plain = ChainModel(row_fn=gm1_row_reference, description="G/M/1 without rows_fn")
    K = np.arange(21)
    reports = []
    for chain in (gm1, plain):
        prob = TruncationProblem(chain=chain, A=np.arange(300), z=0, K=K,
                                 r=lambda x: float(x))
        assert_matches_reference(prob, gm1_certificate())
        reports.append(run_pipeline(prob, gm1_certificate()))
    assert reports[0].interval == reports[1].interval


@given(st.integers(0, 2**31 - 1), st.integers(3, 40), st.data())
def test_assembly_matches_reference_on_dense_chains(seed, n, data):
    """Dense rows: many escaping entries per row, any A and z."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.7)
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.2
    chain = matrix_chain(P / P.sum(axis=1, keepdims=True))
    A = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    z = data.draw(st.sampled_from(A))
    prob = TruncationProblem(chain=chain, A=A, z=z, K=[z], r=lambda x: 1.0 + x)
    cert = LyapunovCertificate(g1=lambda x: 1.0 + x * x, g2=lambda x: 2.0 + x)
    assert_matches_reference(prob, cert)


def scaled_row(row, x, bad):
    return SparseRow(row.targets, row.probs * (0.5 if x == bad else 1.0))


def test_assembly_names_state_whose_batch_row_breaks_row_sum():
    def rows_fn(xs):
        indptr, targets, probs = random_walk_rows(xs)
        return indptr, targets, np.where(np.repeat(xs, np.diff(indptr)) == 1500,
                                         0.5 * probs, probs)

    messages = []
    for chain in (ChainModel(description="batch rows off at 1500", rows_fn=rows_fn),
                  ChainModel(row_fn=lambda x: scaled_row(walk_row_reference(x), x, 1500),
                             description="per-row rows off at 1500")):
        prob = TruncationProblem(chain=chain, A=np.arange(3000), z=0, K=[0],
                                 r=lambda x: 1.0)
        with pytest.raises(ValueError, match="state 1500 ") as exc:
            assemble_truncated_system(prob, WALK_CERT)
        assert type(exc.value) is ValueError
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def _system_arrays(sys_) -> dict:
    out = {k: getattr(sys_, k) for k in ("Aprime", "nu", "p", "q", "r_vec", "h1", "h2",
                                         "A_full", "z", "P_zz", "r_z", "h1_z", "h2_z")}
    out.update(B_data=sys_.B.data, B_indices=sys_.B.indices, B_indptr=sys_.B.indptr)
    return out


def _outcome(problem, certificate):
    """Assembled arrays and report, or the error each stage ends in."""
    try:
        arrays = _system_arrays(assemble_truncated_system(problem, certificate))
    except Exception as exc:     # noqa: BLE001 - compared, not handled
        return repr(exc), None
    try:
        report = run_pipeline(problem, certificate)
    except Exception as exc:     # noqa: BLE001
        report = repr(exc)
    return arrays, report


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(3, 40),
       st.sampled_from(["prefix", "range", "holes"]), st.booleans(), st.data())
def test_batch_and_scalar_forms_assemble_bit_identically(seed, n, shape, tight, data):
    """Batch ``Reward`` forms against the same functions as plain scalar
    lambdas: every assembled array (with its dtype) and the report agree."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.6)
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.2
    P[np.arange(n), (np.arange(n) - 1) % n] += 0.2
    chain = matrix_chain(P / P.sum(axis=1, keepdims=True))
    if shape == "prefix":
        A = list(range(data.draw(st.integers(1, n))))
        z = 0
    elif shape == "range":
        lo = data.draw(st.integers(0, n - 1))
        A = list(range(lo, data.draw(st.integers(lo + 1, n))))
        z = A[len(A) // 2]
    else:
        A = data.draw(st.lists(st.integers(0, n - 1), min_size=2, unique=True))
        z = data.draw(st.sampled_from(A))
    K = sorted({z} | set(data.draw(st.lists(st.sampled_from(A), max_size=3))))
    reward = Reward(lambda xs: (xs % 5).astype(np.float64) * 0.75 + 0.5)
    if tight:
        cert = tight_certificate(chain, n, K, reward)
        scalar = LyapunovCertificate(g1=lambda x: cert.g1(x), g2=lambda x: cert.g2(x))
    else:
        cert = LyapunovCertificate(g1=Reward(lambda xs: 1.0 + xs.astype(np.float64) ** 2),
                                   g2=Reward(lambda xs: 2.0 + xs.astype(np.float64)))
        scalar = LyapunovCertificate(g1=lambda x: 1.0 + float(x) * float(x),
                                     g2=lambda x: 2.0 + float(x))
    batch_arrays, batch_report = _outcome(
        TruncationProblem(chain=chain, A=np.array(A), z=z, K=K, r=reward), cert)
    scalar_arrays, scalar_report = _outcome(
        TruncationProblem(chain=chain, A=A, z=z, K=K, r=lambda x: float(x % 5) * 0.75 + 0.5),
        scalar)
    assert batch_report == scalar_report
    if isinstance(batch_arrays, str):
        assert batch_arrays == scalar_arrays
        return
    for key, value in scalar_arrays.items():
        got = batch_arrays[key]
        assert np.asarray(got).dtype == np.asarray(value).dtype, key
        assert np.array_equal(got, value), key


def test_assembly_rejects_batch_forms_of_the_wrong_shape():
    def problem(r):
        return TruncationProblem(chain=random_walk_chain(), A=np.arange(10), z=0,
                                 K=[0], r=r)
    with pytest.raises(ValueError, match="batch_fn must return 9 values"):
        assemble_truncated_system(problem(Reward(lambda xs: xs[1:] * 1.0)), WALK_CERT)
    wide = LyapunovCertificate(g1=Reward(lambda xs: np.zeros(xs.size + 1)),
                               g2=WALK_CERT.g2)
    with pytest.raises(AssemblyError, match="g1 batch_fn must return 1 values"):
        assemble_truncated_system(problem(float), wide)


def _nan_at(x0, value):
    return lambda x: value if x == x0 else x / 2.0


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("where,value,fragment", [
    ("r", np.nan, r"r\(5\)=nan"),
    ("r", np.inf, r"r\(5\)=inf"),
    ("g1", np.nan, r"g1\(100\)=nan"),
    ("g2", np.inf, r"g2\(100\)=inf"),
])
def test_non_finite_rewards_and_drift_values_fail_assembly(batch, where, value, fragment):
    """Walk, A = {0..99}, K = {0}: one bad value ends in the assemble stage,
    never in an interval of NaN or inf."""
    r = _nan_at(5, value) if where == "r" else (lambda x: x / 2.0)
    g1 = _nan_at(100, value) if where == "g1" else WALK_CERT.g1
    g2 = _nan_at(100, value) if where == "g2" else WALK_CERT.g2
    cert = LyapunovCertificate(g1=g1, g2=g2)
    if batch:
        def batch_form(f):
            return Reward(lambda xs: np.array([f(x) for x in xs.tolist()]))
        r, cert = batch_form(r), LyapunovCertificate(batch_form(g1), batch_form(g2))
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(100), z=0, K=[0], r=r)
    with pytest.raises(PipelineError, match="stage 'assemble' failed: .*" + fragment):
        run_pipeline(prob, cert)
