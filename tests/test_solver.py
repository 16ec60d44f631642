import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import stattrunc.solver as solver_module
from stattrunc import (
    AssemblyError,
    ChainModel,
    LyapunovCertificate,
    SolverConvergenceError,
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
from stattrunc.solver import expected_g

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
    beta0 = gm1_beta_coeffs(Gm1Params(max_coeff=1))[0]
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


def test_methods_agree():
    sys_ = walk_system(30)
    d = solve(sys_, sys_.p, method="direct")
    f = solve(sys_, sys_.p, method="fixed_point")
    assert d.method == "direct" and f.method == "fixed_point"
    assert f.monotone_lower_bound and not d.monotone_lower_bound
    assert f.iterations > 0
    np.testing.assert_allclose(f.x, d.x, atol=1e-11)


def test_auto_respects_memory_budget():
    sys_ = walk_system(30)
    assert solve(sys_, sys_.p, memory_budget=0).method == "fixed_point"
    assert solve(sys_, sys_.p).method == "direct"


def test_fixed_point_iteration_cap():
    sys_ = walk_system(200)
    with pytest.raises(SolverConvergenceError, match="no convergence"):
        solve(sys_, sys_.p, method="fixed_point", max_iter=3)
    partial = solve(sys_, sys_.p, method="fixed_point", max_iter=3, best_effort=True)
    full = solve(sys_, sys_.p, method="direct")
    assert partial.monotone_lower_bound
    assert np.all(partial.x <= full.x + 1e-12)


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
    with pytest.raises(ValueError, match="unknown method"):
        solve(sys_, sys_.p, method="cg")


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
    with pytest.raises(AssemblyError, match="sums"):
        assemble_truncated_system(prob, ZERO_CERT)


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
@pytest.mark.parametrize("case", ["walk-prefix", "walk-holes", "gm1-prefix", "gm1-holes"])
def test_assembly_matches_per_row_reference(monkeypatch, chunk, case):
    monkeypatch.setattr(solver_module, "ROW_CHUNK", chunk)
    model, shape = case.split("-")
    a = 3 * ROW_CHUNK + 17 if chunk == ROW_CHUNK else 400
    A = np.arange(a)
    z, K = 0, [0]
    if shape == "holes":
        # non-prefix A with z != 0: holes leave rows several escaping entries
        A = A[(A % 97 != 40) & ((A < 150) | (A > 153))]
        z, K = 12, [3, 12]
    chain, cert = ((random_walk_chain(), WALK_CERT) if model == "walk"
                   else (gm1_chain(), gm1_certificate()))
    prob = TruncationProblem(chain=chain, A=A, z=z, K=K, r=lambda x: x / 2.0)
    sys_ = assert_matches_reference(prob, cert)
    assert np.count_nonzero(sys_.q) > (1 if shape == "holes" else 0)


def test_assembly_through_row_fn_fallback_matches_batch_rows():
    gm1 = gm1_chain()
    plain = ChainModel(row_fn=gm1.row_fn, description="G/M/1 without rows_fn")
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
    walk = random_walk_chain()

    def rows_fn(xs):
        indptr, targets, probs = random_walk_rows(xs)
        return indptr, targets, np.where(np.repeat(xs, np.diff(indptr)) == 1500,
                                         0.5 * probs, probs)

    messages = []
    for chain in (ChainModel(walk.row_fn, "batch rows off at 1500", rows_fn=rows_fn),
                  ChainModel(lambda x: scaled_row(walk.row(x), x, 1500),
                             "per-row rows off at 1500")):
        prob = TruncationProblem(chain=chain, A=np.arange(3000), z=0, K=[0],
                                 r=lambda x: 1.0)
        with pytest.raises(AssemblyError, match="state 1500 ") as exc:
            assemble_truncated_system(prob, WALK_CERT)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
