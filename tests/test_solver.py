import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgbtrf, dgbtrs

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
    load_chain_from_file,
    matrix_chain,
    random_walk_chain,
    run_pipeline,
    solve,
    solve_transpose,
    tight_certificate,
)
from stattrunc.chain import ROW_CHUNK, member_mask
from stattrunc.models import random_walk_rows

from conftest import (expected_g, gm1_row_reference, hub_chain, walk_row_reference,
                      write_jump_chain)

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
    row_sums = np.asarray(sys_.full_B().sum(axis=1)).ravel() + sys_.p + sys_.q
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


def dense_random_system():
    """A dense random chain, on which the solves do refine."""
    rng = np.random.default_rng(5)
    P = rng.uniform(size=(150, 150)) ** 4
    P /= P.sum(axis=1, keepdims=True)
    prob = TruncationProblem(chain=matrix_chain(P), A=np.arange(150), z=0, K=[0],
                             r=lambda x: 1.0)
    return assemble_truncated_system(prob, ZERO_CERT)


def test_each_residual_is_evaluated_once(monkeypatch):
    # the row solve forms one long-double residual, whatever its refinement
    # steps, and updates it in double; a column solve forms one residual per
    # iterate: the first LU solve and each refinement step
    sys_ = dense_random_system()
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
            assert calls == ([True] if transpose else [False] * (res.iterations + 1))
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


def _dgbtrf_of(B: sp.csr_matrix, kl: int, ku: int):
    """LAPACK's (ab, piv) of (I - B)^T, its band written from a dense I - B."""
    m = B.shape[0]
    M = (sp.identity(m, format="csr") - B).toarray().T
    i, j = np.nonzero(M)
    ab = np.zeros((2 * kl + ku + 1, m))
    ab[kl + ku + i - j, j] = M[i, j]
    ab, piv, info = dgbtrf(ab, kl, ku)
    assert info == 0
    return ab, piv


def test_state_order_factor_is_unpivoted_with_band_fill():
    """(I - B)^T is column diagonally dominant, so its band LU in state
    order keeps every pivot on the diagonal and the factors fill only the
    band: rows of B reach 1 state up on both chains, and 195 down on gm1.
    L is read from the band itself, not from a copy."""
    for sys_, band in ((gm1_system(2000), (1, 195)), (walk_system(2000), (1, 1))):
        B = sys_.full_B().tocoo()
        assert (int((B.col - B.row).max()), int((B.row - B.col).max())) == band
        lu = solver_module._lu(sys_)
        m, kl = sys_.size, band[0]
        # a BandLU is kept only with every pivot on the diagonal
        assert isinstance(lu, solver_module.BandLU)
        assert (lu.kl, lu.ku) == band
        assert lu.ab.shape == (2 * kl + band[1] + 1, m)
        # the kl diagonals LAPACK sets aside for fill from row exchanges
        # stay empty
        assert not lu.ab[:kl].any()
        # L's column j is ab's column j from its diagonal down
        assert lu.L.shape == lu.ab.shape and np.shares_memory(lu.L, lu.ab)
        assert np.array_equal(lu.L[1:kl + 1, :-1], lu.ab[kl + band[1] + 1:, :-1])


@pytest.mark.parametrize("model", ["gm1", "walk"])
def test_factor_is_that_of_identity_minus_B_and_B_transposed_is_kept(model):
    """The band factor is, bit for bit, LAPACK's of (I - B)^T written from a
    dense I - B, which takes every pivot on the diagonal; that transpose,
    factored, is the only other form of B the system keeps, and B is left
    as it was.  Its two solves are those of I - B and of its transpose."""
    sys_ = gm1_system(600) if model == "gm1" else walk_system(600)
    B0 = sys_.B.copy()
    lu = solver_module._lu(sys_)
    m = sys_.size
    want, piv = _dgbtrf_of(sys_.full_B(), lu.kl, lu.ku)
    assert np.array_equal(piv, np.arange(m)) and np.array_equal(lu.ab, want)
    assert list(sys_._cache) == ["lu"]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sys_.B, name), getattr(B0, name)), name
    I_minus_B = (sp.identity(m, format="csr") - sys_.full_B()).toarray()
    rng = np.random.default_rng(3)
    b = rng.uniform(size=m)
    x = lu.solve(b, trans="N")
    assert np.abs(I_minus_B @ x - b).max() <= 1e-12 * np.abs(x).max()
    y = lu.solve(b, trans="T")
    assert np.abs(y @ I_minus_B - b).max() <= 1e-12 * np.abs(y).max()


def _banded_B(m: int, kl: int, ku: int, seed: int) -> sp.csr_matrix:
    """A random substochastic B whose rows reach kl states up and ku down."""
    rng = np.random.default_rng(seed)
    offsets = list(range(-ku, kl + 1))
    diags = [rng.uniform(0.1, 1.0, size=m - abs(k)) for k in offsets]
    B = sp.diags(diags, offsets, format="csr")
    B = sp.csr_matrix(sp.diags(rng.uniform(0.5, 0.999, size=m) / B.sum(axis=1).A1) @ B)
    B.sort_indices()
    return B


def _band_cases(tmp_path):
    """(name, B, (kl, ku)) of the systems the band solves are tested on."""
    jump = load_chain_from_file(write_jump_chain(tmp_path / "jump.txt"))
    jump_sys = assemble_truncated_system(
        TruncationProblem(chain=jump, A=np.arange(400), z=0, K=[0], r=float), ZERO_CERT)
    yield "gm1", gm1_system(600).full_B(), (1, 195)
    yield "walk", walk_system(600).full_B(), (1, 1)
    yield "jump", jump_sys.full_B(), (3, 3)
    for band in ((0, 1), (1, 0), (0, 0)):
        yield f"{band}", _banded_B(300, *band, seed=sum(band)), band


def test_band_solves_are_lapacks_row_solve_and_backward_stable_column_solve(tmp_path):
    """The two triangular band solves: the row solve equals LAPACK's dgbtrs
    on dgbtrf's factors bit for bit, and the column solve's residual is
    within 8 eps of |I - B| |x| + |b| in every entry."""
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(7)
    for name, B, band in _band_cases(tmp_path):
        assert solver_module._band(B) == band, name
        lu = solver_module.BandLU.factor(B, *band)
        m = B.shape[0]
        b = rng.uniform(0.5, 1.5, size=m)
        ab, piv = _dgbtrf_of(B, *band)
        want, info = dgbtrs(ab, *band, b, piv, trans=0)
        assert info == 0 and np.array_equal(lu.solve(b, "T"), want), name
        x = lu.solve(b, "N")
        I_minus_B = np.eye(m, dtype=np.longdouble) - B.toarray().astype(np.longdouble)
        residual = b - I_minus_B @ x.astype(np.longdouble)
        scale = np.abs(I_minus_B) @ np.abs(x).astype(np.longdouble) + b
        assert np.all(np.abs(residual) <= 8 * eps * scale), name


def test_leading_factors_share_the_full_band():
    """The factors of a leading block are views of the full band, L too,
    and solve as the block's own factorization does."""
    sys_ = gm1_system(1500)
    lu = solver_module._lu(sys_)
    m = 700
    lead = lu.leading(m)
    assert np.shares_memory(lead.ab, lu.ab) and np.shares_memory(lead.L, lu.ab)
    own = solver_module.BandLU.factor(sys_.full_B()[:m, :m].tocsr(), lu.kl, lu.ku)
    # all but the multipliers of rows past the block, which no solve reads
    k = lu.kl + lu.ku
    assert np.array_equal(lead.ab[:k + 1], own.ab[:k + 1])
    assert np.array_equal(lead.ab[:, :m - lu.kl], own.ab[:, :m - lu.kl])
    b = np.random.default_rng(2).uniform(size=m)
    for trans in "NT":
        assert np.array_equal(lead.solve(b, trans), own.solve(b, trans)), trans


def test_row_exchanges_send_the_system_to_superlu():
    """Where a block of I - B is nearly singular, rounding makes partial
    pivoting exchange rows: on gm1 with a hole at z + 1 (every state below
    z leaves A through z) 24 of the 398 band pivots leave the diagonal.
    The band LU is dropped and SuperLU factors I - B in state order; the
    pipeline still gives its report.  So it does on the larger such system
    whose ``PipelineError`` ``test_delta_beyond_one_is_a_pipeline_error``
    checks."""
    A = np.setdiff1d(np.arange(400), [26])
    prob = TruncationProblem(chain=gm1_chain(), A=A, z=25, K=np.arange(26), r=lambda x: x / 2.0)
    sys_ = assemble_truncated_system(prob, gm1_certificate())
    band = solver_module._band(sys_.B)
    assert band == (1, 195)
    piv = _dgbtrf_of(sys_.B, *band)[1]
    assert int((piv != np.arange(sys_.size)).sum()) == 24
    assert solver_module.BandLU.factor(sys_.B, *band) is None
    assert isinstance(solver_module._lu(sys_), spla.SuperLU)
    report = run_pipeline(prob, gm1_certificate())
    assert report.Delta1 > 0 and report.interval[0] <= report.pi_tilde_r <= report.interval[1]

    A = np.setdiff1d(np.arange(3000), [1031])
    prob = TruncationProblem(chain=gm1_chain(), A=A, z=1030, K=[0, 1030], r=float)
    sys_ = assemble_truncated_system(prob, gm1_certificate())
    assert isinstance(solver_module._lu(sys_), spla.SuperLU)


def _exact_row_residual(sys_, x) -> list:
    """nu - x (I - B) in exact rational arithmetic, and the sum of the
    magnitudes of its terms, per entry."""
    B = sys_.full_B().tocsc()
    xs = [Fraction(v) for v in x.tolist()]
    exact, scale = [], []
    for c in range(sys_.size):
        lo, hi = B.indptr[c], B.indptr[c + 1]
        terms = [xs[i] * Fraction(v) for i, v in zip(B.indices[lo:hi].tolist(),
                                                      B.data[lo:hi].tolist())]
        exact.append(Fraction(float(sys_.nu[c])) - xs[c] + sum(terms))
        scale.append(float(sys_.nu[c]) + float(x[c]) + float(sum(terms)))
    return exact, np.array(scale)


@pytest.mark.parametrize("block", [1, 150, solver_module.LD_BLOCK])
def test_transpose_residual_is_a_long_double_residual(monkeypatch, block):
    """Whatever the rows of B per block, the long-double residual of the row
    solve is within a few long-double ulps (of the sum of its terms'
    magnitudes) of the exact one; a residual formed in double is ~500 to
    ~3500 such ulps off on these systems."""
    monkeypatch.setattr(solver_module, "LD_BLOCK", block)
    eps_ld = float(np.finfo(np.longdouble).eps)
    for sys_ in (gm1_system(250), walk_system(600)):
        x = solve_transpose(sys_).x
        got = solver_module._residual(sys_, x, sys_.nu, True)
        assert got.dtype == np.longdouble
        exact, scale = _exact_row_residual(sys_, x)
        err = np.array([float(Fraction(*g.as_integer_ratio()) - e) for g, e in zip(got, exact)])
        # a residual that is not exactly 0 everywhere, or the check is vacuous
        assert any(e != 0 for e in exact)
        assert np.all(np.abs(err) <= 4 * eps_ld * scale)


def test_certified_row_residual_is_that_of_the_returned_y():
    """The residual the row solve certifies, formed once and then updated
    in double at each refinement step, is the residual of the y it returns
    to a few long-double ulps of the largest term magnitude."""
    eps_ld = float(np.finfo(np.longdouble).eps)
    for sys_ in (gm1_system(250), walk_system(600), dense_random_system()):
        res = solve_transpose(sys_)
        assert res.iterations >= 1
        exact, scale = _exact_row_residual(sys_, res.x)
        exact_max = float(max(abs(e) for e in exact))
        assert exact_max > 0.0
        assert abs(res.residual_norm - exact_max) <= 4 * eps_ld * scale.max()


#: ``run_pipeline``'s report on ``hub_chain(1200)`` at A = {0..999},
#: K = {0, 1, 2}, r(x) = x, as SuperLU's state-order LU of I - B gave it
#: before the band LU was added
HUB_REPORT = (
    "BoundReport(pi_tilde_r=5.694560988940328, kappa_lower_r=252.92836318200656, "
    "kappa_lower_e=44.415779139644044, kappa_upper_r=252.9283631820072, "
    "kappa_upper_e=44.41577913964415, delta=0.9999999999999989, beta=0.9999999999999989, "
    "Delta1=6.294654741450331e-13, Delta2=1.084394667236661e-13, "
    "interval=(5.694560988940314, 5.694560988940342), error_bound=2.8075171823296918e-14, "
    "tv_bound=5.6150343646593836e-14)")


def test_hub_chain_is_factored_by_superlu_without_a_dense_array():
    """Every row of the hub chain jumps to state 5, so (I - B)^T would need
    a band as wide as A: I - B goes to SuperLU, the run allocates nothing
    near m^2, and the report is the one SuperLU gave before."""
    chain, K = hub_chain(1200), np.arange(3)
    cert = tight_certificate(chain, 1200, K, float)
    prob = TruncationProblem(chain=chain, A=np.arange(1000), z=0, K=K, r=float)
    sys_ = assemble_truncated_system(prob, cert)
    assert solver_module._band(sys_.B) is None
    assert isinstance(solver_module._lu(sys_), spla.SuperLU)
    tracemalloc.start()
    try:
        report = run_pipeline(prob, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = sys_.size
    assert peak < m * m      # bytes; an m x m array of doubles is 8 m^2
    assert repr(report) == HUB_REPORT


def test_closed_class_in_A_is_a_typed_error_before_superlu(monkeypatch):
    """A state of A' that the chain never leaves makes I - B singular.  On
    the hub chain's wide band SuperLU would factor it, and SuperLU can
    crash on such a matrix; the search for states that never escape
    reports it first, as a pipeline error naming the state."""
    n = 60
    chain = hub_chain(n)
    indptr, targets, probs = chain.rows(np.arange(n))
    P = sp.csr_matrix((probs, targets, indptr), shape=(n, n)).toarray()
    P[40] = 0.0
    P[40, 40] = 1.0
    absorbing = matrix_chain(P, "hub chain absorbed at 40")
    called = []
    monkeypatch.setattr(spla, "splu", lambda *a, **k: called.append(a))
    prob = TruncationProblem(chain=absorbing, A=np.arange(50), z=0, K=[0, 1, 2], r=float)
    with pytest.raises(PipelineError, match="I - B is singular: from state 40 the chain "
                                            "never reaches z=0 or leaves A"):
        run_pipeline(prob, ZERO_CERT)
    assert not called


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
    B = sys_.full_B()
    lu = spla.splu((sp.identity(sys_.size, format="csr") - B).tocsc())
    B_ld = B.astype(np.longdouble)
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
    B = sys_.full_B()
    got = dict(data=B.data, indices=B.indices, indptr=B.indptr,
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
