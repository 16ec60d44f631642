import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stattrunc.bounds as bounds_mod
import stattrunc.solver as solver_mod
from stattrunc import (
    ChainModel,
    DegenerateDeltaError,
    LyapunovCertificate,
    PipelineError,
    SolverOptions,
    TruncationProblem,
    assemble_truncated_system,
    compute_error_bound,
    compute_pi_tilde,
    compute_tv_bound,
    exact_stationary_finite,
    gm1_certificate,
    gm1_chain,
    load_chain_from_file,
    matrix_chain,
    one_step_fringe,
    random_walk_certificate,
    random_walk_chain,
    Reward,
    prefix_system,
    run_pipeline,
    run_sweep,
    simulate_cycles,
    tight_certificate,
    verify_lyapunov_drift,
)
from conftest import (BROKEN_WALK_ROWS, broken_walk, dirichlet_chain, gm1_row_reference,
                      hub_chain, walk_row_reference, write_jump_chain)

ZERO_CERT = LyapunovCertificate(g1=lambda x: 0.0, g2=lambda x: 0.0)


def test_two_state_hand_values(two_state):
    prob = TruncationProblem(chain=two_state["chain"], A=[0, 1], z=0, K=[0],
                             r=two_state["r"])
    rep = run_pipeline(prob, ZERO_CERT)
    assert rep.kappa_lower_r == pytest.approx(0.5, abs=1e-15)
    assert rep.kappa_lower_e == pytest.approx(1.5, abs=1e-15)
    assert rep.pi_tilde_r == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.beta == 1.0 and rep.delta == 1.0
    assert rep.Delta1 == 0.0 and rep.Delta2 == 0.0
    assert rep.interval == (rep.pi_tilde_r, rep.pi_tilde_r)
    assert rep.error_bound == 0.0 and rep.tv_bound == 0.0


def test_pi_tilde_two_state(two_state):
    prob = TruncationProblem(chain=two_state["chain"], A=[0, 1], z=0, K=[0],
                             r=two_state["r"])
    pi = compute_pi_tilde(assemble_truncated_system(prob, ZERO_CERT))
    np.testing.assert_allclose(pi, two_state["pi"], atol=1e-15)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)


def test_full_truncation_collapse(uniform4):
    chain, pi = uniform4["chain"], uniform4["pi"]
    r = lambda x: float(x)
    cert = tight_certificate(chain, 4, [0], r)
    prob = TruncationProblem(chain=chain, A=range(4), z=0, K=[0], r=r)
    rep = run_pipeline(prob, cert)
    assert rep.error_bound <= 1e-11
    assert rep.kappa_upper_r - rep.kappa_lower_r <= 1e-11 * rep.kappa_lower_r
    pt = compute_pi_tilde(assemble_truncated_system(prob, cert))
    np.testing.assert_allclose(pt, pi, atol=1e-9)
    lo, hi = rep.interval
    assert lo <= float(pi @ np.arange(4)) <= hi


def test_singleton_K_walk_values():
    # K = {0}: no correction solve; beta is the ruin probability 1022/1023
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(10), z=0,
                             K=[0], r=lambda x: x / 2.0)
    rep = run_pipeline(prob, ZERO_CERT)
    assert rep.delta == 1.0
    assert rep.beta == pytest.approx(1022.0 / 1023.0, abs=1e-14)


def test_degenerate_delta_raises():
    # from state 1 the only move exits A, so z is unreachable within A
    P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    prob = TruncationProblem(chain=matrix_chain(P), A=[0, 1], z=0, K=[0, 1],
                             r=lambda x: 1.0)
    with pytest.raises(DegenerateDeltaError, match="enlarge A or shrink K"):
        run_pipeline(prob, ZERO_CERT)


def test_delta_beyond_one_is_a_pipeline_error():
    """gm1 with a hole at z + 1: every state below z passes z to leave A,
    so delta is exactly 1, but the delta solve lands ~7e-9 above it.  A
    ``PipelineError`` is what a sweep records as a numerical error."""
    A = np.setdiff1d(np.arange(3000), [1031])
    prob = TruncationProblem(chain=gm1_chain(), A=A, z=1030, K=[0, 1030], r=float)
    with pytest.raises(PipelineError, match=r"delta=1\.00000000\d+ outside \[0, 1\]"):
        run_pipeline(prob, gm1_certificate())


@pytest.mark.parametrize("form", ["rows_fn", "row_fn"])
@pytest.mark.parametrize("fault", sorted(BROKEN_WALK_ROWS))
def test_broken_row_is_a_pipeline_error_naming_the_state(fault, form):
    """A negative, repeated or NaN entry in one row of the walk ends in a
    ``PipelineError`` naming the state, not in a printed interval."""
    bad_x = BROKEN_WALK_ROWS[fault][0]
    prob = TruncationProblem(chain=broken_walk(fault, form), A=np.arange(200), z=0,
                             K=np.arange(4), r=lambda x: x / 2.0)
    with pytest.raises(PipelineError, match=f"stage 'assemble' failed: row of state {bad_x} "):
        run_pipeline(prob, random_walk_certificate())


@pytest.mark.parametrize("form", ["rows_fn", "row_fn"])
def test_every_row_reader_rejects_a_negative_entry(form):
    chain = broken_walk("negative", form)
    prob = TruncationProblem(chain=chain, A=np.arange(200), z=0, K=np.arange(4),
                             r=lambda x: x / 2.0)
    match = "^row of state 50 has a non-positive or NaN probability -0.01 at target 52$"
    for read in (lambda: verify_lyapunov_drift(prob, random_walk_certificate()),
                 lambda: one_step_fringe(chain, np.arange(200)),
                 lambda: simulate_cycles(chain, 50, float, 10, seed=1),
                 lambda: tight_certificate(chain, 100, [0], float)):
        with pytest.raises(ValueError, match=match):
            read()


def test_hole_chain_is_a_degenerate_delta_without_numpy_warnings():
    """The walk with a hole at z + 1: the expected visits to 0 before
    hitting z are ~2^1030, past the double range, and delta underflows to
    ~5e-295.  That must end in a ``DegenerateDeltaError``, with no numpy
    warning on the way."""
    A = np.setdiff1d(np.arange(3000), [1031])
    prob = TruncationProblem(chain=random_walk_chain(), A=A, z=1030, K=[0, 1030],
                             r=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDeltaError, match="enlarge A or shrink K"):
            run_pipeline(prob, random_walk_certificate())


def test_direct_escape_from_z_enters_upper_bound():
    """The one-step exit mass of z itself must be charged to the upper bounds.

    Here z leaves A with probability 0.9 through a high-reward state, so an
    upper bound ignoring the z-exit term would sit far below the true value.
    """
    P = np.zeros((4, 4))
    P[0, 1], P[0, 3] = 0.1, 0.9
    P[1, 0] = 1.0
    P[2, 0] = 1.0
    P[3, 0], P[3, 2] = 0.9, 0.1
    chain = matrix_chain(P)
    rvec = np.array([0.0, 0.0, 0.0, 100.0])
    r = lambda x: float(rvec[x])
    pir = float(exact_stationary_finite(chain, 4) @ rvec)
    cert = tight_certificate(chain, 4, [0], r)
    prob = TruncationProblem(chain=chain, A=[0, 1], z=0, K=[0], r=r)
    rep = run_pipeline(prob, cert)
    sys_ = assemble_truncated_system(prob, cert)
    assert sys_.h1_z == pytest.approx(90.0, rel=1e-12)
    assert rep.interval[0] <= pir <= rep.interval[1]
    # dropping h1_z would cap the reward bound at kappa_lower_r = 0
    assert rep.kappa_upper_r >= rep.kappa_lower_r + 90.0 - 1e-9


def test_excursion_chain_delta_beta(excursion_chain):
    prob = TruncationProblem(chain=excursion_chain["chain"],
                             A=excursion_chain["A"], z=0,
                             K=excursion_chain["K"], r=lambda x: 1.0)
    rep = run_pipeline(prob, tight_certificate(excursion_chain["chain"], 5,
                                               excursion_chain["K"], lambda x: 1.0))
    assert rep.beta == pytest.approx(4.0 / 7.0, abs=1e-14)
    assert rep.delta == pytest.approx(4.0 / 7.0, abs=1e-14)


def test_pipeline_uses_four_solves(monkeypatch, excursion_chain):
    calls = {"n": 0}
    orig_solve, orig_tr = bounds_mod.solve, bounds_mod.solve_transpose

    def counting_solve(*a, **k):
        calls["n"] += 1
        return orig_solve(*a, **k)

    def counting_tr(*a, **k):
        calls["n"] += 1
        return orig_tr(*a, **k)

    monkeypatch.setattr(bounds_mod, "solve", counting_solve)
    monkeypatch.setattr(bounds_mod, "solve_transpose", counting_tr)
    prob = TruncationProblem(chain=excursion_chain["chain"],
                             A=excursion_chain["A"], z=0,
                             K=excursion_chain["K"], r=lambda x: 1.0)
    run_pipeline(prob, tight_certificate(excursion_chain["chain"], 5,
                                         excursion_chain["K"], lambda x: 1.0))
    assert calls["n"] == 4
    calls["n"] = 0
    # singleton K skips the delta and correction solves
    prob_k0 = TruncationProblem(chain=excursion_chain["chain"],
                                A=excursion_chain["A"], z=0, K=[0],
                                r=lambda x: 1.0)
    run_pipeline(prob_k0, tight_certificate(excursion_chain["chain"], 5, [0],
                                            lambda x: 1.0))
    assert calls["n"] == 1


def test_reward_scaling():
    chain, _, pi = dirichlet_chain(314, 12)
    base = np.arange(12, dtype=float) + 0.5
    rep1 = run_pipeline(
        TruncationProblem(chain=chain, A=range(9), z=0, K=[0, 1],
                          r=lambda x: float(base[x])),
        tight_certificate(chain, 12, [0, 1], lambda x: float(base[x])))
    rep2 = run_pipeline(
        TruncationProblem(chain=chain, A=range(9), z=0, K=[0, 1],
                          r=lambda x: 2.0 * float(base[x])),
        tight_certificate(chain, 12, [0, 1], lambda x: 2.0 * float(base[x])))
    assert rep2.pi_tilde_r == pytest.approx(2.0 * rep1.pi_tilde_r, rel=1e-12)
    assert rep2.kappa_upper_r == pytest.approx(2.0 * rep1.kappa_upper_r, rel=1e-10)
    assert rep2.kappa_lower_e == pytest.approx(rep1.kappa_lower_e, rel=1e-12)
    assert rep2.error_bound == pytest.approx(2.0 * rep1.error_bound, rel=1e-9)
    assert rep2.tv_bound == 2.0 * rep2.error_bound


def test_interval_brackets_pi_tilde_r():
    chain, _, _ = dirichlet_chain(271, 20)
    r = lambda x: float(x % 5)
    rep = run_pipeline(
        TruncationProblem(chain=chain, A=range(15), z=2, K=[2, 3], r=r),
        tight_certificate(chain, 20, [2, 3], r))
    lo, hi = rep.interval
    assert lo <= rep.pi_tilde_r <= hi
    assert 0.0 <= rep.delta <= 1.0 and 0.0 <= rep.beta <= 1.0


def test_component_functions_match_pipeline(excursion_chain):
    prob = TruncationProblem(chain=excursion_chain["chain"],
                             A=excursion_chain["A"], z=0,
                             K=excursion_chain["K"], r=lambda x: 1.0)
    cert = tight_certificate(excursion_chain["chain"], 5,
                             excursion_chain["K"], lambda x: 1.0)
    rep = run_pipeline(prob, cert)
    eb = compute_error_bound(rep.kappa_lower_r, rep.kappa_lower_e,
                             rep.kappa_upper_e, rep.Delta1, rep.Delta2)
    assert eb == pytest.approx(rep.error_bound, rel=1e-14)


def test_error_bound_rejects_negative_gaps():
    with pytest.raises(ValueError):
        compute_error_bound(1.0, 1.0, 1.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        compute_tv_bound(-1e-3)


def test_solver_options_round_trip():
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol"]
    assert SolverOptions().tol == 1e-12
    assert SolverOptions(tol=1e-10) == SolverOptions(1e-10)
    assert SolverOptions(tol=1e-10).tol == 1e-10
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            SolverOptions(tol=bad)


@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_sandwich_on_random_chains(seed):
    """Certified interval must contain the exact stationary expectation."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 25))
    chain, _, pi = dirichlet_chain(seed, n)
    rvals = rng.uniform(0.0, 2.0, size=n)
    r = lambda x: float(rvals[x])
    pir = float(pi @ rvals)
    z = int(rng.integers(0, n))
    K = sorted({z, int(rng.integers(0, n))})
    A = sorted(set(K) | set(int(s) for s in rng.integers(0, n, size=n // 2)))
    if len(A) == n:
        A = [s for s in A if s in K or s != max(set(A) - set(K))]
    cert = tight_certificate(chain, n, K, r)
    try:
        rep = run_pipeline(TruncationProblem(chain=chain, A=A, z=z, K=K, r=r), cert)
    except DegenerateDeltaError:
        return
    assert rep.interval[0] <= pir <= rep.interval[1]
    assert rep.error_bound >= abs(pir - rep.pi_tilde_r) - 1e-12


def _builtin(model):
    return ((random_walk_chain(), random_walk_certificate()) if model == "walk"
            else (gm1_chain(), gm1_certificate()))


def _chain_outputs(chain, cert):
    """Report, drift audit and fringe of one fixed problem on ``chain``."""
    # z inside K and away from 0; its own row escapes A through the hole at z + 1
    A = np.setdiff1d(np.arange(400), [26])
    prob = TruncationProblem(chain=chain, A=A, z=25, K=np.arange(26), r=lambda x: x / 2.0)
    return (run_pipeline(prob, cert), verify_lyapunov_drift(prob, cert),
            one_step_fringe(chain, A).tolist())


@pytest.mark.parametrize("model", ["walk", "gm1"])
def test_pipeline_reads_rows_only_through_rows_fn(model):
    """A chain whose per-state ``row_fn`` raises gives the built-in chain's
    report, drift audit and fringe: every row is read through ``rows``."""
    chain, cert = _builtin(model)

    def no_row(x):
        raise AssertionError(f"row({x}) read one state at a time")

    rows_only = ChainModel(row_fn=no_row, description="rows_fn only", rows_fn=chain.rows_fn)
    results = [_chain_outputs(each, cert) for each in (chain, rows_only)]
    assert results[0] == results[1]
    assert results[0][0].Delta1 > 0 and 26 in results[0][2]


@pytest.mark.parametrize("model", ["walk", "gm1"])
def test_user_chain_with_only_row_fn_gives_identical_reports(model):
    """A user chain given only the per-state ``row_fn`` (the built-in rows,
    one state at a time) gives the built-in chain's report, drift audit,
    fringe and simulation bit for bit."""
    chain, cert = _builtin(model)
    user = ChainModel(row_fn=walk_row_reference if model == "walk" else gm1_row_reference,
                      description="per-state rows")
    assert _chain_outputs(user, cert) == _chain_outputs(chain, cert)
    sims = [simulate_cycles(each, 0, lambda x: x / 2.0, 300, seed=3) for each in (chain, user)]
    assert sims[0] == sims[1]


def _sweep_case(case, tmp_path):
    """(chain, certificate, K, reward, sizes of A) of one prefix sweep."""
    if case == "gm1":
        return gm1_chain(), gm1_certificate(), np.arange(201), float, [300, 600, 1000]
    if case == "walk":
        return (random_walk_chain(), random_walk_certificate(), np.arange(6),
                Reward(lambda xs: xs / 2.0), [50, 400, 3000])
    if case == "jump":
        n, sizes, K = 400, [40, 150, 400], np.arange(4)
        chain = load_chain_from_file(write_jump_chain(tmp_path / "jump.txt", n))
    else:
        n, sizes, K = 1200, [60, 150, 1000], np.arange(3)
        chain = hub_chain(n)
    return chain, tight_certificate(chain, n, K, float), K, float, sizes


SYSTEM_FIELDS = ("Aprime", "nu", "p", "q", "r_vec", "h1", "h2", "A_full", "z", "P_zz",
                 "r_z", "h1_z", "h2_z")


@pytest.mark.parametrize("case", ["gm1", "walk", "jump", "hub"])
def test_each_sweep_point_equals_its_own_pipeline(monkeypatch, tmp_path, case):
    """One assembly and one band factorization serve the sweep: each point's
    report equals ``run_pipeline``'s at its A bit for bit, and its system's
    arrays those of its own assembly.  Rows of the ±3-jump file chain reach
    3 states up, so a prefix drops entries inside B; the hub chain's band is
    too wide, so each point factors its own I - B with SuperLU."""
    chain, cert, K, r, sizes = _sweep_case(case, tmp_path)
    problems = [TruncationProblem(chain=chain, A=np.arange(a), z=0, K=K, r=r) for a in sizes]
    calls = []
    for module, name in ((bounds_mod, "assemble_truncated_system"), (solver_mod, "dgbtrf")):
        def counted(*args, fn=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    swept = run_sweep(problems, cert)
    assert calls == ["assemble_truncated_system"] + (["dgbtrf"] if case != "hub" else [])
    monkeypatch.undo()

    full = assemble_truncated_system(problems[-1], cert)
    lu = solver_mod._lu(full)
    assert isinstance(lu, solver_mod.BandLU) == (case != "hub")
    for problem, (report, seconds) in zip(problems, swept):
        assert repr(report) == repr(run_pipeline(problem, cert))
        assert seconds > 0
        fresh = assemble_truncated_system(problem, cert)
        prefix = prefix_system(full, problem, cert)
        for key in SYSTEM_FIELDS:
            assert np.asarray(getattr(prefix, key)).dtype == np.asarray(getattr(fresh, key)).dtype
            assert np.array_equal(getattr(prefix, key), getattr(fresh, key)), key
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(prefix.B, key), getattr(fresh.B, key)), key
            assert np.array_equal(getattr(prefix.full_B(), key), getattr(fresh.full_B(), key))
        assert (prefix.run.start, prefix.run.stop) == (fresh.run.start, fresh.run.stop)
        if problem is problems[-1]:
            continue
        # the built-in chains' tail run is the full system's, cut where its
        # rows would reach past the prefix: one state below its top
        m = prefix.size
        assert (prefix.run.start, prefix.run.stop) == (
            (full.run.start, m - 1) if case in ("gm1", "walk") else (m, m))
        if case != "hub":
            assert np.shares_memory(solver_mod._lu(prefix).ab, lu.ab)


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(4, 40), st.data())
def test_sweep_equals_its_pipelines_on_random_chains(seed, n, data):
    """Random sparse or dense chains, z anywhere in the smallest A: each
    sweep point, report or failure, is ``run_pipeline``'s at its A."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < rng.uniform(0.05, 0.7))
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.2
    P[np.arange(n), (np.arange(n) - 1) % n] += 0.2
    chain = matrix_chain(P / P.sum(axis=1, keepdims=True))
    sizes = sorted(data.draw(st.sets(st.integers(2, n), min_size=1, max_size=3)))
    z = data.draw(st.integers(0, sizes[0] - 1))
    K = sorted({z} | data.draw(st.sets(st.integers(0, sizes[0] - 1), max_size=2)))
    r = Reward(lambda xs: (xs % 5) * 0.75 + 0.5)
    cert = tight_certificate(chain, n, K, r)
    problems = [TruncationProblem(chain=chain, A=np.arange(a), z=z, K=K, r=r) for a in sizes]
    for problem, (outcome, _) in zip(problems, run_sweep(problems, cert)):
        try:
            want = run_pipeline(problem, cert)
        except (DegenerateDeltaError, PipelineError) as exc:
            want = exc
        assert repr(outcome) == repr(want)
