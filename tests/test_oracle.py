import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stattrunc import (
    OracleError,
    TruncationProblem,
    exact_stationary_finite,
    excursion_bound_check,
    matrix_chain,
    random_walk_certificate,
    regenerative_expectation_exact,
    simulate_cycles,
    tight_certificate,
    verify_lyapunov_drift,
)
from stattrunc.oracle import (
    DEFAULT_CYCLE_CAP,
    UNIFORM_BATCH,
    Z_99,
    CycleStats,
    _sparse_matrix,
)
from conftest import dirichlet_chain, reflecting_walk_matrix


def test_stationary_two_state(two_state):
    pi = exact_stationary_finite(two_state["chain"], 2)
    np.testing.assert_allclose(pi, two_state["pi"], atol=1e-14)


def test_stationary_doubly_stochastic(uniform4):
    pi = exact_stationary_finite(uniform4["chain"], 4)
    np.testing.assert_allclose(pi, 0.25, atol=1e-14)


def test_stationary_detailed_balance():
    n, up = 30, 0.3
    chain = matrix_chain(reflecting_walk_matrix(n, up))
    pi = exact_stationary_finite(chain, n)
    # independent reference from the birth-death balance equations
    w = np.ones(n)
    w[1] = 1.0 / (1.0 - up)          # pi(0) * 1 = pi(1) * (1 - up)
    for x in range(2, n):
        w[x] = w[x - 1] * up / (1.0 - up)
    # entries span nine orders of magnitude; the certified residual is
    # scale-relative, so far-tail components carry absolute (not relative)
    # accuracy
    np.testing.assert_allclose(pi, w / w.sum(), rtol=1e-8, atol=1e-13)


def test_stationary_rejects_reducible():
    # two closed classes: the replaced-row system is singular
    P = np.zeros((4, 4))
    P[0, 1] = P[1, 0] = 1.0
    P[2, 3] = P[3, 2] = 1.0
    with pytest.raises(OracleError, match="singular"):
        exact_stationary_finite(matrix_chain(P), 4)
    # transient state: solvable, but the stationary vector has a zero entry
    Q = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(OracleError, match="reducible"):
        exact_stationary_finite(matrix_chain(Q), 2)


def test_regenerative_expectation_two_state(two_state):
    chain = two_state["chain"]
    assert regenerative_expectation_exact(chain, 2, 0, lambda x: 1.0) == \
        pytest.approx(1.5, abs=1e-13)
    # each cycle visits its start exactly once
    assert regenerative_expectation_exact(chain, 2, 0, lambda x: float(x == 0)) == \
        pytest.approx(1.0, abs=1e-13)
    assert regenerative_expectation_exact(chain, 2, 1, lambda x: 1.0) == \
        pytest.approx(3.0, abs=1e-13)


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_regenerative_expectation_rejects_bad_f_values(two_state, bad):
    f = lambda x: bad if x == 1 else 1.0
    with pytest.raises(ValueError,
                       match=rf"f must be finite and non-negative, got f\(1\)={bad}"):
        regenerative_expectation_exact(two_state["chain"], 2, 0, f)


def test_kac_identity_random_chain():
    chain, _, pi = dirichlet_chain(77, 15)
    for z in (0, 7, 14):
        ez = regenerative_expectation_exact(chain, 15, z, lambda x: 1.0)
        assert pi[z] * ez == pytest.approx(1.0, abs=1e-11)


def test_cycle_ratio_equals_stationary_expectation():
    chain, _, pi = dirichlet_chain(123, 10)
    rvals = np.linspace(0.0, 4.5, 10)
    num = regenerative_expectation_exact(chain, 10, 3, lambda x: float(rvals[x]))
    den = regenerative_expectation_exact(chain, 10, 3, lambda x: 1.0)
    assert num / den == pytest.approx(float(pi @ rvals), abs=1e-12)


def test_tight_certificate_has_zero_drift_slack():
    chain, _, _ = dirichlet_chain(9, 12)
    r = lambda x: float(x) + 0.5
    cert = tight_certificate(chain, 12, [0, 1], r)
    prob = TruncationProblem(chain=chain, A=range(12), z=0, K=[0, 1], r=r)
    report = verify_lyapunov_drift(prob, cert)
    assert report.passed
    scale = 1.0 + max(cert.g1(x) for x in range(12))
    assert abs(report.min_slack) <= 1e-10 * scale
    assert report.max_slack <= 1e-10 * scale


def test_tight_certificate_rejects_unreachable_K():
    P = np.zeros((3, 3))
    P[0, 1] = P[1, 0] = 1.0
    P[2, 2] = 1.0  # state 2 can never reach K = {0}
    with pytest.raises(OracleError, match="singular"):
        tight_certificate(matrix_chain(P), 3, [0], lambda x: 1.0)


def reference_tight_certificate(chain, n, K, r):
    """Dense reference for ``tight_certificate``.

    P from per-state ``chain.row`` calls, then two separate dense solves of
    (I - P restricted to the complement of K) u = r, 1.  Returns (g1, g2)
    as arrays over {0..n-1}.
    """
    P = np.zeros((n, n))
    for x in range(n):
        row = chain.row(x)
        P[x, row.targets] = row.probs
    K_set = {int(k) for k in K}
    idx = np.array(sorted(set(range(n)) - K_set), dtype=np.int64)
    g1 = np.zeros(n)
    g2 = np.zeros(n)
    if idx.size:
        M = np.eye(idx.size) - P[np.ix_(idx, idx)]
        rvec = np.array([float(r(int(x))) for x in idx])
        try:
            u1 = np.linalg.solve(M, rvec)
            u2 = np.linalg.solve(M, np.ones(idx.size))
        except np.linalg.LinAlgError as exc:
            raise OracleError(f"certificate solve singular: {exc}") from exc
        if not (np.isfinite(u1).all() and np.isfinite(u2).all()):
            raise OracleError("certificate solve produced non-finite values")
        if u1.min() < -1e-9 or u2.min() < 1.0 - 1e-9:
            raise OracleError("certificate solve inconsistent; K may be "
                              "unreachable from part of the chain")
        g1[idx] = np.maximum(u1, 0.0)
        g2[idx] = np.maximum(u2, 0.0)
    return g1, g2


def certificate_arrays(cert, n):
    return (np.array([cert.g1(x) for x in range(n)]),
            np.array([cert.g2(x) for x in range(n)]))


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.data())
def test_tight_certificate_matches_dense_reference(chain_seed, n, data):
    chain = random_sparse_chain(chain_seed, n)
    K = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    rvals = data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    r = lambda x: rvals[x]
    cert = tight_certificate(chain, n, K, r)
    g1, g2 = certificate_arrays(cert, n)
    ref1, ref2 = reference_tight_certificate(chain, n, K, r)
    np.testing.assert_allclose(g1, ref1, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(g2, ref2, rtol=1e-10, atol=0.0)
    prob = TruncationProblem(chain=chain, A=range(n), z=min(K), K=K, r=r)
    report = verify_lyapunov_drift(prob, cert)
    assert report.passed
    scale = 1.0 + float(max(g1.max(), g2.max()))
    assert abs(report.min_slack) <= 1e-10 * scale


def test_tight_certificate_rejects_closed_class_outside_K():
    # a 25-state reflecting walk plus a closed 5-cycle that never reaches it
    P = np.zeros((30, 30))
    P[:25, :25] = reflecting_walk_matrix(25, 0.4)
    for i in range(5):
        P[25 + i, 25 + (i + 1) % 5] = 1.0
    chain = matrix_chain(P)
    with pytest.raises(OracleError, match="singular"):
        tight_certificate(chain, 30, [0], lambda x: 1.0)
    with pytest.raises(OracleError, match="singular"):
        reference_tight_certificate(chain, 30, [0], lambda x: 1.0)


def test_tight_certificate_single_state_complement():
    # K = {0, 2}: from 1 the chain waits a geometric time, then hits K
    P = np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    cert = tight_certificate(matrix_chain(P), 3, [0, 2], lambda x: 2.0)
    g1, g2 = certificate_arrays(cert, 3)
    np.testing.assert_allclose(g1, [0.0, 2.0 / 0.7, 0.0], rtol=1e-15)
    np.testing.assert_allclose(g2, [0.0, 1.0 / 0.7, 0.0], rtol=1e-15)


class _SkewedFactor:
    """An LU whose solves come back scaled by ``factor``."""

    def __init__(self, lu, factor):
        self.lu, self.factor = lu, factor

    def solve(self, b):
        return self.factor * self.lu.solve(b)


@pytest.mark.parametrize("factor, message", [(1.1, "certificate residual"),
                                             (np.nan, "non-finite")])
def test_tight_certificate_checks_its_solve(monkeypatch, factor, message):
    import scipy.sparse.linalg as spla
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M: _SkewedFactor(splu(M), factor))
    chain, _, _ = dirichlet_chain(9, 12)
    with pytest.raises(OracleError, match=message):
        tight_certificate(chain, 12, [0, 1], lambda x: float(x) + 0.5)


def drift_chain_file(path, seed, n=1500):
    """Sparse chain on {0..n-1}: jumps of +-1..3 with a downward drift.

    Each state picks 1-3 jump sizes with random weights and a down
    probability in [0.52, 0.62]; jumps below 0 land on 0 and jumps past
    n-1 are dropped before normalising, so the chain is irreducible.
    """
    rng = np.random.default_rng(seed)
    lines = [f"states {n}"]
    for x in range(n):
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k))
        p_down = float(rng.uniform(0.52, 0.62))
        mass = {}
        for d, w in zip(range(1, k + 1), weights):
            mass[max(x - d, 0)] = mass.get(max(x - d, 0), 0.0) + p_down * float(w)
            if x + d < n:
                mass[x + d] = mass.get(x + d, 0.0) + (1.0 - p_down) * float(w)
        total = sum(mass.values())
        lines += [f"{x} {y} {mass[y] / total!r}" for y in sorted(mass)]
    path.write_text("\n".join(lines) + "\n")
    return path


G_FREE_COLUMNS = ("a", "kappa_lower_r", "kappa_lower_e", "delta", "beta",
                  "pi_tilde_r", "status", "oracle_ratio", "oracle_half_width",
                  "oracle_pass")
G_COLUMNS = ("Delta1", "Delta2", "kappa_upper_r", "kappa_upper_e", "lower",
             "upper", "error_bound", "tv_bound")


@pytest.mark.parametrize("seed", [1, 2])
def test_validated_file_sweep_matches_dense_certificate(tmp_path, monkeypatch, seed):
    import io
    import stattrunc.oracle as oracle_module
    from stattrunc import LyapunovCertificate
    from stattrunc.cli import run_experiment
    from stattrunc.config import parse_config

    config = parse_config({
        "model": f"file:{drift_chain_file(tmp_path / 'chain.txt', seed)}",
        "z": 0, "K_max": 20, "a_values": [200, 400, 800, 1500],
        "r_spec": "identity", "oracle": {"seed": seed, "n_cycles": 2000}})
    rows = run_experiment(config, validate=True, log=io.StringIO())

    def dense(chain, n, K, r):
        g1, g2 = reference_tight_certificate(chain, n, K, r)
        return LyapunovCertificate(g1=lambda x: float(g1[x]),
                                   g2=lambda x: float(g2[x]))

    monkeypatch.setattr(oracle_module, "tight_certificate", dense)
    expected = run_experiment(config, validate=True, log=io.StringIO())
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert all(r["oracle_pass"] is True for r in rows)
    for row, ref in zip(rows, expected):
        assert [row[c] for c in G_FREE_COLUMNS] == [ref[c] for c in G_FREE_COLUMNS]
        np.testing.assert_allclose([row[c] for c in G_COLUMNS],
                                   [ref[c] for c in G_COLUMNS], rtol=1e-12, atol=0.0)


def test_dense_matrix_names_first_state_leaving_the_block():
    from stattrunc import random_walk_chain
    P = _sparse_matrix(matrix_chain(reflecting_walk_matrix(6, 0.3)), 6).toarray()
    np.testing.assert_array_equal(P, reflecting_walk_matrix(6, 0.3))
    with pytest.raises(OracleError, match=r"state 39 has transitions outside \{0..39\}"):
        _sparse_matrix(random_walk_chain(), 40)
    # states 1 and 3 both leave {0..3}; the first is named
    P = np.zeros((6, 6))
    P[[0, 1, 2, 3, 4, 5], [1, 5, 0, 5, 0, 0]] = 1.0
    with pytest.raises(OracleError, match=r"state 1 has transitions outside \{0..3\}"):
        _sparse_matrix(matrix_chain(P), 4)


def reference_simulate_cycles(chain, z, K, A, r, n_cycles, seed, *,
                              max_steps=DEFAULT_CYCLE_CAP, max_tracked=64,
                              blocks=None):
    """The per-step numpy simulator that defines the stream contract.

    One ``rng.random(256)`` call at the start of each cycle and one more
    each time a cycle uses up its block; ``np.searchsorted`` on the row's
    cumulative probabilities, clamped to the last target.  When given, the
    list ``blocks`` receives the number of blocks each cycle drew.
    """
    rng = np.random.default_rng(seed)
    z = int(z)
    K_set = {int(k) for k in K}
    A_set = {int(a) for a in A}
    row_cache = {}

    def sample_next(x, u):
        if x not in row_cache:
            row = chain.row(x)
            row_cache[x] = (row.targets, np.cumsum(row.probs))
        targets, cum = row_cache[x]
        j = int(np.searchsorted(cum, u, side="right"))
        if j >= targets.size:
            j = targets.size - 1
        return int(targets[j])

    rewards = np.empty(n_cycles)
    lengths = np.empty(n_cycles)
    survival_counts = np.zeros(max_tracked, dtype=np.int64)
    for c in range(n_cycles):
        x, crew, clen, rounds, escaped = z, float(r(z)), 1, 0, False
        uniforms = rng.random(256)
        pos, drawn = 0, 1
        while True:
            if pos == uniforms.size:
                uniforms = rng.random(uniforms.size)
                pos, drawn = 0, drawn + 1
            x = sample_next(x, float(uniforms[pos]))
            pos += 1
            if x == z:
                break
            if clen >= max_steps:
                raise RuntimeError(
                    f"cycle {c} exceeded {max_steps} steps without returning "
                    f"to z={z}; chain may not be positive recurrent")
            crew += float(r(x))
            clen += 1
            if not escaped:
                if x not in A_set:
                    escaped = True
            elif x in K_set:
                rounds += 1
                escaped = False
        rewards[c] = crew
        lengths[c] = clen
        if rounds:
            survival_counts[:min(rounds, max_tracked)] += 1
        if blocks is not None:
            blocks.append(drawn)

    mean_reward = float(rewards.mean())
    mean_length = float(lengths.mean())
    ratio = mean_reward / mean_length
    if n_cycles > 1:
        d = rewards - ratio * lengths
        hw = Z_99 * float(d.std(ddof=1)) / (mean_length * np.sqrt(n_cycles))
    else:
        hw = float("inf")
    tracked = int(np.max(np.nonzero(survival_counts)[0]) + 1) \
        if survival_counts.any() else 0
    survival = tuple(float(survival_counts[i]) / n_cycles for i in range(tracked))
    return CycleStats(n_cycles=n_cycles, mean_reward=mean_reward,
                      mean_length=mean_length, ratio=ratio, half_width=hw,
                      excursion_survival=survival, seed=int(seed))


def assert_matches_reference(*args, blocks=None, **kwargs):
    expected = reference_simulate_cycles(*args, blocks=blocks, **kwargs)
    assert simulate_cycles(*args, **kwargs) == expected
    return expected


def random_sparse_chain(seed, n):
    """Irreducible chain on {0..n-1}: a cycle 0->1->..->0 plus random extra edges."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=n) * (rng.random((n, n)) < 0.4)
    P[np.arange(n), (np.arange(n) + 1) % n] += rng.random(n) + 0.05
    return matrix_chain(P / P.sum(axis=1, keepdims=True))


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(2, 9), st.integers(1, 150),
       st.integers(0, 2**63 - 1), st.data())
def test_simulation_matches_reference_on_random_chains(chain_seed, n, n_cycles,
                                                       seed, data):
    chain = random_sparse_chain(chain_seed, n)
    z = data.draw(st.integers(0, n - 1))
    K = {z} | data.draw(st.sets(st.integers(0, n - 1)))
    A = K | data.draw(st.sets(st.integers(0, n - 1)))
    rvals = data.draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    assert_matches_reference(chain, z, K, A, lambda x: rvals[x], n_cycles, seed)


@pytest.mark.parametrize("n_cycles", [1, UNIFORM_BATCH, UNIFORM_BATCH + 1])
def test_simulation_matches_reference_at_batch_boundary(excursion_chain, n_cycles):
    stats = assert_matches_reference(
        excursion_chain["chain"], 0, excursion_chain["K"], excursion_chain["A"],
        lambda x: 0.1 * x, n_cycles, 17)
    assert stats.n_cycles == n_cycles


def forward_path_chain(n):
    """0 -> 1, then steps of +1 or +2 (prob 1/2 each) up to n-1, which returns to 0."""
    P = np.zeros((n, n))
    P[0, 1] = 1.0
    for x in range(1, n - 1):
        P[x, x + 1] += 0.5
        P[x, min(x + 2, n - 1)] += 0.5
    P[n - 1, 0] = 1.0
    return matrix_chain(P)


def test_simulation_matches_reference_on_long_cycles():
    # cycles of ~256 steps use one or two blocks, so the block queue both
    # overruns and moves to a new batch in the middle of a cycle
    chain = forward_path_chain(383)
    blocks = []
    stats = assert_matches_reference(chain, 0, range(10), range(100),
                                     lambda x: 0.01 * x, 3 * UNIFORM_BATCH, 6,
                                     blocks=blocks)
    assert stats.mean_length > 200 and max(blocks) == 2
    starts = np.cumsum([0] + blocks[:-1])
    crossing = [c for c, (s, b) in enumerate(zip(starts, blocks))
                if s // UNIFORM_BATCH != (s + b - 1) // UNIFORM_BATCH]
    assert crossing
    # a near-critical walk: cycles of several blocks
    walk = matrix_chain(reflecting_walk_matrix(400, 0.49))
    blocks = []
    assert_matches_reference(walk, 0, range(5), range(50), float, 300, 3,
                             blocks=blocks)
    assert max(blocks) > 2


def test_simulation_matches_reference_when_row_mass_falls_short():
    # rows summing to 0.6 break the row contract: the simulator and its
    # reference both stop at the first row they read
    P = np.array([[0.2, 0.4], [0.3, 0.3]])
    chain = matrix_chain(P)
    for simulate in (reference_simulate_cycles, simulate_cycles):
        with pytest.raises(ValueError, match=r"^row of state 0 sums off by 4\.000e-01$"):
            simulate(chain, 0, [0], [0, 1], float, 500, 8)


def test_simulation_cycle_cap_message_matches_reference():
    for chain, cap in ((forward_path_chain(383), 200), (random_sparse_chain(3, 6), 1)):
        with pytest.raises(RuntimeError) as expected:
            reference_simulate_cycles(chain, 0, [0], [0], float, 100, 2,
                                      max_steps=cap)
        with pytest.raises(RuntimeError) as got:
            simulate_cycles(chain, 0, [0], [0], float, 100, 2, max_steps=cap)
        assert str(got.value) == str(expected.value)


def test_simulation_is_deterministic(two_state):
    a = simulate_cycles(two_state["chain"], 0, [0], [0, 1], two_state["r"],
                        2000, seed=42)
    b = simulate_cycles(two_state["chain"], 0, [0], [0, 1], two_state["r"],
                        2000, seed=42)
    c = simulate_cycles(two_state["chain"], 0, [0], [0, 1], two_state["r"],
                        2000, seed=43)
    assert a == b
    assert a.ratio != c.ratio
    assert a.rng_algorithm == "numpy.random.default_rng (PCG64)"


def test_simulation_two_state_confidence_interval(two_state):
    stats = simulate_cycles(two_state["chain"], 0, [0], [0, 1], two_state["r"],
                            200_000, seed=7)
    assert stats.mean_length == pytest.approx(1.5, abs=0.01)
    assert abs(stats.ratio - 1.0 / 3.0) <= stats.half_width
    assert stats.half_width < 1.5e-3


def test_simulation_walk_ratio(two_state):
    from stattrunc import random_walk_chain
    stats = simulate_cycles(random_walk_chain(), 0, [0], range(200),
                            lambda x: x / 2.0, 30_000, seed=11)
    assert abs(stats.ratio - 0.75) <= stats.half_width
    assert stats.half_width < 0.05


def test_simulation_survival_shape(excursion_chain):
    stats = simulate_cycles(excursion_chain["chain"], 0, excursion_chain["K"],
                            excursion_chain["A"], lambda x: 1.0, 20_000, seed=3)
    surv = np.array(stats.excursion_survival)
    assert surv.size > 0
    assert np.all(np.diff(surv) <= 0.0)
    assert np.all((0.0 <= surv) & (surv <= 1.0))


def test_simulation_survival_tracks_geometric_bound(excursion_chain):
    """Empirical excursion tail vs (1-beta)(1-delta)^(i-1), both exactly 4/7 here."""
    n = 100_000
    stats = simulate_cycles(excursion_chain["chain"], 0, excursion_chain["K"],
                            excursion_chain["A"], lambda x: 1.0, n, seed=99)
    beta = delta = excursion_chain["beta"]
    for i, p_hat in enumerate(stats.excursion_survival, start=1):
        se = np.sqrt(p_hat * (1.0 - p_hat) / n)
        assert p_hat <= (1.0 - beta) * (1.0 - delta) ** (i - 1) + 3.0 * se


def test_simulation_argument_validation(two_state):
    with pytest.raises(ValueError, match="n_cycles"):
        simulate_cycles(two_state["chain"], 0, [0], [0, 1], two_state["r"], 0, seed=1)
    with pytest.raises(ValueError, match="z in K"):
        simulate_cycles(two_state["chain"], 0, [1], [0, 1], two_state["r"], 10, seed=1)
    single = simulate_cycles(two_state["chain"], 0, [0], [0, 1], two_state["r"],
                             1, seed=1)
    assert single.half_width == np.inf


def test_simulation_cycle_cap():
    from stattrunc import random_walk_chain
    with pytest.raises(RuntimeError, match="positive recurrent"):
        simulate_cycles(random_walk_chain(), 0, [0], range(50), lambda x: 1.0,
                        100, seed=5, max_steps=1)


@pytest.mark.parametrize("bad", [np.nan, -5.0], ids=["nan", "negative"])
@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
def test_simulation_rejects_bad_reward_at_visited_state(bad, batch):
    """A NaN or negative reward at a visited state is a ValueError naming it,
    not a ratio of nan or a plausible-looking one."""
    from stattrunc import Reward, random_walk_chain
    r = (Reward(lambda xs: np.where(xs == 4, bad, xs / 2.0)) if batch
         else lambda x: bad if x == 4 else x / 2.0)
    with pytest.raises(ValueError, match=rf"finite and non-negative, got r\(4\)={bad}"):
        simulate_cycles(random_walk_chain(), 0, [0], range(50), r, 2000, seed=5)


def test_excursion_check_tight_bound_has_zero_slack():
    chain, _, _ = dirichlet_chain(55, 10)
    r = lambda x: float(x)
    cert = tight_certificate(chain, 10, [0], r)
    report = excursion_bound_check(chain, 10, [0], range(10), cert.g1, r)
    assert report.passed and not report.drift_failures
    assert max(abs(s) for s in report.slack) <= 1e-9 * (1.0 + max(report.bounds))
    # the drift sum stops at K, so g's values on K do not enter it
    lifted = excursion_bound_check(chain, 10, [0], range(10),
                                   lambda x: 1e6 if x == 0 else cert.g1(x), r)
    assert lifted == report


def test_excursion_check_detects_undersized_bound():
    chain, _, _ = dirichlet_chain(55, 10)
    r = lambda x: float(x)
    cert = tight_certificate(chain, 10, [0], r)
    small = lambda x: 0.5 * cert.g1(x)
    report = excursion_bound_check(chain, 10, [0], range(10), small, r)
    assert not report.passed
    assert report.drift_failures  # halving breaks the drift inequality too


def test_excursion_check_walk_certificate():
    # quadratic certificate dominates the exact excursion reward on a large
    # finite restriction of the walk (reflection only speeds up the return)
    n = 500
    chain = matrix_chain(reflecting_walk_matrix(n, 1.0 / 3.0))
    cert = random_walk_certificate()
    report = excursion_bound_check(chain, n, range(21), range(100), cert.g1,
                                   lambda x: x / 2.0)
    assert report.passed and not report.drift_failures
    assert report.states == list(range(21, 100))
    assert all(s >= 0.0 for s in report.slack)
