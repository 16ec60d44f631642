import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

import stattrunc
from stattrunc import (
    ChainFileError,
    Gm1Params,
    LyapunovCertificate,
    TruncationProblem,
    assemble_truncated_system,
    gm1_beta_coeffs,
    gm1_certificate,
    gm1_chain,
    load_chain_from_file,
    random_walk_certificate,
    random_walk_chain,
    verify_lyapunov_drift,
)
from stattrunc.chain import ROW_CHUNK, Reward, reward_values

from conftest import CERT_REFERENCES, expected_g

C = 2.01

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_beta_coeffs_match_quadrature():
    """beta_i = integral_0^c exp(-t) t^i / (c i!) dt, checked for i = 0..25."""
    betas = gm1_beta_coeffs(Gm1Params(c=C))[:26]
    for i in range(26):
        ref, err = integrate.quad(
            lambda t, i=i: np.exp(-t + i * np.log(t) - sum(np.log(k) for k in range(1, i + 1))) / C,
            0.0, C)
        assert abs(betas[i] - ref) <= 1e-12 + 10 * err


def test_beta_coeffs_mass_and_mean():
    # total mass 1; mean number served = E[interarrival] = c/2
    betas = gm1_beta_coeffs(Gm1Params(c=C))[:256]
    assert betas.sum() == pytest.approx(1.0, abs=1e-13)
    assert (np.arange(betas.size) * betas).sum() == pytest.approx(C / 2.0, abs=1e-12)
    assert np.all(betas >= 0.0)


def test_gm1_row_structure():
    chain = gm1_chain()
    betas = gm1_beta_coeffs(Gm1Params(c=C))[:64]
    row0 = chain.row(0)
    assert row0.targets.tolist() == [0, 1]
    assert row0.probs[1] == pytest.approx(betas[0], abs=1e-15)
    row5 = chain.row(5)
    for y in range(1, 7):
        k = 6 - y
        got = row5.probs[row5.targets == y]
        assert got[0] == pytest.approx(betas[k], rel=1e-14)
    # P(x, 0) is the coefficient tail, never a 1-minus-partial-sum
    assert row5.probs[row5.targets == 0][0] == pytest.approx(betas[6:].sum(), rel=1e-12)


def test_gm1_rows_sum_to_one():
    chain = gm1_chain()
    indptr, _, probs = chain.rows([0, 1, 2, 5, 50, 179, 300, 2000])
    assert np.abs(np.add.reduceat(probs, indptr[:-1]) - 1.0).max() <= 1e-13


def test_gm1_row_finite_support_far_out():
    # coefficients underflow around i ~ 180, so rows stay short forever
    row = gm1_chain().row(100_000)
    assert row.targets.size < 200
    assert row.targets.min() > 99_000


def test_random_walk_rows():
    chain = random_walk_chain()
    assert chain.row(0).entries == [(1, 1.0)]
    assert chain.row(7).entries == [(6, 2.0 / 3.0), (8, 1.0 / 3.0)]
    chain.rows(np.arange(50))  # every row passes the row check


def test_gm1_drift_audit_passes_with_large_K():
    prob = TruncationProblem(chain=gm1_chain(), A=np.arange(401), z=0,
                             K=np.arange(201), r=lambda x: float(x))
    report = verify_lyapunov_drift(prob, gm1_certificate())
    assert report.passed
    assert len(report.checked_states) == 201  # {201..401}
    assert report.excluded_states == list(range(201))


def test_gm1_drift_audit_fails_with_small_K():
    """300 x^2 cannot absorb the identity reward until x is a few hundred."""
    prob = TruncationProblem(chain=gm1_chain(), A=np.arange(401), z=0,
                             K=np.arange(61), r=lambda x: float(x))
    report = verify_lyapunov_drift(prob, gm1_certificate())
    assert not report.passed
    assert report.violations[0].state == 67
    assert all(v.kind == "g1" for v in report.violations)


def test_random_walk_drift_audit():
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(350), z=0,
                             K=np.arange(301), r=lambda x: x / 2.0)
    assert verify_lyapunov_drift(prob, random_walk_certificate()).passed


def test_drift_audit_detects_undersized_certificate():
    bad = LyapunovCertificate(g1=lambda x: 0.1 * x * x, g2=lambda x: float(x) ** 2)
    prob = TruncationProblem(chain=random_walk_chain(), A=np.arange(350), z=0,
                             K=np.arange(301), r=lambda x: x / 2.0)
    report = verify_lyapunov_drift(prob, bad)
    assert not report.passed
    # taboo sum shields the state next to K but nothing beyond it
    assert report.violations[0].state == 302


def reference_drift_audit(problem, certificate, window, rel_slack=1e-12):
    """The per-state audit: one ``chain.row`` and one K lookup per window state."""
    from stattrunc.bounds import DriftReport, DriftViolation
    from stattrunc.chain import member_mask
    report = DriftReport()

    def record(x, kind, lhs, rhs):
        slack = rhs - lhs
        report.max_slack = max(report.max_slack, slack)
        report.min_slack = min(report.min_slack, slack)
        if lhs > rhs + rel_slack * (1.0 + abs(rhs)):
            report.violations.append(DriftViolation(x, kind, lhs, rhs))

    for x in sorted(set(window)):
        if member_mask(np.array([x]), problem.K)[0]:
            report.excluded_states.append(x)
            continue
        row = problem.chain.row(x)
        out = ~member_mask(row.targets, problem.K)
        lhs1, lhs2 = expected_g(certificate, row.targets[out], row.probs[out])
        record(x, "g1", lhs1, float(certificate.g1(x)) - problem.reward(x))
        record(x, "g2", lhs2, float(certificate.g2(x)) - 1.0)
        report.checked_states.append(x)
    return report


@pytest.mark.parametrize("model", ["gm1", "walk", "walk_undersized", "walk_both_undersized"])
def test_drift_audit_matches_per_state_reference(model):
    # windows span several ROW_CHUNKs, skip states and include K states
    if model == "gm1":
        chain, cert, K, r = gm1_chain(), gm1_certificate(), np.arange(61), float
    else:
        chain, K, r = random_walk_chain(), np.arange(301), lambda x: x / 2.0
        cert = random_walk_certificate()
        if model == "walk_undersized":
            cert = LyapunovCertificate(g1=lambda x: 0.1 * x * x, g2=lambda x: float(x) ** 2)
        if model == "walk_both_undersized":   # g1 and g2 violations interleave
            cert = LyapunovCertificate(g1=lambda x: 0.1 * x * x, g2=lambda x: 1e-3 * x * x)
    prob = TruncationProblem(chain=chain, A=np.arange(2600), z=0, K=K, r=r)
    window = [x for x in range(3100) if x % 7 != 3] + [5000, 299]
    report = verify_lyapunov_drift(prob, cert, window)
    assert report == reference_drift_audit(prob, cert, window)
    assert report.checked_states and report.excluded_states
    assert (model == "walk") == report.passed


#: states 0 and 1, both sides of the first chunk boundaries, the walk's
#: deepest point, and one far past the range where x^2 is exact in doubles
BATCH_STATES = [0, 1, 2, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK - 1,
                2 * ROW_CHUNK, 10 ** 5 - 1, 10 ** 5, 10 ** 5 + 1, 10 ** 8 + 1, 3 * 10 ** 9 + 7]


@pytest.mark.parametrize("make", [gm1_certificate, random_walk_certificate])
def test_builtin_certificate_batch_forms_equal_scalar_forms(make):
    """Each drift function against its per-state formula, bit for bit."""
    cert = make()
    refs = CERT_REFERENCES["gm1" if make is gm1_certificate else "walk"]
    for xs in (np.array(BATCH_STATES), np.arange(3 * ROW_CHUNK + 5)):
        for name, ref in zip(("g1", "g2"), refs):
            g = getattr(cert, name)
            batch = g.batch_fn(xs)
            assert batch.dtype == np.float64
            assert batch.tobytes() == np.array([ref(x) for x in xs.tolist()]).tobytes()
            assert (reward_values(g, xs, name).tobytes()
                    == reward_values(ref, xs, name).tobytes())
            assert [g(x) for x in BATCH_STATES] == [ref(x) for x in BATCH_STATES]


def test_certificate_values_reject_bad_shapes_and_values():
    xs = np.arange(5)
    short = Reward(lambda xs: xs[:-1] * 1.0)
    with pytest.raises(ValueError, match="g1 batch_fn must return 5 values"):
        reward_values(short, xs, "g1")
    for bad in (-1.0, np.nan, np.inf):
        g = lambda x, bad=bad: bad if x == 3 else 1.0
        for g2 in (g, Reward(lambda xs, g=g: np.array([g(x) for x in xs.tolist()]))):
            with pytest.raises(ValueError, match=rf"g2 must be finite and non-negative, "
                                                 rf"got g2\(3\)={bad}"):
                reward_values(g2, xs, "g2")
    assert reward_values(short, [], "g1").size == 0


@pytest.mark.parametrize("model", ["gm1", "walk"])
def test_drift_audit_scalar_and_batch_forms_agree(model):
    if model == "gm1":
        chain, cert, K = gm1_chain(), gm1_certificate(), np.arange(61)
        reward, scalar = Reward(lambda xs: xs.astype(np.float64)), float
    else:
        chain, cert, K = random_walk_chain(), random_walk_certificate(), np.arange(301)
        reward, scalar = Reward(lambda xs: xs / 2.0), lambda x: x / 2.0
    scalar_cert = LyapunovCertificate(*CERT_REFERENCES[model])
    reports = []
    for c, r in ((cert, reward), (scalar_cert, scalar)):
        prob = TruncationProblem(chain=chain, A=np.arange(2600), z=0, K=K, r=r)
        reports.append(verify_lyapunov_drift(prob, c))
    assert reports[0] == reports[1]
    assert reports[0] == reference_drift_audit(prob, scalar_cert, reports[0].checked_states
                                               + reports[0].excluded_states)


def test_exact_exit_bounds_match_published_magnitudes():
    # on A = {0..a} only x = a escapes, so the exact h equals the magnitudes
    # the published sweeps pin at the boundary state, and vanishes elsewhere
    walk = assemble_truncated_system(
        TruncationProblem(chain=random_walk_chain(), A=np.arange(501), z=0,
                          K=np.arange(301), r=lambda x: x / 2.0),
        random_walk_certificate())
    assert walk.h1[-1] == pytest.approx(501.0 ** 2 / 3.0, rel=1e-15)
    assert walk.h2[-1] == walk.h1[-1]
    assert not walk.h1[:-1].any() and walk.h1_z == 0.0
    beta0 = gm1_beta_coeffs(Gm1Params(c=C))[0]
    gm1 = assemble_truncated_system(
        TruncationProblem(chain=gm1_chain(Gm1Params(c=C)), A=np.arange(1001), z=0,
                          K=np.arange(201), r=float),
        gm1_certificate())
    assert gm1.h1[-1] == pytest.approx(300.0 * beta0 * 1001.0 ** 2, rel=1e-15)
    assert gm1.h2[-1] == pytest.approx(300.0 * beta0 * 1001.0, rel=1e-15)
    assert not gm1.h1[:-1].any() and gm1.h1_z == 0.0


def test_load_chain_round_trip(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("# comment\nstates 3\n0 1 0.5\n0 2 0.5\n1 0 1.0\n2 0 1.0  # inline\n")
    chain = load_chain_from_file(path)
    assert chain.n_states == 3
    assert chain.row(0).entries == [(1, 0.5), (2, 0.5)]
    chain.rows(np.arange(3))  # every row passes the row check


@pytest.mark.parametrize("body,fragment", [
    ("0 1 1.0\n", "expected header"),
    ("states 0\n", "must be positive"),
    ("states 2\n0 1 1.0\n1 0\n", "expected 'src dst prob'"),
    ("states 2\n0 5 1.0\n1 0 1.0\n", "outside declared dimension"),
    ("states 2\n0 1 0.0\n1 0 1.0\n", "probability must be"),
    ("states 2\n0 1 1.5\n1 0 1.0\n", "bad.txt:2: probability must be in (0, 1]"),
    ("states 2\n0 1 nan\n1 0 1.0\n", "bad.txt:2: probability must be in (0, 1]"),
    ("states 2\n0 1 0.5\n0 1 0.5\n1 0 1.0\n",
     "row of state 0 has targets that are not strictly increasing"),
    ("states 2\n0 1 0.9\n1 0 1.0\n", "row of state 0 sums off by"),
    ("states 2\n0 1 1.0\n", "row of state 1 is empty"),
    ("states 2\n0 1 0.9999999995\n1 0 1.0\n", "row of state 0 sums off by 5.000e-10"),
    ("", "missing 'states N' header"),
])
def test_load_chain_rejects_malformed(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ChainFileError, match=fragment.replace("(", "\\(")) as exc:
        load_chain_from_file(path)
    assert str(path) in str(exc.value)


def test_load_chain_names_a_missing_file(tmp_path):
    path = tmp_path / "nope.txt"
    with pytest.raises(ChainFileError, match="^cannot read chain file ") as exc:
        load_chain_from_file(path)
    assert str(path) in str(exc.value)


def test_load_chain_names_a_file_that_is_not_utf8(tmp_path):
    """Bytes that do not decode as UTF-8 are a malformed chain file, not an
    I/O failure."""
    path = tmp_path / "bin.txt"
    path.write_bytes(b"states 2\n0 1 1.0\n\xff\xfe\x80 0 1.0\n")
    with pytest.raises(ChainFileError, match="^chain file .* is not UTF-8 text: ") as exc:
        load_chain_from_file(path)
    assert str(path) in str(exc.value)


LAZY_SPECIAL = """
import io, sys
from stattrunc import config, gm1_chain
from stattrunc.cli import run_experiment
walk = config.parse_config({"model": "random_walk", "z": 0, "K_max": 2, "a_values": [50]})
for cfg in (walk, config.load_config(sys.argv[1])):
    rows = run_experiment(cfg, validate=True, log=io.StringIO())
    assert all(r["status"] == "ok" and r["oracle_pass"] for r in rows), rows
print("scipy.special" in sys.modules)
gm1_chain()
print("scipy.special" in sys.modules)
"""


def test_only_gm1_loads_scipy_special():
    # walk and file-chain runs never import it; building a G/M/1 chain does
    src = os.path.dirname(os.path.dirname(os.path.abspath(stattrunc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", LAZY_SPECIAL,
                          os.path.join(CONFIG_DIR, "two_state.yaml")],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False", "True"]
