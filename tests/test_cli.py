import csv
import io
import json
import os

import numpy as np
import pytest

from stattrunc.cli import COLUMNS, ORACLE_COLUMNS, emit, main, run_experiment
from stattrunc.config import parse_config

from conftest import BROKEN_WALK_ROWS, broken_walk

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
TWO_STATE_YAML = os.path.join(CONFIG_DIR, "two_state.yaml")


def write_cycle_chain(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("states 3\n0 1 1.0\n1 2 1.0\n2 0 1.0\n")
    return path


def test_run_experiment_two_state():
    from stattrunc import load_config
    rows = run_experiment(load_config(TWO_STATE_YAML), log=io.StringIO())
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row.keys()) == COLUMNS
    assert row["status"] == "ok"
    assert row["a"] == 2
    assert row["lower"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert row["upper"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert row["error_bound"] <= 1e-12
    assert row["wall_time_seconds"] > 0.0


def test_run_experiment_walk_sweep():
    cfg = parse_config({"model": "random_walk", "z": 0, "K_max": 20,
                        "a_values": [100, 200], "r_spec": "half"})
    log = io.StringIO()
    rows = run_experiment(cfg, log=log)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    widths = [r["upper"] - r["lower"] for r in rows]
    assert widths[1] <= widths[0] + 1e-15
    assert all(r["lower"] <= 0.75 <= r["upper"] for r in rows)
    assert log.getvalue() == ""  # monotone sweep, nothing to warn about


def test_run_experiment_oracle_cross_check():
    cfg = parse_config({"model": "random_walk", "z": 0, "K_max": 20,
                        "a_values": [150], "r_spec": "half",
                        "oracle": {"n_cycles": 4000, "seed": 13}})
    row = run_experiment(cfg, validate=True, log=io.StringIO())[0]
    assert tuple(row.keys()) == COLUMNS + ORACLE_COLUMNS
    assert row["oracle_pass"] is True
    assert row["oracle_ratio"] == pytest.approx(0.75, abs=0.05)
    assert row["oracle_half_width"] > 0.0


def test_run_experiment_degenerate_row(tmp_path):
    chain = write_cycle_chain(tmp_path)
    cfg = parse_config({"model": f"file:{chain}", "z": 0, "K_max": 1,
                        "a_values": [2]})
    log = io.StringIO()
    rows = run_experiment(cfg, log=log)
    assert rows[0]["status"] == "degenerate_delta"
    assert rows[0]["lower"] != rows[0]["lower"]  # NaN
    assert "enlarge A or shrink K" in log.getvalue()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_reward_row_is_a_numerical_error(monkeypatch, value):
    import stattrunc.cli as cli_module
    from stattrunc import Reward
    monkeypatch.setattr(cli_module, "build_reward", lambda cfg: Reward(
        lambda xs: np.where(xs == 5, value, xs / 2.0)))
    cfg = parse_config({"model": "random_walk", "z": 0, "K_max": 0,
                        "a_values": [4, 100], "r_spec": "half"})
    log = io.StringIO()
    rows = run_experiment(cfg, log=log)
    assert [r["status"] for r in rows] == ["ok", "numerical_error"]
    assert rows[1]["upper"] != rows[1]["upper"]  # NaN, not a printed interval
    assert f"r(5)={value}" in log.getvalue()


@pytest.mark.parametrize("form", ["rows_fn", "row_fn"])
@pytest.mark.parametrize("fault", sorted(BROKEN_WALK_ROWS))
def test_broken_chain_row_is_a_numerical_error(monkeypatch, fault, form):
    import stattrunc.cli as cli_module
    monkeypatch.setattr(cli_module, "build_chain", lambda cfg: broken_walk(fault, form))
    bad_x = BROKEN_WALK_ROWS[fault][0]
    cfg = parse_config({"model": "random_walk", "z": 0, "K_max": 3,
                        "a_values": [100], "r_spec": "half"})
    log = io.StringIO()
    rows = run_experiment(cfg, log=log)
    assert [r["status"] for r in rows] == ["numerical_error"]
    assert rows[0]["lower"] != rows[0]["lower"]  # NaN, not a printed interval
    assert f"row of state {bad_x} " in log.getvalue()


def test_emit_csv_round_trip(tmp_path):
    rows = [{"a": 1, "x": 0.123456789012345, "ok": True},
            {"a": 2, "x": float("nan"), "ok": False}]
    out = tmp_path / "t.csv"
    emit(rows, format="csv", path=str(out))
    with open(out) as fh:
        got = list(csv.DictReader(fh))
    assert got[0]["x"] == "0.123456789012"
    assert got[0]["ok"] == "true" and got[1]["ok"] == "false"
    assert got[1]["x"] == "nan"


def test_emit_json_round_trip(tmp_path):
    rows = [{"a": 1, "x": 0.5, "note": "fine"},
            {"a": 2, "x": float("nan"), "note": "broken"}]
    out = tmp_path / "t.json"
    emit(rows, format="json", path=str(out))
    text = out.read_text()
    assert "NaN" not in text  # strict JSON only
    got = json.loads(text)
    assert got[0]["x"] == 0.5 and got[1]["x"] is None


def test_emit_rejects_bad_tables(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit([], path=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="identical columns"):
        emit([{"a": 1}, {"b": 2}], path=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="unknown format"):
        emit([{"a": 1}], format="tsv", path=str(tmp_path / "x.csv"))


def test_main_success_csv(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = main(["run", TWO_STATE_YAML, "--out", str(out), "--format", "csv"])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["lower"]) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_main_uses_config_output_format(tmp_path):
    # two_state.yaml declares json output
    out = tmp_path / "res.json"
    assert main(["run", TWO_STATE_YAML, "--out", str(out)]) == 0
    assert json.loads(out.read_text())[0]["status"] == "ok"


def test_main_stdout_default(capsys):
    assert main(["run", TWO_STATE_YAML]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got[0]["status"] == "ok"


def test_main_validate_flag(capsys):
    assert main(["run", TWO_STATE_YAML, "--validate"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["status"] == "ok"


def test_main_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", str(missing)]) == 2
    assert "stattrunc:" in capsys.readouterr().err
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: gm1\n")  # missing required keys
    assert main(["run", str(bad)]) == 2


def test_main_missing_chain_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "miss.yaml"
    cfg.write_text("model: file:nope.txt\nz: 0\nK_max: 0\na_values: [2]\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "config error: cannot read chain file" in err[0]
    assert str(tmp_path / "nope.txt") in err[0]


def test_main_all_rows_failed_exit_code(tmp_path, capsys):
    chain = write_cycle_chain(tmp_path)
    cfg = tmp_path / "degenerate.yaml"
    cfg.write_text(
        f"model: file:{chain.name}\nz: 0\nK_max: 1\na_values: [2]\n")
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "enlarge A or shrink K" in err


def test_main_unwritable_output(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "res.csv"
    assert main(["run", TWO_STATE_YAML, "--out", str(out)]) == 1


@pytest.mark.parametrize("solver", [
    "{method: bogus}", "{tol: 0.0}", "{tol: -1.0}", "{max_iter: 0}",
    "{memory_budget: -1}",
])
def test_main_bad_solver_settings_are_config_errors(tmp_path, capsys, solver):
    cfg = tmp_path / "bad_solver.yaml"
    cfg.write_text("model: random_walk\nz: 0\nK_max: 2\na_values: [10]\n"
                   f"solver: {solver}\n")
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    ("oracle: {n_cycles: 0}", "n_cycles"), ("oracle: {seed: -1}", "seed"),
    ("solver: {tol: .inf}", "tol"),
])
def test_main_bad_oracle_and_solver_values_exit_2(tmp_path, capsys, section, key):
    # rejected when the config is read, before any point is solved or simulated
    cfg = tmp_path / "bad_value.yaml"
    cfg.write_text(f"model: random_walk\nz: 0\nK_max: 2\na_values: [10]\n{section}\n")
    assert main(["run", str(cfg), "--validate"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("stattrunc: config error: ") and f"{key} must be" in lines[0]


def test_main_chain_without_certificate_is_a_config_error(tmp_path, capsys):
    # two closed classes, 0 <-> 1 and 2 <-> 3: K = {0} is unreachable from
    # 2 and 3, so no drift certificate exists
    chain = tmp_path / "two_classes.txt"
    chain.write_text("states 4\n0 1 1.0\n1 0 1.0\n2 3 1.0\n3 2 1.0\n")
    cfg = tmp_path / "two_classes.yaml"
    cfg.write_text(f"model: file:{chain.name}\nz: 0\nK_max: 0\na_values: [4]\n")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("stattrunc: config error: ")
    assert "no drift certificate" in lines[0] and "two_classes.txt" in lines[0]


@pytest.mark.parametrize("form", ["rows_fn", "row_fn"])
@pytest.mark.parametrize("fault", ["negative", "nan"])
def test_broken_row_fails_only_the_points_whose_A_holds_it(monkeypatch, fault, form):
    """The sweep's one assembly, at a = 100, reads the broken row at 50 and
    fails; each point is then assembled on its own, so a = 20 is still ok."""
    import stattrunc.cli as cli_module
    monkeypatch.setattr(cli_module, "build_chain", lambda cfg: broken_walk(fault, form))
    cfg = parse_config({"model": "random_walk", "z": 0, "K_max": 3,
                        "a_values": [20, 100], "r_spec": "half"})
    log = io.StringIO()
    rows = run_experiment(cfg, log=log)
    assert [r["status"] for r in rows] == ["ok", "numerical_error"]
    assert log.getvalue().startswith("stattrunc: a=100: ")
    assert "row of state 50 " in log.getvalue()
    alone = io.StringIO()
    run_experiment(parse_config({"model": "random_walk", "z": 0, "K_max": 3,
                                 "a_values": [100], "r_spec": "half"}), log=alone)
    assert log.getvalue() == alone.getvalue()


@pytest.mark.parametrize("where", ["r", "g1"])
def test_non_finite_value_fails_only_the_points_that_read_it(monkeypatch, where):
    """A NaN reward at 60 is read by the a = 100 assembly only.  A NaN g1 at
    20 is read only by a = 20, whose exit bound needs g1 past its A: the
    sweep's prefix of the a = 100 system reads it, and fails as that
    point's own assembly would."""
    import stattrunc.cli as cli_module
    from stattrunc import LyapunovCertificate, Reward
    bad = Reward(lambda xs: np.where(xs == (60 if where == "r" else 20), np.nan, xs / 2.0))
    if where == "r":
        monkeypatch.setattr(cli_module, "build_reward", lambda cfg: bad)
    else:
        build = cli_module.build_certificate
        monkeypatch.setattr(cli_module, "build_certificate", lambda *args: LyapunovCertificate(
            g1=bad, g2=build(*args).g2))
    cfg = parse_config({"model": "random_walk", "z": 0, "K_max": 3,
                        "a_values": [20, 100], "r_spec": "half"})
    log = io.StringIO()
    rows = run_experiment(cfg, log=log)
    bad_a = 100 if where == "r" else 20
    assert [r["status"] for r in rows] == [
        "numerical_error" if a == bad_a else "ok" for a in (20, 100)]
    fragment = "r(60)=nan" if where == "r" else "g1(20)=nan"
    assert log.getvalue().startswith(f"stattrunc: a={bad_a}: stage 'assemble' failed: ")
    assert fragment in log.getvalue()
    # the log of one point at a time
    alone = io.StringIO()
    for a in (20, 100):
        run_experiment(parse_config({"model": "random_walk", "z": 0, "K_max": 3,
                                     "a_values": [a], "r_spec": "half"}), log=alone)
    assert log.getvalue() == alone.getvalue()


def write_drift_chain(tmp_path, n=60):
    """Birth-death chain on {0..n-1} with jumps of 1 or 2 and downward drift."""
    lines = [f"states {n}"]
    for x in range(n):
        mass = {}
        for d, p in ((-1, 0.4), (-2, 0.2), (1, 0.25), (2, 0.15)):
            y = min(max(x + d, 0), n - 1)
            mass[y] = mass.get(y, 0.0) + p
        for y, p in sorted(mass.items()):
            lines.append(f"{x} {y} {p!r}")
    path = tmp_path / "drift.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_validated_sweep_builds_one_certificate(tmp_path, monkeypatch):
    import stattrunc.cli as cli_module
    raw = {"model": f"file:{write_drift_chain(tmp_path)}", "z": 0, "K_max": 5,
           "a_values": [20, 30, 45, 60], "r_spec": "identity",
           "oracle": {"n_cycles": 500, "seed": 3}}
    builds = []
    build = cli_module.build_certificate

    def counted(*args):
        builds.append(args[2])
        return build(*args)

    monkeypatch.setattr(cli_module, "build_certificate", counted)
    rows = run_experiment(parse_config(raw), validate=True, log=io.StringIO())
    assert len(builds) == 1
    # one sweep per point builds that point's own certificate
    reference = [run_experiment(parse_config(dict(raw, a_values=[a])), validate=True,
                                log=io.StringIO())[0] for a in raw["a_values"]]
    assert builds[1:] == raw["a_values"]
    keys = [k for k in COLUMNS + ORACLE_COLUMNS if k != "wall_time_seconds"]
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert all(r["oracle_pass"] is True for r in rows)
    assert [[r[k] for k in keys] for r in rows] == [[r[k] for k in keys] for r in reference]


def count_simulations(monkeypatch):
    import stattrunc.cli as cli_module
    calls = []
    simulate = cli_module.simulate_cycles

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli_module, "simulate_cycles", counted)
    return calls


def drift_sweep(tmp_path, **overrides):
    raw = {"model": f"file:{write_drift_chain(tmp_path)}", "z": 0, "K_max": 5,
           "a_values": [20, 30, 45, 60], "r_spec": "identity",
           "oracle": {"n_cycles": 500, "seed": 3}}
    return parse_config(dict(raw, **overrides))


def test_validated_sweep_simulates_once(tmp_path, monkeypatch):
    calls = count_simulations(monkeypatch)
    rows = run_experiment(drift_sweep(tmp_path), validate=True, log=io.StringIO())
    assert len(calls) == 1
    assert calls[0][-1] == 3  # the configured seed, whatever a is
    assert all(r["oracle_pass"] is True for r in rows)
    assert len({(r["oracle_ratio"], r["oracle_half_width"]) for r in rows}) == 1


def test_validated_sweep_cross_checks_every_ok_row_whatever_a(monkeypatch):
    calls = count_simulations(monkeypatch)
    large = parse_config({"model": "random_walk", "z": 0, "K_max": 5,
                          "a_values": [2001, 2050], "r_spec": "half"})
    rows = run_experiment(large, validate=True, log=io.StringIO())
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert len(calls) == 1
    assert all(r["oracle_pass"] is True for r in rows)


def test_sweep_without_a_validated_row_simulates_nothing(tmp_path, monkeypatch):
    calls = count_simulations(monkeypatch)
    degenerate = parse_config({"model": f"file:{write_cycle_chain(tmp_path)}", "z": 0,
                               "K_max": 1, "a_values": [2]})
    rows = run_experiment(degenerate, validate=True, log=io.StringIO())
    assert rows[0]["status"] == "degenerate_delta"
    assert calls == []
    assert all(r["oracle_ratio"] != r["oracle_ratio"] for r in rows)  # NaN


def test_each_row_checks_the_shared_estimate_against_its_own_interval(
        tmp_path, monkeypatch):
    import stattrunc.cli as cli_module
    from stattrunc.oracle import CycleStats
    cfg = drift_sweep(tmp_path, a_values=[20, 60])
    wide, narrow = run_experiment(cfg, log=io.StringIO())
    # an estimate inside the a = 20 interval but above the a = 60 one
    ratio = 0.5 * (wide["upper"] + narrow["upper"])
    assert narrow["upper"] < ratio < wide["upper"]
    stats = CycleStats(n_cycles=500, mean_reward=ratio, mean_length=1.0, ratio=ratio,
                       half_width=0.0, seed=3)
    monkeypatch.setattr(cli_module, "simulate_cycles", lambda *args: stats)
    rows = run_experiment(cfg, validate=True, log=io.StringIO())
    assert [r["oracle_pass"] for r in rows] == [True, False]
    assert [r["oracle_ratio"] for r in rows] == [ratio, ratio]
