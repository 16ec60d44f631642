"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import check_ops, certified_digits                      # noqa: E402
from tracing import Tracer                                      # noqa: E402
from workloads import WORKLOADS, finite_chain_rows, write_chain_file   # noqa: E402


def test_finite_generator_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_chain_file(finite_chain_rows(7), a)
    write_chain_file(finite_chain_rows(7), b)
    assert a.read_bytes() == b.read_bytes()
    assert finite_chain_rows(8) != finite_chain_rows(7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic(name, tmp_path):
    w = WORKLOADS[name]
    assert w.make_config(3, str(tmp_path)) == w.make_config(3, str(tmp_path))
    assert w.make_reference(3) == w.make_reference(3)


def _edge_outside(ref, below: bool) -> float:
    """The double one ulp outside the accepted range, below or above it."""
    x = float(ref.value - ref.band if below else ref.value + ref.band)
    toward = -math.inf if below else math.inf
    while ref.contains(x, x):
        x = math.nextafter(x, toward)
    return x


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_reject_an_interval_one_ulp_off(name):
    w = WORKLOADS[name]
    ref = w.make_reference(1)
    lo_out = _edge_outside(ref, below=True)
    hi_out = _edge_outside(ref, below=False)
    lo_in, hi_in = math.nextafter(lo_out, math.inf), math.nextafter(hi_out, -math.inf)
    assert ref.contains(lo_in, lo_in) and ref.contains(hi_in, hi_in)

    def row(lo, hi, oracle=True):
        return {"a": 1, "status": "ok", "lower": lo, "upper": hi,
                "pi_tilde_r": lo, "oracle_pass": oracle}

    good = {"kind": "sweep", "rows": [row(lo_in, lo_in), row(hi_in, hi_in)]}
    assert check_ops([good], ref, w.validate)[:2] == (2, 0)
    bad = {"kind": "sweep", "rows": [row(lo_out, lo_out), row(hi_out, hi_out)]}
    assert check_ops([bad], ref, w.validate)[:2] == (2, 2)
    point = {"kind": "point", "status": "ok", "lower": hi_out, "upper": hi_out}
    assert check_ops([point], ref, w.validate)[:2] == (1, 1)
    failed = {"kind": "point", "status": "PipelineError: x"}
    assert check_ops([failed], ref, w.validate)[:2] == (1, 1)
    if w.validate:
        no_oracle = {"kind": "sweep", "rows": [row(lo_in, hi_in, oracle=False)]}
        assert check_ops([no_oracle], ref, w.validate)[:2] == (1, 1)


def test_references_match_independent_values():
    gm1 = WORKLOADS["gm1-sweep"].make_reference(1)
    # sigma/(1-sigma) for c = float(2.01), from a 50-digit root of the
    # closed-form Laplace transform equation
    assert abs(gm1.value - Decimal("133.16712406432340385166321294666")) < Decimal("1e-25")
    assert WORKLOADS["walk-deep"].make_reference(1).value == Decimal("0.75")
    # GTH against a dense solve of pi (I - P) = 0 on the same generated chain
    rows = finite_chain_rows(1, n=60)
    P = np.zeros((60, 60))
    for x, (t, p) in enumerate(rows):
        P[x, t] = p
    M = P.T - np.eye(60)
    M[-1, :] = 1.0
    rhs = np.zeros(60)
    rhs[-1] = 1.0
    dense = float(np.linalg.solve(M, rhs) @ np.arange(60))
    from references import gth_reference
    assert abs(float(gth_reference(rows, float).value) - dense) < 1e-12 * dense


def test_certified_digits_caps_at_machine_precision():
    assert certified_digits(1.0, 1.0, 1.0) == -math.log10(2.0 ** -52)
    assert certified_digits(0.75, 0.75 + 7.5e-12, 0.75) == pytest.approx(11.0)


def _walk_config(a_values):
    from stattrunc.config import parse_config
    return parse_config({"model": "random_walk", "z": 0, "K_max": 5,
                         "a_values": a_values, "r_spec": "half"})


def test_traced_sweep_counts_rows_and_factorizations():
    from stattrunc import cli
    tracer = Tracer()
    run_id = tracer.begin("sweep")
    tracer.install()
    try:
        rows = cli.run_experiment(_walk_config([20, 40]), log=io.StringIO())
    finally:
        tracer.uninstall()
    assert all(r["status"] == "ok" for r in rows)
    m = tracer.operation_metrics(run_id)
    assert m["chain.row_calls"] == 60 and m["chain.row_distinct"] == 40
    assert m["chain.row_reuse"] == pytest.approx(40 / 60)
    assert m["solver.factorizations"] == 2 and m["solver.solves"] == 8
    assert m["solver.m"] == 39
    assert 0 < m["solver.assemble_self_s"] < m["solver.assemble_s"] < m["bounds.pipeline_s"]
    assert cli.run_experiment.__module__ == "stattrunc.cli"    # originals restored


def test_missing_function_is_reported_absent(monkeypatch):
    from stattrunc import cli, solver
    import stattrunc
    monkeypatch.delattr(solver, "solve_transpose")
    monkeypatch.delattr(stattrunc, "solve_transpose")
    for name in ("run_experiment", "emit"):
        monkeypatch.delattr(cli, name)
    tracer = Tracer()
    tracer.begin("sweep")
    tracer.install()
    tracer.uninstall()
    assert "solver.solve_transpose" in tracer.absent
    assert tracer.absent_layers() == ["cli"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "walk-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_smoke_runs_every_workload_once():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == 2 * len(WORKLOADS) and all(r["correct"] for r in results)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for r in results:
        declared = bench["per_layer"] if r["trace"] else bench["end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == \
            {k: v["unit"] for k, v in r["metrics"].items()}
