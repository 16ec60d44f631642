#!/usr/bin/env python3
"""stattrunc benchmark: sweep and point latency, set-up, memory and certified digits.

    python3 perfbench/run.py --workload gm1-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (it imports `src/stattrunc`).  With
`--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run.
Earlier lines describe the environment and the samples.  `--smoke` runs
every workload once, briefly, and exits non-zero if any check fails.
See perfbench/README.md for the workloads, metrics and references.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
EPS = 2.0 ** -52
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """One BLAS thread (at most nproc); children inherit it.  Returns nproc.

    With a thread per core, the dense solves in `tight_certificate` swing
    by several times whenever another process holds a core.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            caches[key] = int(out) if out.isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            caches[key] = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc, "cache_bytes": caches,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def _worker(mode: str, spec_path: str, timeout: float) -> tuple[float, str]:
    """Run worker.py in a fresh process; return (monotonic start, stdout)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), mode, spec_path],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed ({proc.returncode}):\n{proc.stderr}")
    return t0, proc.stdout


def check_ops(ops: list[dict], reference, validate: bool) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations: every sweep point and point call."""
    attempted = failed = 0
    problems = []
    for op in ops:
        points = op["rows"] if "rows" in op else [op]
        for p in points:
            attempted += 1
            why = None
            if p["status"] != "ok":
                why = f"status {p['status']}"
            elif not reference.contains(p["lower"], p["upper"]):
                why = f"[{p['lower']!r}, {p['upper']!r}] misses the reference"
            elif validate and "rows" in op and p.get("oracle_pass") is not True:
                why = "oracle cross-check failed"
            if why is not None:
                failed += 1
                problems.append(f"{op['kind']} a={p.get('a', 'point')}: {why}")
    return attempted, failed, problems


def certified_digits(lower: float, upper: float, value: float) -> float:
    """-log10 of the relative width, capped at -log10(eps) (also for width 0)."""
    width = upper - lower
    cap = -math.log10(EPS)
    return cap if width <= 0 else min(cap, -math.log10(width / abs(value)))


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setup_probes: int = SETUP_PROBES) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    os.makedirs(TMP_ROOT, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(TMP_ROOT, f"{workload_name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        raw = workload.make_config(seed, work_dir)
        reference = workload.make_reference(seed)
        spec = {"src": SRC, "raw": raw, "validate": workload.validate,
                "point_a": max(raw["a_values"]), "seconds": seconds, "trace": trace,
                "emit_path": os.path.join(work_dir, "sweep.csv"),
                "spans_path": os.path.join(OUT_DIR, f"spans-{workload_name}.npz")}
        spec_path = os.path.join(work_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

        setup = []
        for _ in range(0 if trace else setup_probes):
            t0, out = _worker("setup", spec_path, 60)
            setup.append(float(out.strip().splitlines()[-1]) - t0)
        _, out = _worker("measure", spec_path, WORKER_TIMEOUT_S)
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass        # another run still uses it

    ops = result["ops"]
    attempted, failed, problems = check_ops(ops, reference, workload.validate)
    for line in problems:
        print(f"# FAILED {workload_name} seed={seed} {line}")

    def seconds_of(kind):
        return [op["seconds"] for op in ops if op["kind"] == kind]

    if trace:
        layer = result["layer"]
        plain, traced = statistics.median(seconds_of("sweep")), statistics.median(
            seconds_of("sweep_traced"))
        layer["trace.overhead_s"] = traced - plain
        layer["trace.overhead_share"] = (traced - plain) / plain
        layer["trace.sweep_s"] = traced
        layer["trace.point_s"] = statistics.median(seconds_of("point_traced"))
        layer["trace.absent_names"] = float(len(result["absent"]))
        for name in result["absent"]:
            print(f"# absent: {name}")
        for name in result["absent_layers"]:
            print(f"# absent layer: {name}")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
    else:
        sweeps, points = seconds_of("sweep"), seconds_of("point")
        print(f"# samples (s): {len(sweeps)} sweeps {[round(s, 4) for s in sweeps]}, "
              f"{len(points)} points {[round(s, 4) for s in points]}, "
              f"{len(setup)} set-ups {[round(s, 4) for s in setup]}")

        digits = [certified_digits(op["lower"], op["upper"], op["pi_tilde_r"])
                  for op in ops if op["kind"] == "point" and op["status"] == "ok"]
        metrics = {
            "sweep_s": {"value": statistics.median(sweeps), "unit": "s"},
            "point_s": {"value": statistics.median(points), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "certified_digits": {"value": statistics.median(digits) if digits else 0.0,
                                 "unit": "digits"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("chain.row_reuse", "trace.overhead_share"):
        return "ratio"
    if name == "solver.residual_max":
        return "inf-norm"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, briefly, and check it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stattrunc", "__init__.py")):
        print(f"perfbench: no stattrunc sources under {SRC}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                res = run(name, args.seed, 0.0, trace, setup_probes=1)
                ok = ok and res["correct"]
                print(json.dumps({"workload": name, "trace": trace, **res}))
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    print("# env " + json.dumps(environment(nproc)))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
