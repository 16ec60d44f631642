"""The process that runs the program; `run.py` starts a fresh one per use.

    python3 worker.py setup SPEC      import, parse the config, build chain and
                                      reward; print the CLOCK_MONOTONIC time
    python3 worker.py measure SPEC    closed loop of sweeps and point calls;
                                      print one JSON object of raw results

SPEC is a JSON file written by `run.py` (keys: src, raw, validate, point_a,
seconds, trace, emit_path, spans_path).  Correctness is judged by `run.py`,
never here, so the checks share no process with the program under test.
"""

from __future__ import annotations

import json
import sys
import time

#: layer metrics also reported for the point call alone, as "point.<name>"
POINT_METRICS = ("solver.assemble_s", "solver.assemble_self_s", "solver.factor_s",
                 "solver.solve_s", "models.row_s", "oracle.cert_build_s",
                 "bounds.pipeline_s", "bounds.self_s")
#: layer metrics taken from a traced set-up (config parse, chain build) instead
SETUP_METRICS = ("config.load_s", "models.file_load_s")


def _load_spec(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _set_up(config, raw: dict):
    """What a user's run does before its first sweep: parse, build chain and reward."""
    cfg = config.parse_config(raw)
    return cfg, config.build_chain(cfg), config.build_reward(cfg)


def setup(spec: dict) -> None:
    sys.path.insert(0, spec["src"])
    from stattrunc import config

    _set_up(config, spec["raw"])
    print(repr(time.monotonic()), flush=True)


def measure(spec: dict) -> None:
    sys.path.insert(0, spec["src"])
    import gc
    import io
    import resource
    import statistics

    import numpy as np

    from stattrunc import bounds, chain as chain_mod, cli, config
    from tracing import OPERATION_METRICS, Tracer

    cfg, chain, reward = _set_up(config, spec["raw"])
    K = np.arange(cfg.K_max + 1)
    a = int(spec["point_a"])
    sink = io.StringIO()

    def sweep() -> dict:
        rows = cli.run_experiment(cfg, validate=spec["validate"], log=sink)
        cli.emit(rows, "csv", spec["emit_path"])
        return {"rows": [{k: r.get(k) for k in ("a", "status", "lower", "upper",
                                                   "pi_tilde_r", "oracle_pass")}
                         for r in rows]}

    def point(ch=chain, r=reward) -> dict:
        try:
            cert = config.build_certificate(cfg, ch, a, K, r)
            problem = chain_mod.TruncationProblem(chain=ch, A=np.arange(a), z=cfg.z, K=K, r=r)
            rep = bounds.run_pipeline(problem, cert)
        except Exception as exc:    # a failed operation is counted, not fatal
            return {"status": f"{type(exc).__name__}: {exc}"}
        return {"status": "ok", "lower": rep.interval[0], "upper": rep.interval[1],
                "pi_tilde_r": rep.pi_tilde_r}

    tracer = Tracer() if spec["trace"] else None

    def traced(kind: str, op):
        tracer.begin(kind)
        tracer.install()
        try:
            return op()
        finally:
            tracer.uninstall()

    def traced_point() -> dict:
        return point(tracer.wrap_chain(chain), tracer.wrap_reward(reward))

    if tracer is None:
        cycle = (("sweep", sweep), ("point", point))
    else:
        cycle = (("sweep", sweep),
                 ("sweep_traced", lambda: traced("sweep", sweep)),
                 ("point_traced", lambda: traced("point", traced_point)))

    # warm-up: one sweep at the smallest a fills lazy imports and caches
    warm = config.parse_config(dict(spec["raw"], a_values=spec["raw"]["a_values"][:1]))
    cli.run_experiment(warm, validate=spec["validate"], log=sink)

    ops = []
    if tracer is not None:
        traced("setup", lambda: _set_up(config, spec["raw"]))
    start = time.perf_counter()
    peak_rss_mb = None
    cycles = 0
    while True:
        for kind, op in cycle:
            # every operation starts from the same collector state
            gc.collect()
            t0 = time.perf_counter()
            result = op()
            result.update(kind=kind, seconds=time.perf_counter() - t0)
            ops.append(result)
        cycles += 1
        if peak_rss_mb is None:
            # fixed work (warm-up plus one cycle), so the peak does not
            # creep with the number of cycles the run had time for
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        # stop where the run ends nearest to `seconds`: another cycle would
        # overshoot by more than stopping now undershoots
        if elapsed + elapsed / cycles / 2 >= spec["seconds"]:
            break

    out = {"ops": ops, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        per_kind = {}
        for run_id, kind in enumerate(tracer.run_kinds):
            per_kind.setdefault(kind, []).append(tracer.operation_metrics(run_id))

        def med(kind, key):
            return statistics.median(m[key] for m in per_kind[kind])

        layer = {k: med("setup" if k in SETUP_METRICS else "sweep", k)
                 for k in OPERATION_METRICS}
        layer.update({"point." + k: med("point", k) for k in POINT_METRICS})
        out["layer"] = layer
        out["absent"] = tracer.absent
        out["absent_layers"] = tracer.absent_layers()
        tracer.save(spec["spans_path"])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    mode, spec_path = sys.argv[1], sys.argv[2]
    {"setup": setup, "measure": measure}[mode](_load_spec(spec_path))
