"""Spans and counts recorded from outside the program, at its layer boundaries.

`Tracer.install` replaces each named public function of the package, in
every `stattrunc.*` namespace that binds it, and `scipy.sparse.linalg.splu`
with a wrapper that records a span (id, name, start, end, parent, run id).
Chains, rewards and certificates returned by `config.build_chain`,
`config.build_reward` and `config.build_certificate` come back with their
row function, reward and drift functions wrapped the same way.  Counts are
taken in the same wrappers.  `uninstall` puts the originals back, so
untraced operations in the same process pay nothing.

A name the package no longer defines is listed in `absent` instead of
failing the run; a layer with no name left is reported as absent.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: public functions wrapped per layer; scipy's splu is accounted to solver
LAYER_FUNCTIONS = {
    "chain": ("validate_rows", "one_step_fringe"),
    "models": ("gm1_chain", "random_walk_chain", "load_chain_from_file",
               "gm1_certificate", "random_walk_certificate", "gm1_beta_coeffs"),
    "config": ("parse_config", "load_config", "build_chain", "build_reward",
               "build_certificate", "load_reward_table"),
    "solver": ("assemble_truncated_system", "solve", "solve_transpose"),
    "bounds": ("run_pipeline", "verify_lyapunov_drift", "compute_pi_tilde",
               "compute_lower_bounds", "compute_delta_beta", "compute_upper_bounds",
               "compute_error_bound", "compute_tv_bound"),
    "oracle": ("tight_certificate", "simulate_cycles", "exact_stationary_finite",
               "regenerative_expectation_exact", "excursion_bound_check"),
    "cli": ("run_experiment", "emit"),
}

ROW, REWARD, CERT_G1, CERT_G2 = "chain.row_fn", "chain.reward", "models.cert_g1", "models.cert_g2"
SPLU = "solver.splu"
ASSEMBLE = "solver.assemble_truncated_system"
SOLVES = ("solver.solve", "solver.solve_transpose")

#: per-operation metrics, in report order
OPERATION_METRICS = (
    "chain.row_calls", "chain.row_distinct", "chain.row_reuse", "chain.reward_calls",
    "models.row_entries", "models.row_s", "models.cert_calls", "models.cert_s",
    "solver.assemble_s", "solver.assemble_self_s", "solver.m", "solver.nnz_B",
    "solver.factor_s", "solver.factorizations", "solver.lu_fill_nnz",
    "solver.solves", "solver.solve_s", "solver.refine_steps", "solver.residual_max",
    "bounds.pipeline_s", "bounds.self_s", "bounds.audit_s",
    "oracle.cert_builds", "oracle.cert_build_s", "oracle.sim_s", "oracle.sim_steps",
    "cli.emit_s", "models.file_load_s", "config.load_s", "trace.spans",
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._sid, self._parent = array("q"), array("q")
        self._name, self._run = array("i"), array("i")
        self._t0, self._t1 = array("d"), array("d")
        self._next_sid = 0
        self._stack = [-1]
        self.run_id = -1
        self.run_kinds: list[str] = []
        self.counts: list[dict] = []
        self._distinct_rows: list[set] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.present_layers: set[str] = set()

    # -- recording --------------------------------------------------------

    def begin(self, kind: str) -> int:
        """Start a new run id; spans and counts until the next call belong to it."""
        self.run_id = len(self.run_kinds)
        self.run_kinds.append(kind)
        self.counts.append(defaultdict(float))
        self._distinct_rows.append(set())
        return self.run_id

    def wrap(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, result)` may count and replace the result."""
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self._sid.append(sid)
                self._parent.append(parent)
                self._name.append(idx)
                self._run.append(self.run_id)
                self._t0.append(t0)
                self._t1.append(t1)
            return result if after is None else after(args, result)

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.run_id][key] += value

    def _peak(self, key: str, value: float) -> None:
        c = self.counts[self.run_id]
        c[key] = max(c[key], value)

    # -- what each boundary counts ------------------------------------------

    def _after_row(self, args, row):
        self._count("chain.row_calls")
        self._distinct_rows[self.run_id].add(int(args[0]))
        self._count("models.row_entries", len(row.targets))
        return row

    def _after_reward(self, args, value):
        self._count("chain.reward_calls")
        return value

    def _after_cert_call(self, args, value):
        self._count("models.cert_calls")
        return value

    def _after_splu(self, args, lu):
        self._count("solver.factorizations")
        self._peak("solver.lu_fill_nnz", lu.L.nnz + lu.U.nnz)
        return lu

    def _after_solve(self, args, res):
        self._count("solver.solves")
        self._count("solver.refine_steps", res.iterations)
        self._peak("solver.residual_max", res.residual_norm)
        return res

    def _after_assemble(self, args, system):
        self._peak("solver.m", system.size)
        self._peak("solver.nnz_B", system.B.nnz)
        return system

    def _after_tight_certificate(self, args, cert):
        self._count("oracle.cert_builds")
        return cert

    def _after_simulate(self, args, stats):
        self._count("oracle.sim_steps", stats.n_cycles * stats.mean_length)
        return stats

    def wrap_chain(self, chain):
        return dataclasses.replace(chain, row_fn=self.wrap(ROW, chain.row_fn, self._after_row))

    def wrap_reward(self, reward):
        return self.wrap(REWARD, reward, self._after_reward)

    def _wrap_certificate(self, args, cert):
        return dataclasses.replace(
            cert, g1=self.wrap(CERT_G1, cert.g1, self._after_cert_call),
            g2=self.wrap(CERT_G2, cert.g2, self._after_cert_call))

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Patch every named function; names that no longer exist go to `absent`."""
        import scipy.sparse.linalg as spla

        afters = {
            "config.build_chain": lambda args, chain: self.wrap_chain(chain),
            "config.build_reward": lambda args, reward: self.wrap_reward(reward),
            "config.build_certificate": self._wrap_certificate,
            ASSEMBLE: self._after_assemble,
            SPLU: self._after_splu,
            "solver.solve": self._after_solve,
            "solver.solve_transpose": self._after_solve,
            "oracle.tight_certificate": self._after_tight_certificate,
            "oracle.simulate_cycles": self._after_simulate,
        }
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "stattrunc" or name.startswith("stattrunc."))]
        self.absent, self.present_layers = [], set()
        targets = []
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"stattrunc.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                self.present_layers.add(layer)
                targets.append((f"{layer}.{name}", fn, package))
        targets.append((SPLU, spla.splu, [spla] + package))
        self._patches = []
        for qualname, fn, modules in targets:
            wrapper = self.wrap(qualname, fn, afters.get(qualname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches = []

    def absent_layers(self) -> list[str]:
        return [layer for layer in LAYER_FUNCTIONS if layer not in self.present_layers]

    # -- reading the spans back ---------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans, ordered by span id (ids are 0..N-1)."""
        order = np.argsort(np.frombuffer(self._sid, dtype=np.int64), kind="stable")
        cols = {"sid": self._sid, "parent": self._parent, "name": self._name,
                "run": self._run, "start": self._t0, "end": self._t1}
        dtypes = {"sid": np.int64, "parent": np.int64, "name": np.int32,
                  "run": np.int32, "start": np.float64, "end": np.float64}
        return {k: np.frombuffer(v, dtype=dtypes[k])[order] for k, v in cols.items()}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), kinds=np.array(self.run_kinds),
                 **self.spans())

    def operation_metrics(self, run_id: int) -> dict[str, float]:
        """Layer times and counts for one run id (see OPERATION_METRICS)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        parent = s["parent"]
        name = s["name"]
        in_run = s["run"] == run_id

        def ids(*names):
            return [self._name_index.get(n, -1) for n in names]

        def mask(*names):
            return in_run & np.isin(name, ids(*names))

        def outer(*names):
            # time inside any of `names`, nested calls counted once
            m = mask(*names)
            nested = m & (parent >= 0)
            nested[nested] = m[parent[nested]]
            return float(dur[m].sum() - dur[nested].sum())

        def self_time(*names):
            # time inside `names` minus time in their direct wrapped children
            m = mask(*names)
            child = in_run & (parent >= 0)
            child[child] = m[parent[child]]
            return float(dur[m].sum() - dur[child].sum())

        def inside(leaf_names, ancestor_name):
            # time of `leaf_names` spans that have an `ancestor_name` ancestor
            target = ids(ancestor_name)[0]
            leaves = np.nonzero(mask(*leaf_names))[0]
            cur = parent[leaves]
            hit = np.zeros(leaves.size, dtype=bool)
            live = cur >= 0
            while live.any():
                hit[live] = name[cur[live]] == target
                step = live & ~hit
                cur[step] = parent[cur[step]]
                live = step & (cur >= 0)
            return float(dur[leaves[hit]].sum())

        c = self.counts[run_id]
        calls = c["chain.row_calls"]
        distinct = len(self._distinct_rows[run_id])
        leaf = (ROW, REWARD, CERT_G1, CERT_G2)
        assemble = outer(ASSEMBLE)
        return {
            "chain.row_calls": calls,
            "chain.row_distinct": float(distinct),
            "chain.row_reuse": distinct / calls if calls else 0.0,
            "chain.reward_calls": c["chain.reward_calls"],
            "models.row_entries": c["models.row_entries"],
            "models.row_s": outer(ROW),
            "models.cert_calls": c["models.cert_calls"],
            "models.cert_s": outer(CERT_G1, CERT_G2),
            "solver.assemble_s": assemble,
            "solver.assemble_self_s": assemble - inside(leaf, ASSEMBLE),
            "solver.m": c["solver.m"],
            "solver.nnz_B": c["solver.nnz_B"],
            "solver.factor_s": outer(SPLU),
            "solver.factorizations": c["solver.factorizations"],
            "solver.lu_fill_nnz": c["solver.lu_fill_nnz"],
            "solver.solves": c["solver.solves"],
            "solver.solve_s": outer(*SOLVES) - inside((SPLU,), SOLVES[0]) - inside((SPLU,), SOLVES[1]),
            "solver.refine_steps": c["solver.refine_steps"],
            "solver.residual_max": c["solver.residual_max"],
            "bounds.pipeline_s": outer("bounds.run_pipeline"),
            "bounds.self_s": self_time("bounds.run_pipeline"),
            "bounds.audit_s": outer("bounds.verify_lyapunov_drift"),
            "oracle.cert_builds": c["oracle.cert_builds"],
            "oracle.cert_build_s": outer("oracle.tight_certificate"),
            "oracle.sim_s": outer("oracle.simulate_cycles"),
            "oracle.sim_steps": c["oracle.sim_steps"],
            "cli.emit_s": outer("cli.emit"),
            "models.file_load_s": outer("models.load_chain_from_file"),
            "config.load_s": outer("config.parse_config", "config.load_config"),
            "trace.spans": float(in_run.sum()),
        }
