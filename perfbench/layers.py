"""The traced run: spans around each layer's public entry points.

:class:`Layers` patches the binding each caller imported (``from x import
f`` copies ``f`` into the caller's module, so the caller's name is the one
to replace), records one span per call in memory, and restores every
binding afterwards.  Counts come from state the program already keeps:
``interp.stats.execution_stats``, the tracer's ``verify.solver_nodes``
counter, the server's prediction and simulation caches and the graph
scheduler's snapshot.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path

from repro.core.predictor import DopPredictor
from repro.interp.stats import execution_stats
from repro.ml.tree import DecisionTreeRegressor
from repro.obs import tracer

from stats import mean, median

#: layer -> (owner, attribute) bindings its callers use
BINDINGS = {
    "frontend.parse": [("repro.cl.program", "parse"),
                       ("repro.workloads.registry", "parse")],
    "frontend.semantics": [("repro.cl.program", "analyze_kernel"),
                           ("repro.workloads.registry", "analyze_kernel")],
    "analysis.features": [("repro.core.runtime", "extract_static_features"),
                          ("repro.serve.server", "extract_static_features")],
    "analysis.profile": [("repro.core.runtime", "profile_kernel"),
                         ("repro.serve.server", "profile_kernel"),
                         ("repro.cl.queue", "profile_kernel"),
                         ("repro.workloads.registry", "profile_kernel")],
    "verify.kernel": [("repro.analysis.verify", "verify_kernel")],
    "verify.launch": [("repro.analysis.verify", "verify_launch")],
    "transform.malleable": [("repro.core.runtime", "make_malleable"),
                            ("repro.serve.server", "make_malleable")],
    "predict.select": [(DopPredictor, "select")],
    "interp.jit_compile": [("repro.interp.codegen", "compile_cached")],
    "schedule.run_dynamic": [("repro.core.runtime", "run_dynamic"),
                             ("repro.serve.server", "run_dynamic")],
    "sim.simulate": [("repro.core.runtime", "simulate_execution"),
                     ("repro.serve.server", "simulate_execution"),
                     ("repro.cl.queue", "simulate_execution")],
}

#: set-up layers, traced while the runtime is trained
SETUP_BINDINGS = {
    "collect.load": [("repro.core.runtime", "collect_dataset")],
    "ml.fit": [(DecisionTreeRegressor, "fit")],
}

#: layer -> (metric name, scale from seconds)
DURATION_METRICS = {
    "frontend.parse": ("frontend.parse_ms", 1e3),
    "frontend.semantics": ("frontend.semantics_ms", 1e3),
    "analysis.features": ("analysis.features_ms", 1e3),
    "analysis.profile": ("analysis.profile_ms", 1e3),
    "verify.kernel": ("verify.kernel_ms", 1e3),
    "verify.launch": ("verify.launch_ms", 1e3),
    "transform.malleable": ("transform.malleable_ms", 1e3),
    "predict.select": ("predict.select_us", 1e6),
    "schedule.run_dynamic": ("schedule.run_dynamic_ms", 1e3),
    "sim.simulate": ("sim.simulate_us", 1e6),
    "collect.load": ("collect.load_s", 1.0),
    "ml.fit": ("ml.fit_s", 1.0),
}

#: metric name -> unit, in report order
UNITS = {
    "collect.load_s": "s",
    "ml.fit_s": "s",
    "frontend.parse_ms": "ms",
    "frontend.semantics_ms": "ms",
    "analysis.features_ms": "ms",
    "analysis.profile_ms": "ms",
    "verify.kernel_ms": "ms",
    "verify.launch_ms": "ms",
    "verify.solver_nodes": "count",
    "transform.malleable_ms": "ms",
    "transform.calls": "count",
    "predict.select_us": "us",
    "interp.jit_compile_ms": "ms",
    "interp.launches.jit": "count",
    "interp.launches.vector": "count",
    "interp.launches.scalar": "count",
    "interp.fallbacks": "count",
    "schedule.run_dynamic_ms": "ms",
    "schedule.gpu_chunks": "count",
    "schedule.gpu_share_launches": "count",
    "sim.simulate_us": "us",
    "serve.overhead_ms": "ms",
    "serve.pred_cache_hit_ratio": "ratio",
    "serve.sim_cache_hit_ratio": "ratio",
    "serve.parked": "count",
    "trace.overhead_pct": "%",
    "trace.span_coverage": "ratio",
    "trace.uncovered_share": "ratio",
}


def _owner(owner):
    return importlib.import_module(owner) if isinstance(owner, str) else owner


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Layers:
    """In-memory span recorder over the patched layer entry points."""

    def __init__(self):
        #: (layer, start, end, thread id)
        self.spans: list = []
        self._saved: list = []
        self.gpu_chunks = 0
        self.gpu_share_launches = 0
        self.solver_nodes = 0.0
        #: id(args dict) -> seconds inside run_dynamic for that launch
        self._run_dynamic_s: dict = {}
        self.served_overheads: list = []
        self._lock = threading.Lock()

    # -- patching -------------------------------------------------------------

    def install(self, bindings=BINDINGS) -> None:
        for layer, targets in bindings.items():
            for owner, attribute in targets:
                target = _owner(owner)
                original = getattr(target, attribute)
                self._saved.append((target, attribute, original))
                setattr(target, attribute, self._wrap(layer, original))

    def restore(self) -> None:
        while self._saved:
            target, attribute, original = self._saved.pop()
            setattr(target, attribute, original)

    def _wrap(self, layer, fn):
        spans = self.spans
        if layer == "schedule.run_dynamic":
            return self._wrap_run_dynamic(fn)
        if layer == "verify.launch":
            return self._wrap_verify_launch(fn)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, start, time.perf_counter(),
                              threading.get_ident()))
        return traced

    def _wrap_run_dynamic(self, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            launch_args = _arg(args, kwargs, 2, "args")
            setting = _arg(args, kwargs, 4, "setting")
            start = time.perf_counter()
            try:
                trace = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                spans.append(("schedule.run_dynamic", start, end,
                              threading.get_ident()))
                self._run_dynamic_s[id(launch_args)] = end - start
            with self._lock:
                self.gpu_chunks += trace.gpu_chunks
                self.gpu_share_launches += int(setting.uses_gpu)
            return trace
        return traced

    def _wrap_verify_launch(self, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            # The solver-node counter is recorded only while the tracer is
            # on; verification runs on the calling thread alone, so the
            # tracer is switched on just around this call.
            was_enabled = tracer.enabled
            before = tracer.counters.get("verify.solver_nodes", 0.0)
            tracer.enabled = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.enabled = was_enabled
                spans.append(("verify.launch", start, end,
                              threading.get_ident()))
                with self._lock:
                    self.solver_nodes += (
                        tracer.counters.get("verify.solver_nodes", 0.0) - before)
        return traced

    # -- serving ------------------------------------------------------------------

    def note_served(self, result) -> None:
        """Client latency minus the launch's time inside ``run_dynamic``."""
        inside = self._run_dynamic_s.pop(id(result.args), 0.0)
        with self._lock:
            self.served_overheads.append(result.latency_s - inside)

    # -- reporting ------------------------------------------------------------------

    def durations(self, layer: str) -> list:
        return [end - start for name, start, end, _ in self.spans
                if name == layer]

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] during which at least one layer span was
        open, on any thread."""
        intervals = sorted((max(s, start), min(e, end))
                           for _, s, e, _ in self.spans if e > start and s < end)
        covered = 0.0
        cursor = start
        for s, e in intervals:
            if e <= cursor:
                continue
            covered += e - max(s, cursor)
            cursor = e
        return covered

    def write(self, path: Path) -> None:
        """Write every span, one JSON object per line, in microseconds from
        the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((start for _, start, _, _ in self.spans), default=0.0)
        tids: dict = {}
        with path.open("w") as out:
            for layer, start, end, tid in self.spans:
                out.write(json.dumps({
                    "layer": layer,
                    "start_us": round((start - t0) * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 1),
                    "thread": tids.setdefault(tid, len(tids)),
                }) + "\n")


def stats_snapshot(server=None) -> dict:
    """Counters the program keeps itself, for before/after differences."""
    runs = list(execution_stats.runs.items())
    snap = {
        "interp.launches.jit": sum(c.calls for (_, b), c in runs if b == "jit"),
        "interp.launches.vector": sum(c.calls for (_, b), c in runs
                                      if b == "vector"),
        "interp.launches.scalar": sum(c.calls for (_, b), c in runs
                                      if b == "scalar"),
        "interp.fallbacks": sum(execution_stats.fallbacks.values()),
        "jit_compiles": sum(execution_stats.jit_compiles.values()),
        "jit_compile_s": sum(execution_stats.jit_compile_seconds.values()),
    }
    if server is not None:
        for prefix, cache in (("pred", server.cache), ("sim", server.sim_cache)):
            stats = cache.stats()
            snap[f"{prefix}_hits"] = stats["hits"]
            snap[f"{prefix}_misses"] = stats["misses"]
        snap["parked"] = server.graph.snapshot()["parked"]
    return snap


def per_layer_metrics(layers: Layers, setup_layers: Layers, deltas: dict,
                      traced: list, plain: list) -> dict:
    """Every per-layer metric for one traced run.

    ``traced`` and ``plain`` are the measurements of the traced and
    untraced phases; ``deltas`` the program counters' change over the
    traced phases.
    """
    values: dict = {}
    for layer, (metric, scale) in DURATION_METRICS.items():
        source = setup_layers if layer in SETUP_BINDINGS else layers
        values[metric] = mean(source.durations(layer)) * scale
    values["verify.solver_nodes"] = layers.solver_nodes
    values["transform.calls"] = len(layers.durations("transform.malleable"))
    for key in ("interp.launches.jit", "interp.launches.vector",
                "interp.launches.scalar", "interp.fallbacks"):
        values[key] = deltas[key]
    compiles = deltas["jit_compiles"]
    values["interp.jit_compile_ms"] = (
        deltas["jit_compile_s"] / compiles * 1e3 if compiles else 0.0)
    values["schedule.gpu_chunks"] = layers.gpu_chunks
    values["schedule.gpu_share_launches"] = layers.gpu_share_launches
    values["serve.overhead_ms"] = median(layers.served_overheads) * 1e3
    for prefix in ("pred", "sim"):
        hits = deltas.get(f"{prefix}_hits", 0)
        lookups = hits + deltas.get(f"{prefix}_misses", 0)
        values[f"serve.{prefix}_cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0)
    values["serve.parked"] = deltas.get("parked", 0)

    def per_launch(ms):
        return sum(m.busy_s for m in ms) / max(sum(m.launches for m in ms), 1)

    values["trace.overhead_pct"] = (per_launch(traced) / per_launch(plain)
                                    - 1.0) * 100.0
    wall = sum(m.wall_s for m in traced)
    coverage = sum(layers.covered(m.start, m.start + m.wall_s)
                   for m in traced) / wall
    values["trace.span_coverage"] = coverage
    values["trace.uncovered_share"] = 1.0 - coverage
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}
