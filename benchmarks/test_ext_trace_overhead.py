"""Extension — tracing-overhead guard.

The observability layer promises to be zero-perturbation *and* cheap:
every instrumentation site is one ``tracer.enabled`` attribute check when
tracing is off, and a bounded ring-buffer append when it is on.  This
bench times the Algorithm-1 fast path (GESUMMV, vectorized
backend) with the tracer disabled and enabled and asserts the enabled run
stays within 5% of the disabled one — so instrumentation creep that would
make tracing unusable on real runs fails CI instead of landing silently.

Plain ``time.perf_counter`` timing on purpose: this file runs in the fast
CI lane, which installs no ``pytest-benchmark``.  Disabled and enabled
samples alternate, and the overhead is the median of the enabled/disabled
ratios of adjacent pairs: a phase of host slowdown lands on both halves
of a pair, where a minimum of each mode, taken from different moments,
compares a quiet phase with a loud one.

The measured result is committed as ``BENCH_trace_overhead.json`` at the
repository root.
"""

import gc
import json
import time
from pathlib import Path

import numpy as np

from repro.core import run_dynamic
from repro.obs import tracer
from repro.sim import DopSetting
from repro.transform import make_malleable
from repro.workloads import make_gesummv

#: Relative overhead budget for tracing-on vs tracing-off.
OVERHEAD_BUDGET = 0.05
#: Absolute slack (seconds) so sub-millisecond timer noise cannot fail
#: the relative check on a very fast baseline.
EPS_S = 2e-3
#: adjacent disabled/enabled sample pairs
REPEATS = 15
#: launches per timed sample, so each sample crosses every
#: instrumentation site (span, per-round instants, backend choice) often.
LAUNCHES_PER_SAMPLE = 3

#: CPU-only keeps the sample on the vectorized fast path — the GPU side
#: of a co-executed launch runs the malleable kernel on the scalar
#: interpreter and would swamp the measurement with interpreter time.
SETTING = DopSetting(cpu_threads=4, gpu_fraction=0.0)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_trace_overhead.json"


def _one_sample(info, malleable, workload):
    args = workload.full_args(rng=0)
    started = time.perf_counter()
    for _ in range(LAUNCHES_PER_SAMPLE):
        trace = run_dynamic(
            info, malleable, args, workload.ndrange(), SETTING,
            backend="vector",
        )
    elapsed = time.perf_counter() - started
    assert trace.total == workload.ndrange().total_groups
    return elapsed


def _interleaved_pairs(info, malleable, workload):
    """``REPEATS`` (disabled, enabled) sample pairs, taken back to back.

    Pairing means slow machine drift (thermal, background load) lands on
    both sides of a pair; alternating which mode runs first in a pair
    cancels what drift remains between its two halves.
    """
    disabled, enabled = [], []
    events = 0
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(REPEATS):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    disabled.append(_one_sample(info, malleable, workload))
                    continue
                tracer.clear()
                tracer.enable()
                try:
                    enabled.append(_one_sample(info, malleable, workload))
                    events = len(tracer.events())
                finally:
                    tracer.disable()
                    tracer.clear()
    finally:
        if gc_was_enabled:
            gc.enable()
    return disabled, enabled, events


def test_ext_trace_overhead_within_budget():
    workload = make_gesummv(n=256, wg=64)
    info = workload.kernel_info()
    malleable = make_malleable(workload.source, work_dim=workload.work_dim)

    tracer.disable()
    tracer.clear()
    # warmup (executor caches, numpy first-touch)
    _one_sample(info, malleable, workload)

    disabled, enabled, events = _interleaved_pairs(info, malleable, workload)

    ratio = float(np.median(np.divide(enabled, disabled)))
    disabled_s = float(np.median(disabled))
    enabled_s = float(np.median(enabled))
    overhead = ratio - 1.0
    result = {
        "bench": "trace_overhead",
        "workload": "GESUMMV n=256 wg=64 (vector backend, dynamic schedule, "
                    "cpu-only DoP)",
        "repeats": REPEATS,
        "estimator": "median of adjacent enabled/disabled pair ratios",
        "launches_per_sample": LAUNCHES_PER_SAMPLE,
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(enabled_s, 6),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": OVERHEAD_BUDGET,
        "events_recorded": events,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=1) + "\n")
    print(f"trace overhead: disabled {disabled_s * 1e3:.2f} ms, "
          f"enabled {enabled_s * 1e3:.2f} ms (median pair {overhead:+.1%})")

    assert np.isfinite(overhead)
    assert ratio * disabled_s <= disabled_s * (1.0 + OVERHEAD_BUDGET) + EPS_S, (
        f"tracing overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget "
        f"(disabled {disabled_s:.4f}s, enabled {enabled_s:.4f}s)"
    )


def test_disabled_tracer_emits_nothing_on_the_fast_path():
    workload = make_gesummv(n=256, wg=64)
    info = workload.kernel_info()
    malleable = make_malleable(workload.source, work_dim=workload.work_dim)
    tracer.disable()
    tracer.clear()
    _one_sample(info, malleable, workload)
    assert tracer.events() == []
    assert tracer.total_events == 0
