"""Launch-path benchmark for the Dopia reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload app-cpu --seed 1 --seconds 10 --trace 0

Each invocation runs one workload in this single process: it trains the
runtime (set-up, repeated and reported as a median), warms the workload up,
then times whole rounds of the workload's operations for ``--seconds``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--short`` runs
one set-up and one round, with every check on.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 3
#: the traced run alternates untraced and traced phases, this many in all
TRACE_PHASES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["app-cpu", "app-coexec", "build-cold",
                                 "serve-graph"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one set-up and one round (a smoke run)")
    return parser.parse_args(argv)


def load_program() -> bool:
    """Import the Dopia sources of this checkout (and nothing else)."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import repro from {source}: {error}",
              file=sys.stderr)
        return False
    if not Path(repro.__file__).resolve().is_relative_to(source.resolve()):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return False
    return True


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    Every workload is bound by the interpreter lock, so a second CPU adds
    no parallelism; what it adds is lock hand-offs between CPUs, which made
    serve-graph's throughput swing by a third between identical runs.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def isolate_environment(policy: str) -> None:
    """Pin every Dopia environment switch the benchmark depends on."""
    for name in ("DOPIA_BACKEND", "DOPIA_TRACE", "DOPIA_JOBS"):
        os.environ.pop(name, None)
    os.environ["DOPIA_CACHE_DIR"] = str(ROOT / ".cache")
    os.environ["DOPIA_VERIFY"] = policy


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(m, setups: list) -> dict:
    from stats import geomean, median, per_kernel

    values = {
        "setup_s": (median(setups), "s"),
        "throughput_lps": (m.launches / m.busy_s, "launches/s"),
        "launch_ms": (per_kernel(m.latencies, geomean) * 1e3, "ms"),
        "build_ms": (per_kernel(m.builds, median) * 1e3, "ms"),
        "first_launch_ms": (per_kernel(m.first_launches, median) * 1e3, "ms"),
        "sim_speedup_vs_gpu": (geomean(m.speedups), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def traced_run(workload, layers, seconds: float):
    """Alternate untraced and traced phases of equal length.

    Alternating keeps slow drift of the machine out of the overhead
    estimate.  Program counters are differenced around each traced phase.
    """
    from layers import stats_snapshot

    server = getattr(workload, "server", None)
    plain, traced, deltas = [], [], {}
    for phase in range(TRACE_PHASES):
        if phase % 2 == 0:
            plain.append(workload.run(seconds / TRACE_PHASES))
            continue
        before = stats_snapshot(server)
        layers.install()
        try:
            traced.append(workload.run(seconds / TRACE_PHASES, layers))
        finally:
            layers.restore()
        for key, value in stats_snapshot(server).items():
            deltas[key] = deltas.get(key, 0) + value - before[key]
    return deltas, traced, plain


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        return 2
    from workloads import WORKLOADS  # needs the program on sys.path

    workload_cls = WORKLOADS[args.workload]
    isolate_environment(workload_cls.verify_policy)
    pin_to_one_cpu()

    from layers import SETUP_BINDINGS, Layers, per_layer_metrics
    from repro.core import DopiaRuntime
    from repro.core.training import collect_dataset
    from repro.workloads import training_workloads
    from stats import NOMINAL_CALIBRATION_S, Accounting
    from workloads import PLATFORM

    acct = Accounting()
    workload = workload_cls(args.seed, acct)
    workload.prepare_inputs()
    # A cold dataset collection (first run in a checkout) is not set-up.
    collect_dataset(training_workloads(), PLATFORM)

    setup_layers = Layers()
    if args.trace:
        setup_layers.install(SETUP_BINDINGS)
    setups = []
    try:
        for _ in range(1 if args.short else SETUPS):
            workload.clock.calibrate(runs=3)
            start = time.perf_counter()
            runtime = DopiaRuntime.from_pretrained(PLATFORM, model_name="dt")
            workload.warm_up(runtime)
            elapsed = time.perf_counter() - start
            workload.clock.calibrate(runs=3)
            setups.append(elapsed * workload.clock.factor)
    finally:
        setup_layers.restore()

    seconds = 0.0 if args.short else args.seconds
    try:
        if not args.trace:
            measured = workload.run(seconds)
            metrics = end_to_end_metrics(measured, setups)
            print(f"timed: {measured.launches} launches in {measured.rounds} "
                  f"whole round(s), {measured.wall_s:.2f} s")
        else:
            layers = Layers()
            metrics = per_layer_metrics(
                layers, setup_layers, *traced_run(workload, layers, seconds))
            out = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            layers.write(out)
            print(f"spans: {len(layers.spans)} written to {out.relative_to(ROOT)}")
    finally:
        workload.close()

    samples = workload.clock.samples
    print(f"calibration: {len(samples)} snippets, median "
          f"{statistics.median(samples) * 1e3:.3f} ms, min "
          f"{min(samples) * 1e3:.3f} ms (reference "
          f"{NOMINAL_CALIBRATION_S * 1e3:.3f} ms)")
    for kind, counts in sorted(acct.kinds.items()):
        print(f"{kind}: attempted={counts.attempted} failed={counts.failed}")
    for problem in acct.problems:
        print(f"problem: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": acct.correct,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
