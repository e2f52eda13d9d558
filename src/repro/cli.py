"""Command-line interface: ``python -m repro <command>`` (or ``dopia``).

Subcommands mirror the framework's phases:

* ``analyze``   — static analysis of a kernel file: Table-1 features,
  per-operation access classes, and the instantiated profile.
* ``transform`` — print the malleable GPU kernel (Figures 5/6) and the
  generated CPU variant (Figure 7).
* ``train``     — collect the Table-4 training set on a platform and fit a
  model; optionally save it (pickle) and emit the DT as C code (§5.2).
* ``predict``   — pick the best DoP configuration for a kernel launch with
  a trained (or freshly trained) model.
* ``sweep``     — exhaustively simulate all 44 configurations for a kernel
  launch and print the Figure-1-style table.
* ``trace``     — run one registry workload under the interposed runtime
  with tracing on; write the JSONL + Chrome trace-event pair.
* ``stats``     — summarise a JSONL trace written by ``trace`` (or by the
  ``DOPIA_TRACE=<path>`` atexit export).

Example::

    python -m repro analyze examples/kernels/gesummv.cl --arg n=16384 \\
        --global-size 16384 --local-size 256
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from .analysis import extract_static_features, profile_kernel
from .analysis.scan import scan_kernel
from .core import DopPredictor, collect_dataset, config_space, measure_workload
from .core.collect import (
    cache_contents,
    clear_cache,
    collect_dataset_with_stats,
    default_jobs,
)
from .core.training import _workloads_fingerprint, default_cache_dir
from .frontend import FrontendError, analyze_kernel, parse_kernel
from .interp.backend import BACKENDS
from .ml import MODEL_FAMILIES, make_model, tree_to_c
from .sim import get_platform
from .transform import make_cpu_kernel, make_malleable
from .workloads import (
    REAL_WORKLOAD_FACTORIES,
    SCALED_REAL_FACTORIES,
    real_workloads,
)
from .workloads.registry import Workload
from .workloads.synthetic import training_workloads


def _parse_scalar(text: str) -> float:
    value = float(text)
    return int(value) if value.is_integer() else value


def _parse_args_option(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--arg expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        out[name] = _parse_scalar(value)
    return out


def _load_kernel(path: str, name: str | None):
    try:
        source = Path(path).read_text()
    except OSError as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    try:
        kernel = parse_kernel(source, name)
        return source, analyze_kernel(kernel)
    except FrontendError as error:
        raise SystemExit(f"error: {path}: {error}")


def _sizes(option: str) -> tuple[int, ...]:
    return tuple(int(v) for v in option.split(","))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    _, info = _load_kernel(args.kernel, args.name)
    features = extract_static_features(info)
    print(f"kernel        : {info.kernel.name}")
    print(f"buffers       : {', '.join(info.buffer_params)}")
    print(f"scalars       : {', '.join(info.scalar_params) or '-'}")
    print("Table-1 code features:")
    for field in ("mem_constant", "mem_continuous", "mem_stride", "mem_random",
                  "arith_int", "arith_float"):
        print(f"  {field:16s} {getattr(features, field)}")
    scan = scan_kernel(info)
    print("memory operations:")
    for op in scan.mem_ops:
        kind = "store" if op.is_store else "load"
        print(f"  {op.buffer:12s} {kind:5s} {op.access.value:10s} depth={op.loop_depth}")
    if args.global_size:
        scalars = _parse_args_option(args.arg)
        profile = profile_kernel(
            info, scalars, args.global_size, args.local_size,
            work_dim=args.work_dim, irregular_trip_hint=args.hint,
        )
        print(f"profile @ global={args.global_size} local={args.local_size}:")
        print(f"  bytes/work-item      {profile.bytes_per_item:,.0f}")
        print(f"  flops/work-item      {profile.flops_per_item:,.0f}")
        print(f"  mem ops/work-item    {profile.mem_ops_per_item:,.0f}")
        print(f"  arithmetic intensity {profile.arithmetic_intensity:.3f} flop/B")
        print(f"  irregular            {profile.irregular}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    source, info = _load_kernel(args.kernel, args.name)
    malleable = make_malleable(info.kernel, work_dim=args.work_dim)
    print(f"// malleable GPU kernel (work_dim={args.work_dim})")
    print(malleable.source)
    if args.cpu:
        cpu = make_cpu_kernel(info.kernel, work_dim=args.work_dim)
        print(f"// generated CPU variant")
        print(cpu.source)
    return 0


def _progress_printer(every: int = 100):
    def report(done: int, total: int, key: str) -> None:
        if done == total or done % every == 0:
            print(f"  collected {done}/{total} workloads ({key})", file=sys.stderr)
    return report


def cmd_train(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    jobs = args.jobs or default_jobs()
    print(f"collecting Table-4 training data on {platform.name} "
          f"with {jobs} worker(s) (cached after the first run) ...", file=sys.stderr)
    dataset, stats = collect_dataset_with_stats(
        training_workloads(), platform,
        cache=not args.no_cache, jobs=jobs, progress=_progress_printer(),
    )
    print(f"  {stats.summary()}", file=sys.stderr)
    model = make_model(args.model)
    model.fit(dataset.feature_matrix(), dataset.targets())
    print(f"trained {args.model} on {dataset.n_workloads} x {dataset.n_configs} points")
    if args.output:
        payload = {"platform": platform.name, "model_name": args.model, "model": model}
        Path(args.output).write_bytes(pickle.dumps(payload))
        print(f"model saved to {args.output}")
    if args.emit_c:
        if args.model != "dt":
            raise SystemExit("--emit-c requires --model dt")
        from .analysis.features import FEATURE_NAMES

        Path(args.emit_c).write_text(
            tree_to_c(model, feature_names=list(FEATURE_NAMES))
        )
        print(f"decision tree emitted as C to {args.emit_c}")
    return 0


def _predictor(args: argparse.Namespace) -> DopPredictor:
    platform = get_platform(args.platform)
    if getattr(args, "model_file", None):
        payload = pickle.loads(Path(args.model_file).read_bytes())
        if payload["platform"] != platform.name:
            raise SystemExit(
                f"model was trained for {payload['platform']}, not {platform.name}"
            )
        return DopPredictor(payload["model"], platform)
    dataset = collect_dataset(
        training_workloads(), platform, cache=True,
        jobs=getattr(args, "jobs", None) or default_jobs(),
    )
    model = make_model(args.model)
    model.fit(dataset.feature_matrix(), dataset.targets())
    return DopPredictor(model, platform)


def cmd_predict(args: argparse.Namespace) -> int:
    _, info = _load_kernel(args.kernel, args.name)
    predictor = _predictor(args)
    features = extract_static_features(info)
    prediction = predictor.select(
        features, args.work_dim, args.global_size, args.local_size
    )
    setting = prediction.config.setting
    print(f"kernel   : {info.kernel.name}")
    print(f"platform : {predictor.platform.name}")
    print(f"selected : {setting.cpu_threads} CPU threads, "
          f"{setting.gpu_fraction:.1%} of GPU PEs")
    print(f"inference: {prediction.inference_cost_s * 1e6:.2f} us for 44 configs")
    if args.verbose:
        print("predicted normalised performance per configuration:")
        for config, score in zip(predictor.configs, prediction.scores):
            marker = " <-- selected" if config is prediction.config else ""
            print(f"  cpu={config.cpu_util:4.2f} gpu={config.gpu_util:5.3f} "
                  f"-> {score:6.3f}{marker}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else default_cache_dir()
    if args.cache_command == "key":
        platform = get_platform(args.platform)
        workloads = real_workloads() if args.real else training_workloads()
        print(f"{platform.name}-{_workloads_fingerprint(workloads, platform)}")
        return 0
    if args.cache_command == "clear":
        removed = clear_cache(directory)
        print(f"removed {removed} cache file(s) from {directory}")
        return 0
    # info (default)
    contents = cache_contents(directory)
    print(f"cache dir : {directory}")
    print(f"manifests : {len(contents['manifests'])}")
    print(f"shards    : {len(contents['shards'])}")
    print(f"legacy npz: {len(contents['legacy'])}")
    print(f"size      : {contents['bytes'] / 1e6:.2f} MB")
    for manifest in contents["manifests"]:
        print(f"  {manifest.name}")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    """Differential run: execute one launch on both interpreter backends
    (scalar oracle, jit), compare the output buffers bit-for-bit, and
    report the speedup."""
    from .interp import (
        JitUnsupported,
        KernelExecutor,
        NDRange,
        check_vectorizable,
        compile_cached,
        execution_stats,
        make_executor,
    )

    _, info = _load_kernel(args.kernel, args.name)
    ndrange = NDRange(_launch_sizes(args.global_size, args.work_dim),
                      _launch_sizes(args.local_size, args.work_dim))
    scalars = _parse_args_option(args.arg)
    sizes: dict[str, int] = {}
    for pair in args.buffer or []:
        if "=" not in pair:
            raise SystemExit(f"--buffer expects name=elements, got {pair!r}")
        name, _, count = pair.partition("=")
        sizes[name] = int(count)

    def build_args() -> dict:
        rng = np.random.default_rng(args.seed)
        values: dict = {}
        for param in info.kernel.params:
            if param.type.pointer:
                count = sizes.get(param.name, ndrange.total_work_items)
                if param.type.is_float:
                    values[param.name] = rng.standard_normal(count)
                else:
                    values[param.name] = rng.integers(
                        0, max(1, ndrange.total_work_items), count)
            elif param.name in scalars:
                values[param.name] = scalars[param.name]
            else:
                # a usable default: integer scalars are usually problem
                # sizes, float scalars usually coefficients
                values[param.name] = (
                    1.0 if param.type.is_float else ndrange.total_work_items
                )
        return values

    eligibility = check_vectorizable(info)
    print(f"kernel    : {info.kernel.name}")
    print(f"launch    : global={ndrange.global_size} local={ndrange.local_size}")
    where = getattr(eligibility, "location", None)
    at = f" at {where.line}:{where.column}" if where is not None else ""
    print(f"eligible  : {eligibility.eligible}"
          + (f" ({eligibility.reason}{at})" if eligibility.reason else ""))

    import time as _time

    from .interp import KernelRuntimeError

    scalar_args = build_args()
    started = _time.perf_counter()
    try:
        KernelExecutor(info, scalar_args, ndrange).run()
    except KernelRuntimeError as exc:
        raise SystemExit(
            f"kernel failed on the default inputs: {exc}\n"
            "(size buffers explicitly with --buffer NAME=ELEMENTS; buffers "
            "default to one element per work-item)"
        )
    scalar_s = _time.perf_counter() - started

    jit_args = build_args()
    jit_s = jit_note = None
    try:
        compiled = compile_cached(info, jit_args, ndrange)
    except JitUnsupported as exc:
        jit_note = f"declined: {exc}"
    else:
        jit_executor = make_executor(info, jit_args, ndrange, backend="jit")
        started = _time.perf_counter()
        jit_executor.run()
        jit_s = _time.perf_counter() - started
        notes = [f"compile {compiled.compile_seconds * 1e3:.1f} ms"]
        if compiled.masked:
            notes.append("masked")
        if compiled.oob_elided_by_verdict:
            notes.append("oob-elided-by-verdict")
        if getattr(jit_executor, "used_fallback", False):
            notes.append("fell back to scalar")
        jit_note = ", ".join(notes)

    mismatched = [
        name for name in info.buffer_params
        if jit_s is not None
        and np.asarray(scalar_args[name]).tobytes()
        != np.asarray(jit_args[name]).tobytes()
    ]
    print(f"scalar    : {scalar_s:.4f} s")
    if jit_s is not None:
        print(f"jit       : {jit_s:.4f} s ({jit_note})")
        if jit_s > 0:
            print(f"speedup   : {scalar_s / jit_s:.1f}x (jit over scalar)")
    else:
        print(f"jit       : - ({jit_note})")
    print(f"identical : {not mismatched}"
          + (f" (mismatch in {', '.join(mismatched)})" if mismatched else ""))
    print(execution_stats.summary(), file=sys.stderr)
    return 1 if mismatched else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static verification over registry workloads and/or kernel files.

    Positional targets are registry workload keys or ``.cl`` paths; no
    targets means every registry workload.  Workloads are verified against
    their real launch geometry (plus, with ``--variants``, their malleable
    GPU and generated CPU transforms); bare files get the
    launch-independent passes unless ``--global-size`` is given.
    """
    from .analysis.diagnostics import Severity, report_to_json
    from .analysis.lint import diff_baseline, lint_kernel_info, lint_workloads
    from .analysis.verify import LaunchSpec
    from .interp.ndrange import NDRange

    # Registry keys contain "/" (e.g. GESUMMV/24/wg8), so a path separator
    # alone does not make a target a file: only a real suffix or an
    # existing path does.
    file_targets = [t for t in args.target or []
                    if Path(t).suffix or Path(t).exists()]
    workload_keys = [t for t in args.target or [] if t not in file_targets]

    reports = []
    if workload_keys or not file_targets:
        try:
            reports.extend(lint_workloads(workload_keys or None,
                                          variants=args.variants))
        except KeyError as error:
            raise SystemExit(f"error: {error.args[0]}")
    for path in file_targets:
        _, info = _load_kernel(path, args.name)
        launch = None
        if args.global_size:
            ndrange = NDRange(_launch_sizes(args.global_size, args.work_dim),
                              _launch_sizes(args.local_size, args.work_dim))
            extents = {}
            for pair in args.buffer or []:
                name, _, count = pair.partition("=")
                extents[name] = int(count)
            buffers = {
                p.name: np.zeros(
                    extents.get(p.name, ndrange.total_work_items))
                for p in info.kernel.params if p.type.pointer
            }
            launch = LaunchSpec.from_args(
                ndrange, {**buffers, **_parse_args_option(args.arg)})
        reports.append(lint_kernel_info(info, name=Path(path).stem,
                                        launch=launch))

    document = report_to_json(reports)
    if args.json:
        print(document, end="")
    else:
        for report in reports:
            print(report.render())

    ratchet = _lint_stats(document, args.allow_unknown) if args.stats else 0

    if args.check:
        try:
            baseline = Path(args.check).read_text()
        except OSError as error:
            raise SystemExit(f"error: cannot read baseline: {error}")
        diff = diff_baseline(document, baseline)
        for line in diff.improved:
            print(f"lint: IMPROVED verdict: {line}", file=sys.stderr)
        for line in diff.removed:
            print(f"lint: removed from baseline: {line}", file=sys.stderr)
        if diff.improved or diff.removed:
            print("lint: baseline is stale; regenerate it with:",
                  file=sys.stderr)
            print(f"lint:   PYTHONPATH=src python -m repro lint "
                  f"{'--variants ' if args.variants else ''}--json "
                  f"> {args.check}", file=sys.stderr)
        if diff.schema_changed:
            print("lint: schema version differs from baseline",
                  file=sys.stderr)
        for line in diff.regressed:
            print(f"lint: REGRESSED verdict: {line}", file=sys.stderr)
        for line in diff.new:
            print(f"lint: NEW diagnostic: {line}", file=sys.stderr)
        if not diff.clean:
            return 1
        print(f"lint: no new diagnostics across {len(reports)} report(s)",
              file=sys.stderr)
        return ratchet
    errors = sum(len(r.by_severity(Severity.ERROR)) for r in reports)
    return 1 if errors else ratchet


def _lint_stats(document_json: str, allowlist_path: Optional[str]) -> int:
    """Per-verdict summary plus the *unknown ratchet*: exit non-zero when
    any ``unknown`` verdict is not excused by the committed allowlist, so
    the soundness envelope can only grow."""
    import json

    from .analysis.lint import unknown_entries, verdict_summary

    document = json.loads(document_json)
    summary = verdict_summary(document)
    for pass_name in sorted(summary):
        counts = ", ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(summary[pass_name].items()))
        print(f"lint: stats: {pass_name}: {counts}", file=sys.stderr)

    unknowns = unknown_entries(document)
    allowed: set[str] = set()
    if allowlist_path:
        try:
            allowed = set(json.loads(Path(allowlist_path).read_text()))
        except OSError as error:
            raise SystemExit(f"error: cannot read allowlist: {error}")
        except ValueError as error:
            raise SystemExit(f"error: malformed allowlist: {error}")
    for key in sorted(allowed - set(unknowns)):
        print(f"lint: allowlist entry no longer unknown (ratchet it): {key}",
              file=sys.stderr)
    unexpected = [key for key in unknowns if key not in allowed]
    for key in unexpected:
        print(f"lint: UNKNOWN verdict outside allowlist: {key}",
              file=sys.stderr)
    if unexpected:
        return 1
    print(f"lint: stats: {len(unknowns)} unknown verdict(s), "
          f"all allowlisted" if unknowns else
          "lint: stats: no unknown verdicts", file=sys.stderr)
    return 0


def _launch_sizes(total: int, work_dim: int) -> tuple[int, ...]:
    if work_dim == 1:
        return (total,)
    side = int(round(total ** (1 / work_dim)))
    return tuple(side for _ in range(work_dim))


def cmd_figures(args: argparse.Namespace) -> int:
    from .report import generate_all

    paths = generate_all(args.out)
    for path in paths:
        print(path)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    source, info = _load_kernel(args.kernel, args.name)
    platform = get_platform(args.platform)
    scalars = _parse_args_option(args.arg)
    global_size = (args.global_size,) if args.work_dim == 1 else tuple(
        int(round(args.global_size ** (1 / args.work_dim)))
        for _ in range(args.work_dim)
    )
    local_size = (args.local_size,) if args.work_dim == 1 else tuple(
        int(round(args.local_size ** (1 / args.work_dim)))
        for _ in range(args.work_dim)
    )
    workload = Workload(
        key=f"cli/{info.kernel.name}",
        source=source,
        kernel_name=info.kernel.name,
        global_size=global_size,
        local_size=local_size,
        scalar_args=scalars,
        irregular_trip_hint=args.hint,
    )
    configs = config_space(platform)
    times = measure_workload(workload, platform, configs)
    order = np.argsort(times)
    print(f"{info.kernel.name} on {platform.name}: all 44 configurations "
          "(fastest first)")
    for rank, index in enumerate(order[: args.top], start=1):
        config = configs[index]
        print(f"  {rank:2d}. cpu={config.setting.cpu_threads} "
              f"gpu={config.gpu_util:5.1%}  {times[index] * 1e3:9.3f} ms")
    best = configs[int(order[0])]
    print(f"best: {best.setting.cpu_threads} CPU threads + "
          f"{best.gpu_util:.1%} GPU ({times.min() * 1e3:.3f} ms)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one registry workload under the Dopia runtime with tracing on.

    Training (or the cached dataset load) happens *before* the tracer is
    enabled, so the trace covers exactly the online phase: program build,
    kernel analysis, prediction over the 44 configurations, functional
    co-execution, and the performance model.
    """
    from . import cl
    from .core.runtime import DopiaRuntime
    from .obs import (
        format_summary,
        summarize,
        tracer,
        write_chrome_trace,
        write_jsonl,
    )

    factories = REAL_WORKLOAD_FACTORIES if args.full else SCALED_REAL_FACTORIES
    if args.workload not in factories:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from: "
            + ", ".join(factories)
        )
    workload = factories[args.workload]()

    platform = get_platform(args.platform)
    jobs = args.jobs or default_jobs()
    print(f"training {args.model} on {platform.name} "
          "(cached after the first run) ...", file=sys.stderr)
    runtime = DopiaRuntime.from_pretrained(
        platform, model_name=args.model, jobs=jobs
    )

    tracer.enable()
    try:
        with cl.interposed(runtime):
            context = cl.create_context(args.platform)
            program = context.create_program_with_source(workload.source).build()
            kernel = program.create_kernel(workload.kernel_name)
            for name, value in workload.full_args(args.seed).items():
                kernel.set_arg(
                    name,
                    context.create_buffer(value)
                    if isinstance(value, np.ndarray) else value,
                )
            queue = cl.create_command_queue(
                context, functional=not args.full
            )
            event = queue.enqueue_nd_range_kernel(
                kernel, workload.global_size, workload.local_size,
                irregular_trip_hint=workload.irregular_trip_hint,
            )
        events = tracer.events()
        counters = dict(tracer.counters)
        dropped = tracer.dropped
    finally:
        tracer.disable()
        tracer.clear()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jsonl = out / f"{args.workload}.trace.jsonl"
    chrome = out / f"{args.workload}.chrome.json"
    write_jsonl(events, jsonl)
    write_chrome_trace(events, chrome, counters)

    print(f"workload : {args.workload} "
          f"(global={workload.global_size} local={workload.local_size})")
    print(f"simulated: {event.simulated_time_s * 1e3:.3f} ms")
    print(f"trace    : {jsonl}")
    print(f"chrome   : {chrome}  (load in chrome://tracing or ui.perfetto.dev)")
    if dropped:
        print(f"warning  : ring buffer dropped {dropped} event(s)", file=sys.stderr)
    print(format_summary(summarize(events)))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Summarise a JSONL trace file."""
    from .obs import format_summary, read_jsonl, summarize

    try:
        events = read_jsonl(args.trace)
    except OSError as error:
        raise SystemExit(f"error: cannot read {args.trace}: {error}")
    except ValueError as error:
        raise SystemExit(f"error: {args.trace} is not a JSONL trace: {error}")
    print(f"trace    : {args.trace}")
    print(format_summary(summarize(events)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Backend micro-benchmark with a committed-baseline regression guard.

    Times the scalar and jit tiers on representative registry kernels,
    checks bit-identity, and prints the table.  ``--out`` writes
    the JSON report; ``--update-baseline`` refreshes the committed
    ``BENCH_backend.json``; ``--check`` replays against a baseline and
    fails when any speedup drops below ``--check-ratio`` of it (the CI
    ``perf`` lane).
    """
    import json

    from .interp.bench import backend_bench, compare_reports
    from .interp.codegen import JitUnsupported

    try:
        payload = backend_bench(repeats=args.repeats)
    except JitUnsupported as error:
        raise SystemExit(f"error: the jit declined a bench kernel: {error}")

    header = (f"{'kernel':10s} {'items':>7s} {'scalar':>9s} {'jit':>9s} "
              f"{'jit-x':>6s}  identical")
    print(header)
    for name, row in payload["kernels"].items():
        print(f"{name:10s} {row['work_items']:7d} {row['scalar_s']:8.4f}s "
              f"{row['jit_s']:8.4f}s {row['jit_speedup']:5.1f}x  "
              f"{row['identical']}")

    broken = [name for name, row in payload["kernels"].items()
              if not row["identical"]]
    if broken:
        raise SystemExit(
            f"error: jit buffers diverged from scalar on {broken}")

    out = args.out
    if args.update_baseline:
        out = args.update_baseline
    if out:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report    : {out}")

    if args.check:
        try:
            baseline = json.loads(Path(args.check).read_text())
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"error: cannot read baseline {args.check}: {error}")
        failures, warnings = compare_reports(
            payload, baseline, args.check_ratio)
        for line in warnings:
            print(f"guard WARN: {line}")
        for line in failures:
            print(f"guard FAIL: {line}")
        if failures:
            raise SystemExit(
                f"error: {len(failures)} backend-speedup regression(s) "
                f"(< {args.check_ratio:.0%} of baseline)")
        print(f"guard     : jit speedups pass against the baseline "
              f"({len(warnings)} warning(s))")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Benchmark the concurrent serving layer: clients x launches.

    Runs a closed-loop load generator against :class:`repro.serve.DopiaServer`
    and prints throughput + latency percentiles.  ``--out`` writes the JSON
    report (the committed ``BENCH_serve.json`` baseline); ``--check`` compares
    the measured throughput against a baseline report and fails below
    ``--check-ratio`` of it (the CI stress-lane regression guard).

    ``--graph`` switches to the chained benchmark instead: every client owns
    ``--chains-per-client`` multi-kernel chains (``--chain``, default FDTD)
    and submits them twice — once as dependent launches with a client-side
    wait between hops, once as a whole graph via ``submit_chain`` — and the
    report records the graph-over-sync speedup plus bit-identity against a
    serial oracle.  With ``--out`` the chained report is merged under the
    top-level ``"chained"`` key, preserving the flat-bench ``"runs"`` (and
    vice versa).

    ``--shards N`` switches to the sharded multi-process benchmark: clients
    drive :class:`repro.serve.ShardedServer` with a pipelined window per
    client, and the report (merged under ``"sharded"[str(N)]``) carries
    per-shard blocks plus router counters.  Unless ``--no-verify``, an
    untimed functional pass re-runs every workload and two chains through
    the sharded data path and asserts bit-identity against the serial
    oracle.  ``--check`` guards against the matching shard count in the
    baseline's ``"sharded"`` dict.
    """
    import json

    from .core.runtime import DopiaRuntime
    from .serve import run_serve_bench
    from .serve.bench import run_chained_serve_bench, run_sharded_serve_bench
    from .workloads import SCALED_REAL_FACTORIES

    def merge_out(path: str, payload: dict, *, keep: tuple[str, ...]) -> None:
        """Write ``payload`` to ``path``, carrying over baseline keys in
        ``keep`` from any existing report so the flat, chained, and sharded
        benches can update one BENCH_serve.json without clobbering each
        other.  The ``"sharded"`` key is a dict of reports by shard count
        and is merged entry-wise."""
        target = Path(path)
        if target.exists():
            try:
                previous = json.loads(target.read_text())
            except ValueError:
                previous = {}
            for key in keep:
                if key not in previous:
                    continue
                if key == "sharded" and key in payload:
                    merged = dict(previous[key])
                    merged.update(payload[key])
                    payload[key] = merged
                elif key not in payload:
                    payload[key] = previous[key]
        target.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report   : {path}")

    if args.graph:
        platform = get_platform(args.platform)
        jobs = args.jobs or default_jobs()
        print(f"training {args.model} on {platform.name} "
              "(cached after the first run) ...", file=sys.stderr)
        runtime = DopiaRuntime.from_pretrained(
            platform, model_name=args.model, jobs=jobs)
        backend = args.backend or os.environ.get("DOPIA_BACKEND") or "auto"
        clients = max(int(v) for v in args.clients.split(","))
        report = run_chained_serve_bench(
            platform, runtime.predictor.model,
            clients=clients,
            steps=args.steps,
            chain=args.chain,
            grid=args.grid,
            chains_per_client=args.chains_per_client,
            workers=args.workers,
            backend=backend,
        )
        for mode in ("sync", "graph"):
            run = report[mode]
            print(f"{mode:5s}: {run['throughput_lps']:9.1f} launches/s  "
                  f"wall={run['wall_s']:.3f}s "
                  f"p50={run['latency']['p50_ms']:.2f}ms "
                  f"p99={run['latency']['p99_ms']:.2f}ms  "
                  f"bit_identical={run['bit_identical']} "
                  f"drained={run['drained']}")
        print(f"chained {report['chain']} x{report['chains_per_client']} "
              f"@ {report['clients']} clients: "
              f"{report['speedup_graph_over_sync']:.2f}x graph over sync")
        if not report["bit_identical"]:
            raise SystemExit("error: chained bench output diverged from the "
                             "serial oracle (bit_identical=false)")

        if args.out:
            merge_out(args.out, {"chained": report},
                      keep=("runs", "scaling", "sharded"))

        if args.check:
            try:
                baseline = json.loads(Path(args.check).read_text())
            except (OSError, ValueError) as error:
                raise SystemExit(
                    f"error: cannot read baseline {args.check}: {error}")
            reference = baseline.get("chained")
            if reference is None:
                print("guard    : baseline has no 'chained' report; skipping")
                return 0
            ref_tp = reference["graph"]["throughput_lps"]
            measured = report["graph"]["throughput_lps"]
            floor = args.check_ratio * ref_tp
            status = "ok" if measured >= floor else "REGRESSED"
            print(f"guard    : graph mode {measured:.1f} vs baseline "
                  f"{ref_tp:.1f} launches/s (floor {floor:.1f}) {status}")
            if status != "ok":
                raise SystemExit(
                    f"error: chained graph throughput regression "
                    f"(< {args.check_ratio:.0%} of baseline)")
        return 0

    if args.shards:
        platform = get_platform(args.platform)
        jobs = args.jobs or default_jobs()
        print(f"training {args.model} on {platform.name} "
              "(cached after the first run) ...", file=sys.stderr)
        runtime = DopiaRuntime.from_pretrained(
            platform, model_name=args.model, jobs=jobs)
        backend = args.backend or os.environ.get("DOPIA_BACKEND") or "auto"
        clients = max(int(v) for v in args.clients.split(","))
        report = run_sharded_serve_bench(
            platform, runtime.predictor.model,
            shards=args.shards,
            clients=clients,
            launches_per_client=args.launches,
            window=args.window,
            workers_per_shard=args.workers_per_shard,
            backend=backend,
            verify=not args.no_verify,
        )
        print(f"{args.shards} shard(s) x {report['workers_per_shard']} "
              f"workers, {clients} clients (window {report['window']}): "
              f"{report['throughput_lps']:9.1f} launches/s  "
              f"p50={report['latency']['p50_ms']:.2f}ms "
              f"p99={report['latency']['p99_ms']:.2f}ms")
        for block in report["shard_reports"]:
            cache = block["cache"]
            print(f"  shard {block['shard']}: {block['launches']:5d} launches "
                  f"({block['completed']} completed, {block['failed']} failed) "
                  f"cache={cache['hit_rate']:.0%}")
        router = report["router"]
        print(f"router   : escalated={router['escalated']} "
              f"chained_same_shard={router['chained_same_shard']} "
              f"throttled={router['throttled']} shed={router['shed']} "
              f"rerouted={router['rerouted']}")
        if "verify" in report:
            print(f"verify   : bit_identical={report['bit_identical']} "
                  f"({report['verify']['workloads']} workloads, "
                  f"chains {'/'.join(report['verify']['chains'])})")
            if not report["bit_identical"]:
                raise SystemExit("error: sharded bench output diverged from "
                                 "the serial oracle (bit_identical=false)")

        if args.out:
            merge_out(args.out, {"sharded": {str(args.shards): report}},
                      keep=("runs", "scaling", "chained", "sharded"))

        if args.check:
            try:
                baseline = json.loads(Path(args.check).read_text())
            except (OSError, ValueError) as error:
                raise SystemExit(
                    f"error: cannot read baseline {args.check}: {error}")
            reference = baseline.get("sharded", {}).get(str(args.shards))
            if reference is None:
                print(f"guard    : baseline has no sharded[{args.shards}] "
                      "report; skipping")
                return 0
            ref_tp = reference["throughput_lps"]
            measured = report["throughput_lps"]
            floor = args.check_ratio * ref_tp
            status = "ok" if measured >= floor else "REGRESSED"
            print(f"guard    : {args.shards} shard(s) {measured:.1f} vs "
                  f"baseline {ref_tp:.1f} launches/s (floor {floor:.1f}) "
                  f"{status}")
            if status != "ok":
                raise SystemExit(
                    f"error: sharded throughput regression "
                    f"(< {args.check_ratio:.0%} of baseline)")
        return 0

    names = (args.workloads.split(",") if args.workloads
             else list(SCALED_REAL_FACTORIES))
    unknown = [name for name in names if name not in SCALED_REAL_FACTORIES]
    if unknown:
        raise SystemExit(
            f"unknown workload(s) {', '.join(unknown)}; choose from: "
            + ", ".join(SCALED_REAL_FACTORIES))

    platform = get_platform(args.platform)
    jobs = args.jobs or default_jobs()
    print(f"training {args.model} on {platform.name} "
          "(cached after the first run) ...", file=sys.stderr)
    runtime = DopiaRuntime.from_pretrained(
        platform, model_name=args.model, jobs=jobs)

    client_counts = [int(v) for v in args.clients.split(",")]
    backend = args.backend or os.environ.get("DOPIA_BACKEND") or "auto"
    reports = []
    for clients in client_counts:
        report = run_serve_bench(
            platform, runtime.predictor.model,
            clients=clients,
            launches_per_client=args.launches,
            workload_names=names,
            workers=args.workers,
            backend=backend,
            functional=args.functional,
        )
        reports.append(report)
        print(f"{clients:3d} client(s): {report['throughput_lps']:9.1f} "
              f"launches/s  p50={report['latency']['p50_ms']:.2f}ms "
              f"p99={report['latency']['p99_ms']:.2f}ms  "
              f"cache={report['cache']['hit_rate']:.0%}  "
              f"adapted={report['predictions']['adapted']}")

    payload = {"runs": reports}
    if len(reports) > 1:
        base, top = reports[0], reports[-1]
        if base["throughput_lps"] > 0:
            payload["scaling"] = {
                "from_clients": base["clients"],
                "to_clients": top["clients"],
                "speedup": round(
                    top["throughput_lps"] / base["throughput_lps"], 3),
            }
            print(f"scaling {base['clients']} -> {top['clients']} clients: "
                  f"{payload['scaling']['speedup']:.2f}x")

    if args.out:
        merge_out(args.out, payload, keep=("chained", "sharded"))

    if args.check:
        try:
            baseline = json.loads(Path(args.check).read_text())
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: cannot read baseline {args.check}: {error}")
        failures = []
        by_clients = {run["clients"]: run for run in baseline.get("runs", [])}
        for report in reports:
            reference = by_clients.get(report["clients"])
            if reference is None:
                continue
            floor = args.check_ratio * reference["throughput_lps"]
            status = "ok" if report["throughput_lps"] >= floor else "REGRESSED"
            print(f"guard    : {report['clients']} client(s) "
                  f"{report['throughput_lps']:.1f} vs baseline "
                  f"{reference['throughput_lps']:.1f} launches/s "
                  f"(floor {floor:.1f}) {status}")
            if status != "ok":
                failures.append(report["clients"])
        if failures:
            raise SystemExit(
                f"error: throughput regression at {failures} client(s) "
                f"(< {args.check_ratio:.0%} of baseline)")
    return 0


def cmd_retrain(args: argparse.Namespace) -> int:
    """Run the online retraining loop manually (``dopia retrain``).

    Default mode loads the persisted observation store for the platform
    (segments written by serving processes via
    ``ObservationStore.flush``), trains the pretrained prior, and runs
    one drift-detect → refit → shadow-score step, printing the decision.

    ``--check`` runs the deterministic golden-trace replay end-to-end
    instead — planted load shift, drift detection, shadow-scored
    promotion, and a second replay for bit-stability — and exits
    non-zero unless every check passes.  This is the CI entry point; the
    regret report goes to ``--out``.
    """
    import json

    from .ml.online import (
        ObservationStore,
        OnlineConfig,
        OnlineLoop,
        ReplayConfig,
        observation_namespace,
        run_replay,
        train_base,
    )

    if args.check:
        config = ReplayConfig()
        print("training incumbent on the reduced Table-4 slice ...",
              file=sys.stderr)
        model, X, y = train_base(config)
        print("replaying the golden trace (twice, for bit-stability) ...",
              file=sys.stderr)
        first = run_replay(config, model=model, base_X=X, base_y=y)
        second = run_replay(config, model=model, base_X=X, base_y=y)
        report = dict(first)
        report["checks"] = dict(
            first["checks"],
            bit_stable=(first["chosen"] == second["chosen"]
                        and first["decisions"] == second["decisions"]),
        )
        report["pass"] = all(report["checks"].values())
        print(f"drift     : detected at launch {report['drift_detected_at']} "
              f"(shift planted at {config.shift_at})")
        print(f"promotion : at launch {report['promoted_at']} "
              f"({report['promotions']} promoted, "
              f"{report['rejections']} rejected)")
        print(f"regret    : pre={report['pre_promotion_regret']:.4f} "
              f"post={report['post_promotion_regret']:.4f} "
              f"(idle {report['idle_regret']:.4f})")
        for name, ok in report["checks"].items():
            print(f"check     : {name:22s} {'ok' if ok else 'FAILED'}")
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
            print(f"report    : {args.out}")
        if not report["pass"]:
            failed = [k for k, ok in report["checks"].items() if not ok]
            raise SystemExit(
                f"error: golden-trace replay failed: {', '.join(failed)}")
        return 0

    platform = get_platform(args.platform)
    store = ObservationStore(
        observation_namespace(platform.name),
        window=args.window,
        root=Path(args.store) if args.store else None,
    )
    loaded = store.load()
    print(f"observations: {loaded} loaded from {store.dir}")
    if not loaded:
        print("nothing to retrain from; serve with online=True (and flush "
              "the observation store) first")
        return 0

    jobs = args.jobs or default_jobs()
    print(f"training the {args.model} prior on {platform.name} "
          "(cached after the first run) ...", file=sys.stderr)
    dataset = collect_dataset(training_workloads(), platform,
                              cache=True, jobs=jobs)
    X, y = dataset.feature_matrix(), dataset.targets()
    model = make_model(args.model)
    model.fit(X, y)
    predictor = DopPredictor(model, platform)

    loop = OnlineLoop(
        model=model,
        configs_utils=predictor._utils,
        base_X=X,
        base_y=y,
        config=OnlineConfig(),
        store=store,
    )
    decision = loop.step()
    drift = decision.drift
    print(f"drift       : {'DETECTED' if drift.drifted else 'none'} "
          f"(mean regret {drift.mean_regret:.4f} over "
          f"{sum(k.observations for k in drift.kernels)} launches)")
    for kernel in drift.kernels:
        flag = " <- drifted" if kernel.drifted else ""
        print(f"  {kernel.kernel:20s} regret={kernel.mean_regret:.4f} "
              f"obs={kernel.observations} cells={kernel.cells}{flag}")
    if decision.shadow is not None:
        shadow = decision.shadow
        print(f"shadow      : incumbent={shadow.incumbent_regret:.4f} "
              f"candidate={shadow.candidate_regret:.4f} "
              f"margin={shadow.margin} -> "
              f"{'PROMOTE' if shadow.promote else 'reject'} "
              f"({shadow.reason})")
    if args.out:
        payload = {
            "platform": platform.name,
            "observations": store.stats(),
            "drifted": drift.drifted,
            "mean_regret": drift.mean_regret,
            "kernels": [
                {"kernel": k.kernel, "mean_regret": k.mean_regret,
                 "observations": k.observations, "cells": k.cells,
                 "drifted": k.drifted}
                for k in drift.kernels
            ],
            "promoted": decision.promoted,
            "reason": decision.reason,
        }
        if decision.shadow is not None:
            payload["shadow"] = {
                "incumbent_regret": decision.shadow.incumbent_regret,
                "candidate_regret": decision.shadow.candidate_regret,
                "margin": decision.shadow.margin,
            }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report      : {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dopia",
        description="Dopia (PPoPP'22) reproduction: analyse, transform, and "
                    "schedule OpenCL kernels on simulated integrated processors.",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="kernel-execution backend for functional runs (sets "
             "DOPIA_BACKEND; default: auto — trace-compiled NumPy program "
             "where the kernel compiles, the scalar interpreter otherwise)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_options(p, launch=True):
        p.add_argument("kernel", help="path to an OpenCL-C kernel file")
        p.add_argument("--name", help="kernel name (if the file has several)")
        if launch:
            p.add_argument("--global-size", type=int, default=16384,
                           dest="global_size", help="total work-items")
            p.add_argument("--local-size", type=int, default=256,
                           dest="local_size", help="work-items per group")
            p.add_argument("--work-dim", type=int, default=1, choices=(1, 2, 3))
            p.add_argument("--arg", action="append", metavar="NAME=VALUE",
                           help="scalar kernel argument (repeatable)")
            p.add_argument("--hint", type=float, default=None,
                           help="expected trip count of irregular loops")

    p = sub.add_parser("analyze", help="static analysis + optional profile")
    add_kernel_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="print malleable / CPU variants")
    p.add_argument("kernel")
    p.add_argument("--name")
    p.add_argument("--work-dim", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--cpu", action="store_true", help="also print the CPU variant")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="collect training data and fit a model")
    p.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    p.add_argument("--model", default="dt", choices=sorted(MODEL_FAMILIES))
    p.add_argument("--output", help="save the trained model (pickle)")
    p.add_argument("--emit-c", help="emit the decision tree as C code")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for dataset collection "
                        "(default: DOPIA_JOBS or cpu count)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="select the best DoP for a launch")
    add_kernel_options(p)
    p.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    p.add_argument("--model", default="dt", choices=sorted(MODEL_FAMILIES))
    p.add_argument("--model-file", help="use a model saved by `train --output`")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes if training data must be collected")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cache", help="inspect or manage the dataset cache")
    cache_sub = p.add_subparsers(dest="cache_command")
    pi = cache_sub.add_parser("info", help="show cache location and contents")
    pi.add_argument("--dir", help="cache directory (default: DOPIA_CACHE_DIR)")
    pk = cache_sub.add_parser("key", help="print the dataset fingerprint "
                                          "(used as the CI cache key)")
    pk.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    pk.add_argument("--real", action="store_true",
                    help="fingerprint the 14 real-world workloads instead")
    pk.add_argument("--dir", help=argparse.SUPPRESS)
    pc = cache_sub.add_parser("clear", help="delete all cached shards/manifests")
    pc.add_argument("--dir", help="cache directory (default: DOPIA_CACHE_DIR)")
    p.set_defaults(func=cmd_cache, cache_command="info", dir=None)

    p = sub.add_parser(
        "backends",
        help="differential-test one launch: scalar oracle vs jit backend",
    )
    add_kernel_options(p)
    p.add_argument("--buffer", action="append", metavar="NAME=ELEMENTS",
                   help="element count for a pointer argument "
                        "(default: total work-items)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the generated input buffers")
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser(
        "lint",
        help="static verification: data races, out-of-bounds accesses, "
             "divergent barriers, vectorizer eligibility",
    )
    p.add_argument("target", nargs="*", metavar="WORKLOAD|FILE",
                   help="registry workload keys and/or .cl files "
                        "(default: every registry workload)")
    p.add_argument("--variants", action="store_true",
                   help="also verify the malleable GPU and generated CPU "
                        "transforms of each workload")
    p.add_argument("--json", action="store_true",
                   help="emit the stable, schema-versioned JSON document")
    p.add_argument("--check", default=None, metavar="PATH",
                   help="diff against a committed baseline (LINT_BASELINE."
                        "json); exit 1 on any new diagnostic or verdict "
                        "regression")
    p.add_argument("--stats", action="store_true",
                   help="print per-pass verdict counts and fail on any "
                        "'unknown' verdict not excused by --allow-unknown")
    p.add_argument("--allow-unknown", default=None, metavar="PATH",
                   dest="allow_unknown",
                   help="JSON list of 'kernel#pass' keys whose unknown "
                        "verdicts are tolerated by --stats "
                        "(LINT_ALLOWLIST.json)")
    p.add_argument("--name", help="kernel name for file targets")
    p.add_argument("--global-size", type=int, default=None, dest="global_size",
                   help="specialize file targets at this launch (default: "
                        "launch-independent passes only)")
    p.add_argument("--local-size", type=int, default=256, dest="local_size")
    p.add_argument("--work-dim", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--arg", action="append", metavar="NAME=VALUE",
                   help="scalar kernel argument for file targets")
    p.add_argument("--buffer", action="append", metavar="NAME=ELEMENTS",
                   help="buffer extent for file targets "
                        "(default: total work-items)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("figures", help="regenerate the paper's figures as SVG")
    p.add_argument("--out", default="figures", help="output directory")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("sweep", help="simulate all 44 configurations")
    add_kernel_options(p)
    p.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    p.add_argument("--top", type=int, default=10, help="rows to print")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "trace",
        help="trace one registry workload through the interposed runtime",
    )
    p.add_argument("workload", metavar="WORKLOAD",
                   help="registry key (e.g. GESUMMV, SpMV, 2DCONV)")
    p.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    p.add_argument("--model", default="dt", choices=sorted(MODEL_FAMILIES))
    p.add_argument("--full", action="store_true",
                   help="paper-sized launch, simulation only (default: the "
                        "scaled launch, executed functionally)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for the input buffers")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes if training data must be collected")
    p.add_argument("--out", default="traces",
                   help="output directory for the trace pair")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="benchmark the execution backends against each other "
             "(scalar / jit) with a baseline regression guard",
    )
    p.add_argument("--repeats", type=int, default=3,
                   help="timing rounds, alternating the backends; each "
                        "backend's best round wins (default 3)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON report")
    p.add_argument("--check", default=None, metavar="PATH",
                   help="compare speedups against a baseline report "
                        "(BENCH_backend.json) and fail on regression")
    p.add_argument("--check-ratio", type=float, default=0.9,
                   help="minimum acceptable fraction of each baseline "
                        "speedup (default 0.9)")
    p.add_argument("--update-baseline", default=None, metavar="PATH",
                   nargs="?", const="BENCH_backend.json",
                   help="rewrite the committed baseline "
                        "(default path: BENCH_backend.json)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve-bench",
        help="benchmark the concurrent serving layer (clients x launches)",
    )
    p.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    p.add_argument("--model", default="dt", choices=sorted(MODEL_FAMILIES))
    p.add_argument("--clients", default="1,8",
                   help="comma-separated client counts to sweep (default 1,8)")
    p.add_argument("--launches", type=int, default=100,
                   help="launches per client (default 100)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: one per client)")
    p.add_argument("--workloads", default=None,
                   help="comma-separated registry kernels (default: all 14)")
    p.add_argument("--functional", action="store_true",
                   help="execute kernels functionally instead of "
                        "simulation-only benchmark mode")
    p.add_argument("--graph", action="store_true",
                   help="run the chained benchmark instead: dependent "
                        "multi-kernel chains submitted as graphs vs "
                        "client-side waits (reports the speedup and "
                        "bit-identity against a serial oracle)")
    p.add_argument("--chain", default="FDTD",
                   choices=("FDTD", "ATAX", "BICG", "MVT"),
                   help="chain workload for --graph (default FDTD)")
    p.add_argument("--steps", type=int, default=8,
                   help="chain steps/reps for --graph (default 8)")
    p.add_argument("--grid", type=int, default=12,
                   help="FDTD grid edge for --graph (default 12)")
    p.add_argument("--chains-per-client", type=int, default=2,
                   help="independent chains each client owns in --graph "
                        "mode (default 2)")
    p.add_argument("--shards", type=int, default=0,
                   help="run the sharded multi-process benchmark with this "
                        "many worker shards instead (0 = off)")
    p.add_argument("--workers-per-shard", type=int, default=8,
                   help="worker threads inside each shard for --shards "
                        "(default 8)")
    p.add_argument("--window", type=int, default=8,
                   help="pipelined launches each client keeps in flight "
                        "in --shards mode (default 8)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the untimed functional bit-identity pass "
                        "after the --shards benchmark")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for cold dataset collection")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the JSON report (e.g. BENCH_serve.json)")
    p.add_argument("--check", default=None, metavar="PATH",
                   help="compare against a baseline report and fail on "
                        "throughput regression")
    p.add_argument("--check-ratio", type=float, default=0.9,
                   help="minimum acceptable fraction of baseline throughput "
                        "(default 0.9)")
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "retrain",
        help="run the online retraining loop (drift -> refit -> shadow "
             "promotion) over persisted observations, or --check the "
             "golden-trace replay",
    )
    p.add_argument("--platform", default="kaveri", choices=("kaveri", "skylake"))
    p.add_argument("--model", default="dt", choices=sorted(MODEL_FAMILIES))
    p.add_argument("--store", default=None, metavar="DIR",
                   help="observation-store root (default: DOPIA_PRED_STORE "
                        "or ~/.cache/dopia)")
    p.add_argument("--window", type=int, default=4096,
                   help="observation window to score (default 4096)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for cold dataset collection")
    p.add_argument("--check", action="store_true",
                   help="run the deterministic golden-trace replay end-to-end "
                        "and fail unless drift is detected, the candidate is "
                        "promoted exactly once, regret improves, and the "
                        "replay is bit-stable")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the regret report JSON "
                        "(e.g. BENCH_retrain.json)")
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("stats", help="summarise a JSONL trace file")
    p.add_argument("trace", help="path to a .trace.jsonl file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.backend is not None:
        # Environment, not plumbing: every layer (queue, scheduler,
        # runtime) resolves its backend through DOPIA_BACKEND.
        os.environ["DOPIA_BACKEND"] = args.backend
    backend = os.environ.get("DOPIA_BACKEND")
    if backend and backend not in BACKENDS:
        print(f"dopia: error: DOPIA_BACKEND={backend!r} is not a backend; "
              f"expected one of {', '.join(BACKENDS)}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped to a consumer that exited early (e.g. `| head`);
        # silence the interpreter's stderr complaint about the lost stdout.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
