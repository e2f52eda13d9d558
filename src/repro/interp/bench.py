"""Backend micro-benchmark: scalar oracle vs jit programs.

Times representative registry kernels on both execution tiers, verifies
the jit stays bit-identical to the scalar oracle, and emits the JSON
payload committed as ``BENCH_backend.json`` — the baseline the CI ``perf``
lane replays against (``dopia bench --check``).

The regression guard compares *speedup ratios* (jit over scalar) rather
than absolute wall-clock, so the committed baseline stays meaningful
across machines of different absolute speed: a 10% relative slowdown of
one tier against another is a code regression, a uniformly slower runner
is not.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .executor import KernelExecutor

#: Report schema; bump when the payload shape changes incompatibly.
SCHEMA_VERSION = 2

#: name -> zero-arg factory producing a Workload.  Mid-sized instances:
#: large enough that per-launch overhead does not dominate, small enough
#: that the scalar oracle finishes in a couple of seconds.  GESUMMV /
#: ATAX1 / MVT1 take the uniform-control fast path (whole-array jit
#: program, no masks); SpMV's irregular row loop runs as a masked loop.
def _default_subjects() -> dict[str, Callable]:
    from ..workloads import make_atax1, make_gesummv, make_mvt1, make_spmv

    return {
        "GESUMMV": lambda: make_gesummv(n=512, wg=64),
        "ATAX1": lambda: make_atax1(n=512, wg=64),
        "MVT1": lambda: make_mvt1(n=512, wg=64),
        "SpMV": lambda: make_spmv(n=2048, wg=64, nnz_per_row=32),
    }


def _copy_args(args: dict) -> dict:
    return {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in args.items()
    }


def _buffers_identical(info, reference: dict, candidate: dict) -> bool:
    return all(
        np.asarray(reference[name]).tobytes()
        == np.asarray(candidate[name]).tobytes()
        for name in info.buffer_params
        if isinstance(reference.get(name), np.ndarray)
    )


def _best_of(run: Callable[[], None], repeats: int,
             min_seconds: float = 0.3, max_repeats: int = 100) -> float:
    """Best single-run time, repeating until both ``repeats`` runs and
    ``min_seconds`` of total measurement have accumulated.

    The jit tier finishes in milliseconds, where two or three samples
    leave >10% run-to-run noise — enough to trip a 0.9x regression floor
    spuriously.  Accumulating a minimum measurement window keeps the
    reported best stable without inflating the cost of second-scale runs
    (they already exceed the window on their first repetition).
    """
    best = math.inf
    total = 0.0
    runs = 0
    while runs < repeats or (total < min_seconds and runs < max_repeats):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        total += elapsed
        runs += 1
    return best


def backend_bench(
    subjects: dict[str, Callable] | None = None,
    repeats: int = 3,
    rng: int = 0,
) -> dict:
    """Measure both backends on every subject and build the JSON payload.

    The jit tier is compiled once up front (the compile is reported
    separately as ``jit_compile_s``); a kernel the compiler declines
    fails the bench with :class:`~repro.interp.codegen.JitUnsupported`.
    Then ``repeats`` rounds alternate one scalar-oracle run with a
    best-of window of jit runs, each on fresh buffers with a warm program
    cache — the steady state a server or repeated launch sees.  Each tier
    reports its best time over the rounds: alternating keeps the two
    tiers' samples close in time, so a busy neighbour on a shared host
    slows both rather than one, and the best over rounds reads the
    uncontended speed of each.
    """
    from .codegen import JitExecutor, JitUnsupported, compile_cached

    if subjects is None:
        subjects = _default_subjects()

    kernels: dict[str, dict] = {}
    for name, factory in subjects.items():
        workload = factory()
        info = workload.kernel_info()
        ndrange = workload.ndrange()
        base = workload.full_args(rng=rng)
        try:
            compiled = compile_cached(info, _copy_args(base), ndrange)
        except JitUnsupported as exc:
            raise JitUnsupported(f"{name}: {exc}", exc.location) from None

        scalar_s = jit_s = math.inf
        for _ in range(max(1, repeats)):
            scalar_args = _copy_args(base)
            # The oracle is 2-3 orders of magnitude slower than the jit:
            # one run per round already exceeds the jit's whole window.
            scalar_s = min(scalar_s, _best_of(
                lambda: KernelExecutor(info, scalar_args, ndrange).run(), 1,
                min_seconds=0.0))
            jit_s = min(jit_s, _best_of(
                lambda: JitExecutor(info, _copy_args(base), ndrange,
                                    compiled).run(), 1))
        jit_args = _copy_args(base)
        JitExecutor(info, jit_args, ndrange, compiled).run()
        kernels[name] = {
            "work_items": workload.total_work_items,
            "scalar_s": round(scalar_s, 6),
            "jit_s": round(jit_s, 6),
            "jit_compile_s": round(compiled.compile_seconds, 6),
            "jit_speedup": round(scalar_s / jit_s, 3),
            "identical": _buffers_identical(info, scalar_args, jit_args),
        }

    return {
        "schema": SCHEMA_VERSION,
        "repeats": repeats,
        "kernels": kernels,
    }


#: Extra slack below ``ratio`` before a single kernel's metric becomes
#: fatal on its own (see :func:`compare_reports`).
PER_KERNEL_SLACK = 0.15


def compare_reports(current: dict, baseline: dict,
                    ratio: float = 0.9) -> tuple[list[str], list[str]]:
    """Regression guard against a committed baseline report.

    Returns ``(failures, warnings)``.  Single-kernel millisecond timings
    carry ~±10% run-to-run noise on shared CI runners, so a per-kernel
    0.9x gate would flake; the gate is therefore layered:

    * **fatal** — buffers not bit-identical to scalar, or a kernel's
      ``jit_speedup`` collapsing below ``ratio - PER_KERNEL_SLACK`` of
      its baseline.  (A kernel the compiler declines already fails
      :func:`backend_bench`.)
    * **warning** — a ``jit_speedup`` between the hard floor and
      ``ratio`` times its baseline: reported, but one noisy kernel does
      not fail the lane.
    """
    failures: list[str] = []
    warnings: list[str] = []
    hard = max(0.0, ratio - PER_KERNEL_SLACK)
    baseline_kernels = baseline.get("kernels", {})
    for name, row in current.get("kernels", {}).items():
        reference = baseline_kernels.get(name)
        if reference is None:
            continue
        if not row.get("identical", False):
            failures.append(f"{name}: jit buffers diverged from scalar")
        ref = reference.get("jit_speedup")
        cur = row.get("jit_speedup")
        if not ref or cur is None:
            continue
        if cur < hard * ref:
            failures.append(
                f"{name}: jit_speedup {cur:.2f}x < {hard:.0%} of "
                f"baseline {ref:.2f}x")
        elif cur < ratio * ref:
            warnings.append(
                f"{name}: jit_speedup {cur:.2f}x < {ratio:.0%} of "
                f"baseline {ref:.2f}x (within noise floor)")
    return failures, warnings
