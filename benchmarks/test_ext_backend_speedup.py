"""Extension — jit-backend speedups over the scalar interpreter.

The functional substrate (`repro.interp`) is not part of the paper's
contribution, but everything downstream — differential tests, dataset
collection sanity runs, the application drivers — pays its cost.  This
bench measures what the jit tier buys on representative registry kernels
and asserts the central claims: bit-identical buffers, every subject on
the compiled path (SpMV's irregular row loop as a masked loop), and a
speedup of well over an order of magnitude at realistic launch sizes
(single cold runs; ``BENCH_backend.json`` has the best-of timings).

Run with ``-s`` to see the per-kernel table.
"""

import time

import numpy as np
import pytest

from repro.interp import (
    JitExecutor,
    KernelExecutor,
    check_vectorizable,
    compile_cached,
)
from repro.workloads import make_atax1, make_gesummv, make_mvt1, make_spmv

from conftest import print_table

#: Mid-sized instances: big enough that batching dominates interpreter
#: dispatch, small enough that the scalar oracle finishes in seconds.
#: GESUMMV/ATAX1/MVT1 take the uniform-control fast path; SpMV's
#: irregular row loop runs masked.
SUBJECTS = {
    "GESUMMV": lambda: make_gesummv(n=512, wg=64),
    "ATAX1": lambda: make_atax1(n=512, wg=64),
    "MVT1": lambda: make_mvt1(n=512, wg=64),
    "SpMV": lambda: make_spmv(n=2048, wg=64, nnz_per_row=32),
}


def _copy_args(args):
    return {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in args.items()
    }


def _identical(info, reference, candidate):
    return all(
        reference[buf].tobytes() == candidate[buf].tobytes()
        for buf in info.buffer_params
        if isinstance(reference[buf], np.ndarray)
    )


@pytest.fixture(scope="module")
def speedup_results():
    rows = []
    for name, factory in SUBJECTS.items():
        workload = factory()
        info = workload.kernel_info()
        assert check_vectorizable(info).eligible
        base = workload.full_args(rng=0)

        scalar_args = _copy_args(base)
        started = time.perf_counter()
        KernelExecutor(info, scalar_args, workload.ndrange()).run()
        scalar_s = time.perf_counter() - started

        jit_args = _copy_args(base)
        compiled = compile_cached(info, jit_args, workload.ndrange())
        executor = JitExecutor(info, jit_args, workload.ndrange(), compiled)
        started = time.perf_counter()
        executor.run()
        jit_s = time.perf_counter() - started

        rows.append({
            "kernel": name,
            "work_items": workload.total_work_items,
            "scalar_s": scalar_s,
            "jit_s": jit_s,
            "jit_speedup": scalar_s / jit_s,
            "masked": compiled.masked,
            "identical": _identical(info, scalar_args, jit_args),
            "fallback": executor.used_fallback,
        })
    return rows


def test_ext_backend_speedup_table(benchmark, speedup_results):
    benchmark(lambda: speedup_results[0]["jit_speedup"])
    print_table(
        "Extension: jit backend vs scalar oracle",
        ["kernel", "work_items", "scalar_s", "jit_s", "jit_x", "masked",
         "identical"],
        [
            [r["kernel"], r["work_items"], f"{r['scalar_s']:.3f}",
             f"{r['jit_s']:.4f}", f"{r['jit_speedup']:.1f}x", r["masked"],
             r["identical"]]
            for r in speedup_results
        ],
    )


def test_buffers_bit_identical(speedup_results):
    for row in speedup_results:
        assert row["identical"], row["kernel"]
        assert not row["fallback"], row["kernel"]


def test_irregular_loop_runs_masked(speedup_results):
    masked = {r["kernel"]: r["masked"] for r in speedup_results}
    assert not masked["GESUMMV"]
    assert not masked["ATAX1"]
    assert not masked["MVT1"]
    # the irregular row loop compiles to a masked loop, not a decline
    assert masked["SpMV"]


def test_jit_speedup(speedup_results):
    for row in speedup_results:
        assert row["jit_speedup"] > 50.0, (
            f"{row['kernel']}: only {row['jit_speedup']:.1f}x"
        )
