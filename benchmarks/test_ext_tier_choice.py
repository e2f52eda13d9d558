"""Extension — executor-tier guard for a cold build's first launches.

A cold build launches each Table-2 source once at 16 work-items in
16-item work-groups, each item running a 3-D or 4-D loop nest, and the
scaled registry kernels at their own small geometries.  The executor
tier must follow the kernel's structure, not the launch size: on every
one of these launches ``backend="auto"`` must pick the same tier as
``backend="jit"``.  A size rule that sends small launches to the scalar
interpreter (so a 16-item launch of a 4-D loop nest costs seconds
instead of milliseconds) fails here.

The subjects are every Table-2 pattern at work dimension 1 and five at
work dimension 2, in every data type and constant-factor count a seeded
draw can pick, plus the 14 scaled registry kernels.  The guard also pins
how many of them end on each tier.  It counts tiers and measures no time,
so it is deterministic.  Run with ``-s`` to see the table.

GPU shares are pinned too: Algorithm 1 at GPU-only, over the scaled
registry kernels and the ATAX2/BICG1/MVT2 launches of perfbench's
app-coexec (n=64, 8-item groups), must run every GPU chunk on the jit
and never call the scalar interpreter.
"""

import numpy as np
import pytest

from repro.core.scheduler import run_dynamic
from repro.interp import JitExecutor, execution_stats, make_executor
from repro.sim import DopSetting
from repro.transform import make_malleable
from repro.workloads import (
    SCALED_REAL_FACTORIES,
    make_atax2,
    make_bicg1,
    make_mvt2,
    make_synthetic,
)
from repro.workloads.synthetic import (
    TABLE4_DTYPES,
    TABLE4_GAMMAS,
    TABLE4_PATTERNS,
    SyntheticSpec,
)

from conftest import print_table

#: The (pattern, work dimension) slots of a cold build, at its geometry.
SLOTS = (
    [(pattern, 1) for pattern in TABLE4_PATTERNS]
    + [(pattern, 2) for pattern in ("1mat3d", "2mat3d1R", "2mat3d1T",
                                    "2mat3d1C1R1T", "1mat4d1R")]
)
SYNTHETIC_SIZE = 16
SYNTHETIC_WG = 16

#: Launches ending on each tier.  Every one compiles: PageRank and SpMV
#: loop to a bound read from a buffer, which runs as a masked loop.
EXPECTED_TIERS = {"jit": 6 * len(SLOTS) + 14}

TIERS = {JitExecutor: "jit"}


def workloads():
    for pattern, dim in SLOTS:
        for dtype in TABLE4_DTYPES:
            for gamma in TABLE4_GAMMAS:
                spec = SyntheticSpec.from_pattern(pattern, dim=dim,
                                                  dtype=dtype, gamma=gamma)
                workload = make_synthetic(spec, size=SYNTHETIC_SIZE,
                                          wg_items=SYNTHETIC_WG)
                yield workload.key, workload
    for name, factory in SCALED_REAL_FACTORIES.items():
        yield name, factory()


def tier_of(workload, backend):
    executor = make_executor(workload.kernel_info(),
                             workload.full_args(np.random.default_rng(0)),
                             workload.ndrange(), backend=backend)
    return TIERS.get(type(executor), "scalar")


@pytest.fixture(scope="module")
def tiers():
    return {name: (workload.ndrange().total_work_items,
                   tier_of(workload, "auto"), tier_of(workload, "jit"))
            for name, workload in workloads()}


def test_auto_picks_the_jit_tier(tiers):
    for name, (_, auto, jit) in tiers.items():
        assert auto == jit, name


def test_tier_counts(tiers):
    by_tier = {}
    for items, auto, _ in tiers.values():
        by_tier.setdefault(auto, []).append(items)
    print_table("first-launch executor tiers",
                ["tier", "kernels", "fewest work-items", "most work-items"],
                [[tier, len(items), min(items), max(items)]
                 for tier, items in sorted(by_tier.items())])
    assert {tier: len(items) for tier, items in by_tier.items()} \
        == EXPECTED_TIERS


#: GPU-share subjects: the scaled registry and app-coexec's launches.
GPU_SHARE_FACTORIES = {
    **SCALED_REAL_FACTORIES,
    "app-coexec ATAX2": lambda: make_atax2(n=64, wg=8),
    "app-coexec BICG1": lambda: make_bicg1(n=64, wg=8),
    "app-coexec MVT2": lambda: make_mvt2(n=64, wg=8),
}


def test_gpu_shares_run_on_the_jit():
    rows = []
    for name, factory in GPU_SHARE_FACTORIES.items():
        workload = factory()
        info = workload.kernel_info()
        execution_stats.reset()
        try:
            trace = run_dynamic(
                info, make_malleable(info, work_dim=workload.work_dim),
                workload.full_args(np.random.default_rng(0)),
                workload.ndrange(),
                DopSetting(cpu_threads=0, gpu_fraction=1.0),
                backend="auto")
            runs = {backend: counter.calls
                    for (_, backend), counter in execution_stats.runs.items()}
            fallbacks = sum(execution_stats.fallbacks.values())
        finally:
            execution_stats.reset()
        rows.append([name, trace.gpu_chunks, runs.get("jit", 0),
                     runs.get("scalar", 0), fallbacks])
    print_table("GPU-only launches",
                ["kernel", "gpu chunks", "jit runs", "scalar runs",
                 "fallbacks"], rows)
    for name, chunks, jit, scalar, fallbacks in rows:
        assert chunks > 0 and jit == chunks, name
        assert scalar == 0 and fallbacks == 0, name
