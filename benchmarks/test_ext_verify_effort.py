"""Extension — verify-effort guard for cold launch verification.

Under ``DOPIA_VERIFY`` every first launch of a kernel verifies the
original kernel and the malleable variant about to run, so the race/OOB
solver's effort is launch latency.  This bench verifies the kernels of a
cold build at their first-launch geometry: the five 2-D Table-2 slots
(16 work-items along dimension 0, 16-item work-groups) and the scaled
registry kernels, each original plus its malleable variant at a CPU-only
and a half-GPU throttle.  It asserts three things:

* no query exhausts the solver's node budget;
* the total solver nodes stay at or below :data:`NODE_CAP`;
* the race and OOB verdicts are the expected ones, including the 2-D
  malleable ``1mat4d1R`` race proof that the branch-and-prune search
  this solver replaced never finished.

Solver node counts are deterministic (no clocks, no randomness), so the
cap is portable across machines.  Run with ``-s`` to see the table.
"""

import numpy as np
import pytest

from repro.analysis.verify import LaunchSpec, verify_launch
from repro.obs import tracer
from repro.sim import KAVERI
from repro.transform import make_malleable, throttle_settings
from repro.workloads import SCALED_REAL_FACTORIES, make_synthetic
from repro.workloads.synthetic import SyntheticSpec

from conftest import print_table

#: The 2-D Table-2 slots of a cold build, at its launch geometry.
TABLE2_2D = ("1mat3d", "2mat3d1R", "2mat3d1T", "2mat3d1C1R1T", "1mat4d1R")
SYNTHETIC_SIZE = 16
SYNTHETIC_WG = 16

#: Total solver nodes over every verification below.  The propagating
#: solver needs 3,632; the search it replaced needed about 1.8 million and
#: still left ``1mat4d1R``'s malleable races unknown.
NODE_CAP = 8_000

#: (dop_gpu_mod, dop_gpu_alloc) of the malleable variant: CPU-only and a
#: half-GPU share.
THROTTLES = ((1, 1), throttle_settings(KAVERI.gpu.pes_per_cu, 0.5))

#: Kernels whose OOB verdict stays ``unknown``: they index through an
#: index buffer (PageRank, SpMV and the Table-2 ``R`` patterns).
OOB_UNKNOWN = {"PageRank", "SpMV", "2mat3d1R", "2mat3d1C1R1T", "1mat4d1R"}


def workloads():
    for pattern in TABLE2_2D:
        spec = SyntheticSpec.from_pattern(pattern, dim=2)
        yield pattern, make_synthetic(spec, size=SYNTHETIC_SIZE,
                                      wg_items=SYNTHETIC_WG)
    for name, factory in SCALED_REAL_FACTORIES.items():
        yield name, factory()


def verify_all(name, workload):
    """Verdicts of the original and each malleable throttle, with the
    tracer's solver counters for all of them."""
    args = workload.full_args(np.random.default_rng(0))
    ndrange = workload.ndrange()
    reports = {"original": verify_launch(
        workload.kernel_info(), LaunchSpec.from_args(ndrange, args))}
    malleable = make_malleable(workload.source, work_dim=workload.work_dim)
    for mod, alloc in THROTTLES:
        spec = LaunchSpec.from_args(
            ndrange, dict(args, dop_gpu_mod=mod, dop_gpu_alloc=alloc))
        reports[f"malleable {mod}/{alloc}"] = verify_launch(malleable.info,
                                                            spec)
    return reports


@pytest.fixture(scope="module")
def effort():
    tracer.disable()
    tracer.clear()
    out = {}
    try:
        for name, workload in workloads():
            tracer.enable()
            reports = verify_all(name, workload)
            counters = dict(tracer.counters)
            tracer.disable()
            tracer.clear()
            out[name] = (reports, counters)
    finally:
        tracer.disable()
        tracer.clear()
    return out


def test_verify_effort_within_cap(effort):
    rows = []
    total = 0
    for name, (reports, counters) in effort.items():
        nodes = int(counters.get("verify.solver_nodes", 0))
        total += nodes
        rows.append([name, nodes,
                     " ".join(r.verdicts["races"] for r in reports.values()),
                     " ".join(r.verdicts["oob"] for r in reports.values())])
        assert "verify.solver_budget_exhausted" not in counters, name
    print_table("cold-launch verification effort",
                ["kernel", "solver nodes", "races", "oob"], rows)
    print(f"total solver nodes {total} (cap {NODE_CAP})")
    assert total <= NODE_CAP


def test_expected_verdicts(effort):
    for name, (reports, _) in effort.items():
        for variant, report in reports.items():
            assert report.verdicts["races"] == "clean", (name, variant)
            oob = "unknown" if name in OOB_UNKNOWN else "clean"
            assert report.verdicts["oob"] == oob, (name, variant)
    assert effort["1mat4d1R"][0]["malleable 1/1"].verdicts["races"] == "clean"
