"""Functional implementation of Algorithm 1 (runtime workload management).

This module executes a kernel launch the way Dopia's runtime manager does,
operating on the *real* buffers through the interpreter:

* an atomic worklist holds the index of the next unprocessed work-group;
* each active CPU thread pulls **one work-group at a time** (pull-based,
  because CPUs have cheap atomics);
* the GPU is **pushed chunks** of ``num_wgs / 10`` work-groups — Intel
  iGPUs lack CPU–GPU global atomics, so the GPU cannot pull;
* the loop repeats until the worklist is exhausted.

On the modelled GPU a chunk runs the malleable kernel at the selected
``(dop_gpu_mod, dop_gpu_alloc)`` throttle (§6).  Host execution is only
the correctness half of the runtime — timing is
:mod:`repro.sim.engine`'s job — so both devices' claims run on **one**
executor built from the original kernel, and a GPU chunk is the original
kernel over that chunk's group ids.  The malleable variant remains the
artifact the legality gate verifies at the chosen throttle and the one
the simulator prices; the differential suite runs it on the scalar
oracle across the throttle grid and demands the original's bytes, which
is what licenses running the original in its place (one task, the
variant picked at placement).

Functional execution is deterministic and every work-group is executed
exactly once, whatever the interleaving — the invariant the test suite
checks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from ..frontend.semantics import KernelInfo
from ..interp.ndrange import NDRange
from ..interp.backend import make_executor
from ..obs import tracer
from ..obs.tracer import NULL_SPAN
from ..sim.engine import DopSetting
from ..transform.gpu_malleable import ALLOC_PARAM, MOD_PARAM, MalleableKernel


@dataclass
class ScheduleTrace:
    """Which device executed which work-groups, in claim order."""

    cpu_groups: list[int] = field(default_factory=list)
    gpu_groups: list[int] = field(default_factory=list)
    gpu_chunks: int = 0

    @property
    def total(self) -> int:
        return len(self.cpu_groups) + len(self.gpu_groups)


class AtomicWorklist:
    """The shared work-group counter of Algorithm 1 (line 6).

    Genuinely atomic: ``fetch_add`` is a locked read-modify-write, so the
    counter can be shared by concurrent claimants (the serving layer's
    stress harness hammers one worklist from many threads) without losing
    or duplicating work-groups.  The lock is per-worklist — per-launch
    state, never a global execution lock.
    """

    __slots__ = ("next", "limit", "_lock")

    def __init__(self, num_work_groups: int):
        self.next = 0
        self.limit = num_work_groups
        self._lock = threading.Lock()

    def fetch_add(self, count: int = 1) -> int:
        with self._lock:
            value = self.next
            self.next += count
            return value

    @property
    def exhausted(self) -> bool:
        return self.next >= self.limit


def _verify_legality(
    cpu_info: KernelInfo,
    gpu_kernel: MalleableKernel | None,
    args: dict[str, Any],
    ndrange: NDRange,
    dop_gpu_mod: int,
    dop_gpu_alloc: int,
) -> None:
    """Admission legality gate for every dynamic-schedule execution.

    Under ``DOPIA_VERIFY`` the original kernel — and, when the GPU side is
    active, the malleable variant at this throttle — must verify for this
    launch before any work-group is claimed; ``raise`` refuses RACE001
    inputs outright.  All callers of :func:`run_dynamic` (the runtime, the
    serving workers, chains) pass through here, so the gate cannot be
    bypassed by a new execution path.  The default ``off`` costs one env
    lookup; verified launches are cached per (kernel, launch shape).
    """
    import os

    if os.environ.get("DOPIA_VERIFY", "off").strip().lower() in ("", "off"):
        return
    from ..analysis.verify import (
        LaunchSpec,
        apply_policy,
        current_policy,
        verify_launch_cached,
    )

    policy = current_policy()
    if policy == "off":
        return
    apply_policy(
        verify_launch_cached(cpu_info, LaunchSpec.from_args(ndrange, args)),
        policy)
    if gpu_kernel is not None:
        gpu_args = dict(args)
        gpu_args[MOD_PARAM] = dop_gpu_mod
        gpu_args[ALLOC_PARAM] = dop_gpu_alloc
        apply_policy(
            verify_launch_cached(gpu_kernel.info,
                                 LaunchSpec.from_args(ndrange, gpu_args)),
            policy)


def run_dynamic(
    cpu_info: KernelInfo,
    gpu_kernel: MalleableKernel | None,
    args: dict[str, Any],
    ndrange: NDRange,
    setting: DopSetting,
    dop_gpu_mod: int = 1,
    dop_gpu_alloc: int = 1,
    chunk_divisor: int = 10,
    cpu_pulls_per_round: int | None = None,
    backend: str | None = None,
) -> ScheduleTrace:
    """Execute one launch with Algorithm 1's dynamic distribution.

    ``cpu_info`` is the original kernel; ``gpu_kernel`` is its malleable
    GPU variant, which the legality gate verifies at ``(dop_gpu_mod,
    dop_gpu_alloc)`` when the GPU is active (a CPU-only launch may pass
    ``None``).  Both devices' claims run on
    one executor of the original kernel (see the module docstring), so a
    GPU chunk takes the same compiled tier as the CPU's work-groups.
    ``cpu_pulls_per_round`` models how many work-groups the CPU side
    claims while one GPU chunk is in flight (any value yields a correct
    execution; it only changes the split).  ``backend`` selects the
    executor tier.
    """
    num_wgs = ndrange.total_groups
    worklist = AtomicWorklist(num_wgs)
    trace = ScheduleTrace()

    use_cpu = setting.uses_cpu
    use_gpu = setting.uses_gpu
    if not use_cpu and not use_gpu:
        raise ValueError("at least one device must be active")

    _verify_legality(cpu_info, gpu_kernel if use_gpu else None, args,
                     ndrange, dop_gpu_mod, dop_gpu_alloc)

    executor = make_executor(cpu_info, args, ndrange, backend=backend)

    chunk = max(1, num_wgs // max(1, chunk_divisor)) if use_gpu else 0
    pulls = cpu_pulls_per_round
    if pulls is None:
        pulls = max(1, setting.cpu_threads) * max(1, chunk // 2)

    traced = tracer.enabled
    with tracer.span(
        "schedule.run_dynamic", "schedule",
        kernel=cpu_info.kernel.name, num_work_groups=num_wgs,
        cpu_threads=setting.cpu_threads, gpu_fraction=setting.gpu_fraction,
        chunk_size=chunk,
    ) if traced else NULL_SPAN:
        if not use_gpu:
            # CPU-only launch: no other device shares the worklist, so
            # the pull loop degenerates to "claim everything once" — run
            # the whole NDRange as one batch, which pays the executor's
            # per-call overhead (output snapshot, lane setup) once
            # instead of once per work-group.
            worklist.fetch_add(num_wgs)
            executor.run(
                [ndrange.group_from_linear(g) for g in range(num_wgs)])
            trace.cpu_groups.extend(range(num_wgs))
            if traced:
                tracer.instant("schedule.cpu_pull", "schedule",
                               groups=trace.cpu_groups)
            return trace
        while not worklist.exhausted:
            if use_gpu:
                start = worklist.fetch_add(chunk)
                take = min(chunk, num_wgs - start)
                if take > 0:
                    group_ids = [ndrange.group_from_linear(g) for g in range(start, start + take)]
                    executor.run(group_ids)
                    trace.gpu_groups.extend(range(start, start + take))
                    trace.gpu_chunks += 1
                    if traced:
                        tracer.instant("schedule.gpu_chunk", "schedule",
                                       start=start, count=take,
                                       chunk=trace.gpu_chunks - 1)
            if use_cpu:
                pulled_from = len(trace.cpu_groups)
                for _ in range(pulls if use_gpu else num_wgs):
                    if worklist.exhausted:
                        break
                    group = worklist.fetch_add(1)
                    if group >= num_wgs:
                        break
                    executor.run_group(ndrange.group_from_linear(group))
                    trace.cpu_groups.append(group)
                if traced and len(trace.cpu_groups) > pulled_from:
                    tracer.instant("schedule.cpu_pull", "schedule",
                                   groups=trace.cpu_groups[pulled_from:])

    return trace


def run_dynamic_pull(
    cpu_info: KernelInfo,
    gpu_kernel: MalleableKernel | None,
    args: dict[str, Any],
    ndrange: NDRange,
    setting: DopSetting,
    dop_gpu_mod: int = 1,
    dop_gpu_alloc: int = 1,
    gpu_claims_per_round: int = 2,
    backend: str | None = None,
) -> ScheduleTrace:
    """Fully pull-based variant (future-work extension, §7).

    On platforms with CPU–GPU global atomics both devices claim
    work-groups from the same worklist one (or a few) at a time; there is
    no chunk barrier.  Functionally every work-group still executes
    exactly once, on one executor of the original kernel as in
    :func:`run_dynamic`.
    """
    num_wgs = ndrange.total_groups
    worklist = AtomicWorklist(num_wgs)
    trace = ScheduleTrace()
    use_cpu = setting.uses_cpu
    use_gpu = setting.uses_gpu
    if not use_cpu and not use_gpu:
        raise ValueError("at least one device must be active")
    _verify_legality(cpu_info, gpu_kernel if use_gpu else None, args,
                     ndrange, dop_gpu_mod, dop_gpu_alloc)
    executor = make_executor(cpu_info, args, ndrange, backend=backend)

    traced = tracer.enabled
    with tracer.span(
        "schedule.run_dynamic_pull", "schedule",
        kernel=cpu_info.kernel.name, num_work_groups=num_wgs,
        cpu_threads=setting.cpu_threads, gpu_fraction=setting.gpu_fraction,
        gpu_claims_per_round=gpu_claims_per_round,
    ) if traced else NULL_SPAN:
        while not worklist.exhausted:
            if use_gpu:
                claimed_from = len(trace.gpu_groups)
                for _ in range(gpu_claims_per_round):
                    if worklist.exhausted:
                        break
                    group = worklist.fetch_add(1)
                    executor.run_group(ndrange.group_from_linear(group))
                    trace.gpu_groups.append(group)
                trace.gpu_chunks += 1
                if traced:
                    tracer.instant("schedule.gpu_pull", "schedule",
                                   groups=trace.gpu_groups[claimed_from:])
            if use_cpu:
                pulled_from = len(trace.cpu_groups)
                for _ in range(max(1, setting.cpu_threads) if use_gpu else num_wgs):
                    if worklist.exhausted:
                        break
                    group = worklist.fetch_add(1)
                    executor.run_group(ndrange.group_from_linear(group))
                    trace.cpu_groups.append(group)
                if traced and len(trace.cpu_groups) > pulled_from:
                    tracer.instant("schedule.cpu_pull", "schedule",
                                   groups=trace.cpu_groups[pulled_from:])
    return trace


def run_static(
    cpu_info: KernelInfo,
    gpu_kernel: MalleableKernel | None,
    args: dict[str, Any],
    ndrange: NDRange,
    setting: DopSetting,
    cpu_share: float,
    dop_gpu_mod: int = 1,
    dop_gpu_alloc: int = 1,
    backend: str | None = None,
) -> ScheduleTrace:
    """Execute with an a-priori static split (Figure 9's STATIC baseline).

    Both shares run on one executor of the original kernel, as in
    :func:`run_dynamic`.
    """
    if not 0.0 <= cpu_share <= 1.0:
        raise ValueError("cpu_share must be in [0, 1]")
    num_wgs = ndrange.total_groups
    cpu_wgs = round(cpu_share * num_wgs) if setting.uses_cpu else 0
    if not setting.uses_gpu:
        cpu_wgs = num_wgs
    _verify_legality(cpu_info, gpu_kernel if cpu_wgs < num_wgs else None,
                     args, ndrange, dop_gpu_mod, dop_gpu_alloc)
    trace = ScheduleTrace()
    traced = tracer.enabled
    with tracer.span(
        "schedule.run_static", "schedule",
        kernel=cpu_info.kernel.name, num_work_groups=num_wgs,
        cpu_threads=setting.cpu_threads, gpu_fraction=setting.gpu_fraction,
        cpu_share=cpu_share,
    ) if traced else NULL_SPAN:
        executor = make_executor(cpu_info, args, ndrange, backend=backend)
        if cpu_wgs > 0:
            executor.run(ndrange.group_from_linear(g) for g in range(cpu_wgs))
            trace.cpu_groups.extend(range(cpu_wgs))
            if traced:
                tracer.instant("schedule.static_cpu", "schedule",
                               start=0, count=cpu_wgs)
        if cpu_wgs < num_wgs:
            executor.run(ndrange.group_from_linear(g) for g in range(cpu_wgs, num_wgs))
            trace.gpu_groups.extend(range(cpu_wgs, num_wgs))
            trace.gpu_chunks = 1
            if traced:
                tracer.instant("schedule.static_gpu", "schedule",
                               start=cpu_wgs, count=num_wgs - cpu_wgs)
    return trace
