"""DopiaRuntime: the interposed runtime tying everything together (§4).

Installed as the :class:`repro.cl.Interposer`, the runtime

* at **program build** (``clCreateProgramWithSource``): statically analyses
  every kernel, extracts the Table-1 code features, and decides whether
  the kernel can be made malleable (§5, §6) — each variant is built at
  the first launch of its work dimension that gives the GPU a share;
* at **kernel launch** (``clEnqueueNDRangeKernel``): combines the static
  features with the launch geometry, evaluates the pre-trained ML model
  over all 44 DoP configurations, picks the predicted-best setting, and
  executes the launch with dynamic workload distribution (§7) — both
  functionally (Algorithm 1 over the interpreter, mutating real buffers)
  and on the performance model (simulated wall-clock, which includes the
  model-inference overhead the paper charges in Figure 13).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..analysis.features import StaticFeatures, extract_static_features
from ..analysis.profile import profile_kernel
from ..cl.api import Interposer
from ..cl.program import Kernel, Program
from ..cl.queue import CommandQueue, Event
from ..cl.types import CommandType
from ..interp.ndrange import NDRange
from ..ml import make_model
from ..ml.base import Estimator
from ..obs import tracer
from ..obs.tracer import NULL_SPAN
from ..sim.engine import DopSetting, ExecutionResult, simulate_execution
from ..sim.platforms import Platform
from ..transform.cpu_codegen import CpuKernel, CpuTransformError, make_cpu_kernel
from ..transform.gpu_malleable import (
    MalleableKernel,
    TransformError,
    check_transformable,
    make_malleable,
    throttle_settings,
)
from ..workloads.synthetic import training_workloads
from .predictor import DopPredictor, Prediction
from .scheduler import run_dynamic
from .training import collect_dataset


@dataclass(frozen=True)
class LaunchRecord:
    """One interposed launch: what was picked and what it cost.

    The canonical copy of every launch flows through the tracer (the
    ``dopia.launch`` span tree plus the ``dopia.launch_record`` event);
    this typed record is the bounded in-memory view kept on
    :attr:`DopiaRuntime.launches` for programmatic access.
    """

    kernel: str
    prediction: Prediction
    result: ExecutionResult
    time_s: float
    #: Table-1 static features of the launched kernel (empty for records
    #: created before the online-retraining fields were added)
    static: tuple = ()
    work_dim: int = 0
    global_size: int = 0
    local_size: int = 0

    def as_details(self) -> dict[str, Any]:
        """The ``Event.details`` dict (the historical record layout)."""
        return {
            "kernel": self.kernel,
            "prediction": self.prediction,
            "result": self.result,
            "time_s": self.time_s,
        }


#: Default bound on the in-memory launch log (records, not bytes).
DEFAULT_MAX_LAUNCH_RECORDS = 4096

#: Launch identities remembered per kernel by :meth:`DopiaRuntime.enqueue`.
LAUNCH_MEMO_SIZE = 64


@dataclass
class KernelArtifacts:
    """Per-kernel products of Dopia's compile-time pass."""

    static_features: StaticFeatures
    #: malleable GPU variants per work dimension, each built at the first
    #: GPU-share launch of that dimension, after the legality gate
    malleable: dict[int, MalleableKernel]
    #: Figure-7 CPU variants per (work dimension, claim discipline)
    #: (lazily generated)
    cpu_codegen: dict[tuple[int, str], CpuKernel]
    transformable: bool
    transform_error: str = ""
    #: (prediction, simulated result) per launch identity, oldest evicted
    #: first; lives as long as the program (see DopiaRuntime.enqueue)
    launch_memo: dict[tuple, tuple[Prediction, ExecutionResult]] = field(
        default_factory=dict)


class DopiaRuntime(Interposer):
    """The Dopia framework as a cl-API interposer."""

    def __init__(
        self,
        platform: Platform,
        model: Estimator,
        chunk_divisor: int = 10,
        include_inference_overhead: bool = True,
        backend: str | None = None,
        max_launch_records: int = DEFAULT_MAX_LAUNCH_RECORDS,
    ):
        self.platform = platform
        self.predictor = DopPredictor(model, platform)
        self.chunk_divisor = chunk_divisor
        self.include_inference_overhead = include_inference_overhead
        #: interpreter backend for functional execution (``auto``/``vector``/
        #: ``scalar``; ``None`` defers to ``DOPIA_BACKEND``)
        self.backend = backend
        #: bounded launch log: one :class:`LaunchRecord` per interposed
        #: enqueue, newest kept (a long-lived runtime no longer grows
        #: without bound; the full history is the tracer's job)
        self.launches: deque[LaunchRecord] = deque(maxlen=max(1, max_launch_records))
        #: total records appended since construction or :meth:`clear`,
        #: counting past the ring bound
        self.total_launches = 0
        #: guards launch accounting (append + total) as one atomic step
        self._launch_lock = threading.Lock()
        #: optional observation sink (:class:`repro.ml.online.OnlineLoop`);
        #: when set, :meth:`record_launch` feeds every launch into the
        #: retraining loop's observation store — see :meth:`attach_online`
        self.online = None
        #: guards lazy per-kernel artifact generation (malleable/CPU
        #: variants); reentrant because ``_artifacts`` may trigger a full
        #: ``program_built`` pass.  Execution itself never holds it.
        self._artifact_lock = threading.RLock()

    @property
    def max_launch_records(self) -> int:
        return self.launches.maxlen or 0

    def clear(self) -> None:
        """Drop the accumulated launch records and reset the total."""
        with self._launch_lock:
            self.launches.clear()
            self.total_launches = 0

    def attach_online(self, loop) -> None:
        """Feed future launches into an :class:`repro.ml.online.OnlineLoop`.

        The runtime is the single-client (idle-machine) path, so the
        observations it contributes carry zero background load — they
        anchor the store's idle cells while a co-located server (or a
        later serving session sharing the same persistent store)
        contributes the loaded ones.
        """
        self.online = loop

    def record_launch(self, record: LaunchRecord) -> None:
        """Append one launch record atomically (ring append + total).

        With an online loop attached, the record is also ingested as a
        training observation (when it carries the launch-shape fields —
        pre-existing minimal records are logged but not learned from).
        """
        with self._launch_lock:
            self.launches.append(record)
            self.total_launches += 1
        loop = self.online
        if loop is not None and record.static:
            config = record.prediction.config
            loop.ingest(
                kernel=record.kernel,
                static=record.static,
                work_dim=record.work_dim,
                global_size=record.global_size,
                local_size=record.local_size,
                cpu_load=0.0,
                gpu_load=0.0,
                cpu_util=config.cpu_util,
                gpu_util=config.gpu_util,
                time_s=record.result.time_s,
                source="runtime",
            )

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_pretrained(
        platform: Platform,
        model_name: str = "dt",
        cache: bool = True,
        jobs: int | None = None,
        backend: str | None = None,
        **model_kwargs,
    ) -> "DopiaRuntime":
        """Train (or load the cached dataset for) the Table-4 synthetic
        workloads and return a ready runtime — the paper's offline phase.
        ``jobs`` sets the worker-process count for cold collection."""
        dataset = collect_dataset(training_workloads(), platform, cache=cache, jobs=jobs)
        model = make_model(model_name, **model_kwargs)
        model.fit(dataset.feature_matrix(), dataset.targets())
        return DopiaRuntime(platform, model, backend=backend)

    # -- compile-time pass -----------------------------------------------------

    def program_built(self, program: Program) -> None:
        with self._artifact_lock, tracer.span(
                "dopia.program_build", "build",
                kernels=list(program.kernel_infos)):
            for name, info in program.kernel_infos.items():
                if isinstance(program.interposer_data.get(name), KernelArtifacts):
                    continue  # another thread won the build race
                with tracer.span("dopia.analyze_kernel", "build", kernel=name):
                    features = extract_static_features(info)
                    try:
                        check_transformable(info)
                        transformable, error = True, ""
                    except TransformError as exc:
                        transformable, error = False, str(exc)
                program.interposer_data[name] = KernelArtifacts(
                    static_features=features,
                    malleable={},
                    cpu_codegen={},
                    transformable=transformable,
                    transform_error=error,
                )
                if tracer.enabled:
                    tracer.instant("dopia.kernel_artifacts", "build",
                                   kernel=name, transformable=transformable,
                                   reason=error)

    def _artifacts(self, kernel: Kernel) -> KernelArtifacts:
        data = kernel.program.interposer_data.get(kernel.name)
        if not isinstance(data, KernelArtifacts):
            self.program_built(kernel.program)
            data = kernel.program.interposer_data[kernel.name]
        return data

    def _malleable_for(self, kernel: Kernel, work_dim: int) -> MalleableKernel:
        artifacts = self._artifacts(kernel)
        if work_dim not in artifacts.malleable:
            with self._artifact_lock:
                if work_dim not in artifacts.malleable:
                    self._verify_buildable(kernel)
                    artifacts.malleable[work_dim] = make_malleable(
                        kernel.info, work_dim=work_dim)
        return artifacts.malleable[work_dim]

    @staticmethod
    def _verify_buildable(kernel: Kernel) -> None:
        """Legality gate at build time: ``verify_kernel`` runs before a
        malleable variant is handed out and, under ``DOPIA_VERIFY=raise``,
        a kernel with ERROR diagnostics is refused rather than run.  The
        default ``off`` costs one env lookup."""
        if os.environ.get("DOPIA_VERIFY", "off").strip().lower() \
                in ("", "off"):
            return
        from ..analysis.verify import (
            apply_policy,
            current_policy,
            verify_kernel,
        )

        policy = current_policy()
        if policy == "off":
            return
        apply_policy(verify_kernel(kernel.info), policy)

    def cpu_variant(self, kernel: Kernel, work_dim: int,
                    claims: str | None = None,
                    ndrange: NDRange | None = None) -> CpuKernel:
        """The generated Figure-7 CPU source for ``kernel`` (on demand).

        ``claims`` picks the worklist discipline (see
        :func:`repro.transform.make_cpu_kernel`).  ``None`` resolves it
        from evidence: when ``ndrange`` is provided and the verifier's
        specialized race pass returns a *clean* verdict for this launch,
        the fetch-add claims are relaxed to a static stride; any other
        verdict (``unknown``, diagnosed, or no launch to specialize
        against) keeps the always-safe atomic form.
        """
        if claims is None:
            claims = "relaxed" if (
                ndrange is not None and self._race_clean(kernel, ndrange)
            ) else "atomic"
        artifacts = self._artifacts(kernel)
        key = (work_dim, claims)
        if key not in artifacts.cpu_codegen:
            with self._artifact_lock:
                if key not in artifacts.cpu_codegen:
                    try:
                        artifacts.cpu_codegen[key] = make_cpu_kernel(
                            kernel.info, work_dim=work_dim, claims=claims
                        )
                    except CpuTransformError as exc:
                        raise CpuTransformError(f"{kernel.name}: {exc}") from exc
        return artifacts.cpu_codegen[key]

    def _race_clean(self, kernel: Kernel, ndrange: NDRange) -> bool:
        """Whether the verifier proves this launch free of cross-item races."""
        from ..analysis.verify import LaunchSpec, verify_launch_cached

        try:
            args = kernel.bound_args()
        except Exception:
            return False  # arguments not fully bound yet: no evidence
        launch = LaunchSpec.from_args(ndrange, args)
        report = verify_launch_cached(kernel.info, launch)
        return report.verdicts.get("races") == "clean"

    # -- launch-time pass ------------------------------------------------------

    def enqueue(
        self,
        queue: CommandQueue,
        kernel: Kernel,
        ndrange: NDRange,
        irregular_trip_hint: Optional[float],
    ) -> Optional[Event]:
        artifacts = self._artifacts(kernel)
        if not artifacts.transformable:
            # Barriered kernels cannot be throttled (§6); fall back to the
            # vanilla runtime path by declining the launch.
            if tracer.enabled:
                tracer.instant("dopia.decline", "launch", kernel=kernel.name,
                               reason=artifacts.transform_error)
            return None

        traced = tracer.enabled
        scalar_args = kernel.scalar_args()
        # Prediction, profile and simulation depend only on the model, the
        # kernel, its scalar arguments, the launch geometry and the trip
        # hint, and the simulator's noise is seeded by the run's identity,
        # so a repeated launch reuses them exactly.  Traced launches
        # recompute, so they emit every predict/simulate event.
        memo_key = None if traced else (
            self.predictor, self.predictor.model, self.chunk_divisor,
            ndrange.work_dim, ndrange.total_work_items,
            ndrange.work_items_per_group, irregular_trip_hint,
            frozenset(scalar_args.items()),
        )
        memo = artifacts.launch_memo
        remembered = memo.get(memo_key) if memo_key is not None else None
        with tracer.span(
            "dopia.launch", "launch",
            kernel=kernel.name,
            global_size=list(ndrange.global_size),
            local_size=list(ndrange.local_size),
            functional=queue.functional,
        ) if traced else NULL_SPAN:
            if remembered is None:
                with tracer.span("dopia.predict", "predict",
                                 kernel=kernel.name) if traced else NULL_SPAN:
                    prediction = self.predictor.select(
                        artifacts.static_features,
                        ndrange.work_dim,
                        ndrange.total_work_items,
                        ndrange.work_items_per_group,
                    )
            else:
                prediction, result = remembered
            setting = prediction.config.setting

            if queue.functional:
                with tracer.span(
                    "dopia.execute_functional", "schedule",
                    kernel=kernel.name, cpu_threads=setting.cpu_threads,
                    gpu_fraction=setting.gpu_fraction,
                ) if traced else NULL_SPAN:
                    self._execute_functional(kernel, ndrange, prediction)

            if remembered is None:
                with tracer.span("dopia.simulate", "sim",
                                 kernel=kernel.name) if traced else NULL_SPAN:
                    profile = profile_kernel(
                        kernel.info,
                        scalar_args,
                        ndrange.total_work_items,
                        ndrange.work_items_per_group,
                        work_dim=ndrange.work_dim,
                        irregular_trip_hint=irregular_trip_hint,
                    )
                    result = simulate_execution(
                        profile, self.platform, setting,
                        scheduler="dynamic", chunk_divisor=self.chunk_divisor,
                        run_key=(kernel.name, "dopia"),
                    )
                if memo_key is not None:
                    with self._launch_lock:
                        if len(memo) >= LAUNCH_MEMO_SIZE:
                            del memo[next(iter(memo))]
                        memo[memo_key] = (prediction, result)
            time = result.time_s
            if self.include_inference_overhead:
                time += prediction.inference_cost_s
            record = LaunchRecord(
                kernel=kernel.name,
                prediction=prediction,
                result=result,
                time_s=time,
                static=artifacts.static_features.as_tuple(),
                work_dim=ndrange.work_dim,
                global_size=ndrange.total_work_items,
                local_size=ndrange.work_items_per_group,
            )
            self.record_launch(record)
            if traced:
                tracer.instant(
                    "dopia.launch_record", "launch",
                    kernel=kernel.name,
                    cpu_threads=setting.cpu_threads,
                    gpu_fraction=setting.gpu_fraction,
                    time_s=time, sim_time_s=result.time_s,
                    inference_cost_s=prediction.inference_cost_s,
                )
                tracer.counter("dopia.launches")
                tracer.observe("dopia.launch_time_s", time)
            return Event(
                command=CommandType.NDRANGE_KERNEL,
                simulated_time_s=time,
                details=record.as_details(),
            )

    @staticmethod
    def _verify_transformed(
        kernel: Kernel,
        malleable: MalleableKernel,
        ndrange: NDRange,
        mod: int,
        alloc: int,
    ) -> None:
        """Verify the *malleable* variant about to execute, not just the
        original: the throttled kernel must preserve access-set disjointness
        for this launch.  Gated on ``DOPIA_VERIFY`` (default ``off`` costs
        one env lookup); results are cached per (kernel, launch shape)."""
        from ..analysis.verify import (
            LaunchSpec,
            apply_policy,
            current_policy,
            verify_launch_cached,
        )

        policy = current_policy()
        if policy == "off":
            return
        args = dict(kernel.bound_args())
        args["dop_gpu_mod"] = mod
        args["dop_gpu_alloc"] = alloc
        spec = LaunchSpec.from_args(ndrange, args)
        apply_policy(verify_launch_cached(malleable.info, spec), policy)

    @staticmethod
    def _verify_admissible(kernel: Kernel, ndrange: NDRange) -> None:
        """Launch-time legality gate on the original kernel.  Gated on
        ``DOPIA_VERIFY``; reports are cached per (kernel, launch shape)."""
        if os.environ.get("DOPIA_VERIFY", "off").strip().lower() \
                in ("", "off"):
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
        try:
            args = kernel.bound_args()
        except Exception:
            return  # arguments not fully bound: nothing to specialize
        spec = LaunchSpec.from_args(ndrange, args)
        apply_policy(verify_launch_cached(kernel.info, spec), policy)

    def _execute_functional(
        self, kernel: Kernel, ndrange: NDRange, prediction: Prediction
    ) -> None:
        setting = prediction.config.setting
        # Legality gate: verify the *original* kernel for this launch
        # before any variant is even built — under raise, a RACE001 input
        # is refused outright instead of being transformed and scheduled.
        self._verify_admissible(kernel, ndrange)
        # Only a GPU share needs the malleable variant: a CPU-only launch
        # neither builds nor verifies it.
        malleable, mod, alloc = None, 1, 1
        if setting.uses_gpu:
            malleable = self._malleable_for(kernel, ndrange.work_dim)
            mod, alloc = throttle_settings(
                self.platform.gpu.pes_per_cu, setting.gpu_fraction
            )
            self._verify_transformed(kernel, malleable, ndrange, mod, alloc)
        run_dynamic(
            kernel.info,
            malleable,
            kernel.bound_args(),
            ndrange,
            setting,
            dop_gpu_mod=mod,
            dop_gpu_alloc=alloc,
            chunk_divisor=self.chunk_divisor,
            backend=self.backend,
        )

    # -- chains ---------------------------------------------------------------

    def run_chain(self, chain) -> list[Prediction]:
        """Run a :class:`repro.workloads.chains.KernelChain` in task order,
        functionally, with the predicted-best DoP per launch.

        This is the single-client path; for pipelined concurrent execution
        hand the chain to ``DopiaServer.submit_chain`` instead.  Returns
        the per-task predictions in task order.
        """
        prepared: dict[tuple[str, str], tuple[Any, MalleableKernel]] = {}
        predictions: list[Prediction] = []
        for task in chain.tasks:
            workload = task.workload
            ndrange = workload.ndrange()
            key = (workload.source, workload.kernel_name)
            if key not in prepared:
                info = workload.kernel_info()
                prepared[key] = (info, make_malleable(
                    info, work_dim=ndrange.work_dim))
            info, malleable = prepared[key]
            prediction = self.predictor.select(
                extract_static_features(info),
                ndrange.work_dim,
                ndrange.total_work_items,
                ndrange.work_items_per_group,
            )
            setting = prediction.config.setting
            if setting.uses_gpu:
                mod, alloc = throttle_settings(
                    self.platform.gpu.pes_per_cu, setting.gpu_fraction)
            else:
                mod, alloc = 1, 1
            run_dynamic(
                info, malleable, task.args, ndrange, setting,
                dop_gpu_mod=mod, dop_gpu_alloc=alloc,
                chunk_divisor=self.chunk_divisor, backend=self.backend,
            )
            predictions.append(prediction)
        return predictions


def execute_chain_serial(chain, *, backend: str | None = None,
                         setting: DopSetting | None = None) -> None:
    """Serial oracle for a :class:`repro.workloads.chains.KernelChain`.

    Runs every task one at a time in declaration order (which the chain
    factories guarantee is a valid topological order — asserted here),
    single CPU thread by default.  The graph tests compare server-executed
    buffer bytes against a fresh identical chain run through this.
    """
    if setting is None:
        setting = DopSetting(cpu_threads=1, gpu_fraction=0.0)
    if setting.uses_gpu:
        raise ValueError("the serial oracle is CPU-only; got a GPU setting")
    done: set[str] = set()
    prepared: dict[tuple[str, str], tuple[Any, MalleableKernel]] = {}
    for task in chain.tasks:
        missing = [dep for dep in task.deps if dep not in done]
        if missing:
            raise ValueError(
                f"chain {chain.name!r} lists task {task.key!r} before its "
                f"dependencies {missing}")
        workload = task.workload
        ndrange = workload.ndrange()
        key = (workload.source, workload.kernel_name)
        if key not in prepared:
            info = workload.kernel_info()
            prepared[key] = (info, make_malleable(
                info, work_dim=ndrange.work_dim))
        info, malleable = prepared[key]
        run_dynamic(
            info, malleable, task.args, ndrange, setting,
            dop_gpu_mod=1, dop_gpu_alloc=1, backend=backend,
        )
        done.add(task.key)


def execute_workload_serial(workload, args: dict[str, Any], *,
                            backend: str | None = None,
                            setting: DopSetting | None = None) -> None:
    """Serial oracle for a single workload launch (mutates ``args`` buffers).

    Single CPU thread by default, same dynamic-scheduling path as
    :func:`execute_chain_serial`; the sharded-serving tests run every
    registry workload through this and demand bit-identical buffers from
    the multi-process server.
    """
    if setting is None:
        setting = DopSetting(cpu_threads=1, gpu_fraction=0.0)
    if setting.uses_gpu:
        raise ValueError("the serial oracle is CPU-only; got a GPU setting")
    ndrange = workload.ndrange()
    info = workload.kernel_info()
    malleable = make_malleable(info, work_dim=ndrange.work_dim)
    run_dynamic(
        info, malleable, args, ndrange, setting,
        dop_gpu_mod=1, dop_gpu_alloc=1, backend=backend,
    )
