"""Command queues: the launch-time half of the host API.

``CommandQueue.enqueue_nd_range_kernel`` is the seam where Dopia's runtime
management happens (paper Figure 4, bottom half): an installed interposer
gets the first chance to execute the launch — predicting the degree of
parallelism and orchestrating CPU/GPU co-execution — and the vanilla
runtime path (execute the kernel as written, on this queue's device) is
the fallback when no interposer is installed.

Execution is functional (the interpreter mutates the buffers) plus
simulated timing (the performance model) so every launch yields both a
correct result and a believable wall-clock figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..analysis.profile import profile_kernel
from ..interp.ndrange import NDRange
from ..interp.backend import make_executor
from ..obs import tracer
from ..obs.tracer import NULL_SPAN
from ..sim.engine import DopSetting, simulate_execution
from .context import Context
from .device import Device
from .program import Kernel
from .types import CLError, CommandType, DeviceType, Status


@dataclass
class Event:
    """Completion record of one enqueued command (clGetEventProfilingInfo)."""

    command: CommandType
    simulated_time_s: float = 0.0
    #: which device(s) ran the work and with what DoP, when known
    details: dict[str, Any] = field(default_factory=dict)


class CommandQueue:
    """An in-order command queue on one device.

    ``functional`` controls whether kernels are actually executed by the
    interpreter (exact but slow) or only simulated for timing — benchmark
    sweeps over paper-sized problems use ``functional=False``.

    ``backend`` picks the functional execution strategy per launch
    (``auto``/``vector``/``scalar``; ``None`` defers to ``DOPIA_BACKEND``)
    — see :func:`repro.interp.make_executor`.
    """

    def __init__(self, context: Context, device: Device, functional: bool = True,
                 backend: str | None = None):
        if device not in context.devices:
            raise CLError(Status.INVALID_VALUE, "device not in context")
        self.context = context
        self.device = device
        self.functional = functional
        self.backend = backend
        self.events: list[Event] = []

    # -- kernel launch -----------------------------------------------------

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size,
        local_size,
        global_offset=None,
        irregular_trip_hint: Optional[float] = None,
    ) -> Event:
        """clEnqueueNDRangeKernel.

        If an interposer (Dopia) is installed it may take over the launch
        entirely; otherwise the kernel runs as written on this queue's
        device with the default (full) degree of parallelism.
        """
        ndrange = NDRange(global_size, local_size, global_offset or ())
        self._verify_launch(kernel, ndrange)
        from .api import current_interposer  # late import to avoid a cycle

        interposer = current_interposer()
        traced = tracer.enabled
        with tracer.span(
            "cl.enqueue_nd_range_kernel", "launch",
            kernel=kernel.name,
            global_size=list(ndrange.global_size),
            local_size=list(ndrange.local_size),
            interposed=interposer is not None,
        ) if traced else NULL_SPAN:
            if interposer is not None:
                event = interposer.enqueue(self, kernel, ndrange, irregular_trip_hint)
                if event is not None:
                    self.events.append(event)
                    return event
            event = self._default_execute(kernel, ndrange, irregular_trip_hint)
            self.events.append(event)
            return event

    @staticmethod
    def _verify_launch(kernel: Kernel, ndrange: NDRange) -> None:
        """Launch-specialized static verification, gated on ``DOPIA_VERIFY``.

        Runs the race/OOB/barrier passes against the concrete geometry and
        bound buffer extents before any work executes.  ``warn`` prints the
        report to stderr like a build log; ``raise`` turns errors into
        :class:`repro.analysis.verify.VerifyError`.  The default (``off``)
        costs one env lookup per enqueue.
        """
        from ..analysis.verify import (
            LaunchSpec,
            apply_policy,
            current_policy,
            verify_launch_cached,
        )

        policy = current_policy()
        if policy == "off":
            return
        spec = LaunchSpec.from_args(ndrange, kernel.bound_args())
        apply_policy(verify_launch_cached(kernel.info, spec), policy)

    def _default_execute(
        self, kernel: Kernel, ndrange: NDRange, hint: Optional[float]
    ) -> Event:
        traced = tracer.enabled
        args = kernel.bound_args()
        if self.functional:
            with tracer.span(
                "cl.default_execute", "launch",
                kernel=kernel.name, device=self.device.device_type.name,
            ) if traced else NULL_SPAN:
                make_executor(kernel.info, args, ndrange, backend=self.backend).run()
        profile = profile_kernel(
            kernel.info,
            kernel.scalar_args(),
            ndrange.total_work_items,
            ndrange.work_items_per_group,
            work_dim=ndrange.work_dim,
            irregular_trip_hint=hint,
        )
        machine = self.device.machine
        if self.device.device_type is DeviceType.GPU:
            setting = DopSetting(cpu_threads=0, gpu_fraction=1.0)
        else:
            setting = DopSetting(cpu_threads=machine.cpu.threads, gpu_fraction=0.0)
        result = simulate_execution(
            profile, machine, setting, run_key=(kernel.name, "default")
        )
        return Event(
            command=CommandType.NDRANGE_KERNEL,
            simulated_time_s=result.time_s,
            details={"setting": setting, "result": result},
        )

    # -- buffer traffic ------------------------------------------------------

    def enqueue_read_buffer(self, buffer, destination) -> Event:
        destination[...] = buffer.array
        if tracer.enabled:
            tracer.instant("cl.read_buffer", "launch", nbytes=buffer.array.nbytes)
            tracer.counter("cl.buffer_reads")
        event = Event(command=CommandType.READ_BUFFER)
        self.events.append(event)
        return event

    def enqueue_write_buffer(self, buffer, source) -> Event:
        buffer.write(source)
        if tracer.enabled:
            tracer.instant("cl.write_buffer", "launch", nbytes=buffer.array.nbytes)
            tracer.counter("cl.buffer_writes")
        event = Event(command=CommandType.WRITE_BUFFER)
        self.events.append(event)
        return event

    def finish(self) -> None:
        """clFinish — everything is synchronous here, so a no-op."""
