"""Instrumentation for kernel-execution backend selection.

Mirrors :class:`repro.core.collect.CollectionStats`: a process-global,
reset-able counter that records which backend (``jit`` or ``scalar``)
executed each kernel, how much work it processed, and how long it took —
so the speedup of the compiled tier over the scalar oracle is observable
from the CLI and from tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class _BackendCounter:
    """Accumulated work for one (kernel, backend) pair."""

    calls: int = 0
    work_items: int = 0
    seconds: float = 0.0

    @property
    def items_per_second(self) -> float | None:
        if self.seconds <= 0.0 or self.work_items == 0:
            return None
        return self.work_items / self.seconds


@dataclass
class ExecutionStats:
    """Per-kernel execution counters for the interpreter backends.

    ``choices`` keeps the most recent backend-selection decision per kernel
    (and why it was made); ``runs`` accumulates executed work per
    ``(kernel, backend)``; ``fallbacks`` counts, per kernel, the times the
    jit declined work (a compile refusal or a runtime guard trip), each
    answered by the scalar oracle.
    """

    runs: dict[tuple[str, str], _BackendCounter] = field(default_factory=dict)
    choices: dict[str, tuple[str, str]] = field(default_factory=dict)
    fallbacks: dict[str, int] = field(default_factory=dict)
    fallback_reasons: dict[str, str] = field(default_factory=dict)
    #: kernel -> "line:column" of the construct that forced the most recent
    #: fallback ("" when the fallback site carried no source location)
    fallback_locations: dict[str, str] = field(default_factory=dict)
    #: kernel -> number of jit compilations (cache misses, including
    #: negative results) and the time they took
    jit_compiles: dict[str, int] = field(default_factory=dict)
    jit_compile_seconds: dict[str, float] = field(default_factory=dict)
    #: kernel -> number of jit program-cache hits (positive or negative)
    jit_cache_hits: dict[str, int] = field(default_factory=dict)
    #: guards every read-modify-write; concurrent launches from the serving
    #: layer record into this process-global object from many threads
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    # -- recording -----------------------------------------------------------

    def record_choice(self, kernel: str, backend: str, reason: str = "") -> None:
        with self._lock:
            self.choices[kernel] = (backend, reason)

    def record_run(self, kernel: str, backend: str, work_items: int,
                   seconds: float) -> None:
        with self._lock:
            counter = self.runs.setdefault((kernel, backend), _BackendCounter())
            counter.calls += 1
            counter.work_items += work_items
            counter.seconds += seconds

    def record_fallback(self, kernel: str, reason: str,
                        location: object = None) -> None:
        """``location``: a source location or its ``"line:column"``."""
        with self._lock:
            self.fallbacks[kernel] = self.fallbacks.get(kernel, 0) + 1
            self.fallback_reasons[kernel] = reason
            self.fallback_locations[kernel] = \
                "" if location is None else str(location)

    def record_jit_compile(self, kernel: str, seconds: float) -> None:
        with self._lock:
            self.jit_compiles[kernel] = self.jit_compiles.get(kernel, 0) + 1
            self.jit_compile_seconds[kernel] = (
                self.jit_compile_seconds.get(kernel, 0.0) + seconds)

    def record_jit_cache_hit(self, kernel: str) -> None:
        with self._lock:
            self.jit_cache_hits[kernel] = self.jit_cache_hits.get(kernel, 0) + 1

    # -- queries -------------------------------------------------------------

    def kernels(self) -> list[str]:
        names = {kernel for kernel, _ in self.runs}
        names.update(self.choices)
        names.update(self.fallbacks)
        return sorted(names)

    def backend_for(self, kernel: str) -> str | None:
        choice = self.choices.get(kernel)
        return choice[0] if choice is not None else None

    def fallback_count(self, kernel: str) -> int:
        return self.fallbacks.get(kernel, 0)

    def speedup(self, kernel: str, backend: str = "jit") -> float | None:
        """``backend`` throughput over scalar throughput, when both ran."""
        fast = self.runs.get((kernel, backend))
        scalar = self.runs.get((kernel, "scalar"))
        if fast is None or scalar is None:
            return None
        f_rate = fast.items_per_second
        s_rate = scalar.items_per_second
        if f_rate is None or s_rate is None:
            return None
        return f_rate / s_rate

    def total_calls(self) -> int:
        return sum(counter.calls for counter in self.runs.values())

    def summary(self) -> str:
        """One paragraph per kernel, suitable for stderr reporting."""
        if not self.kernels():
            return "execution: no kernels run"
        lines = []
        for kernel in self.kernels():
            parts = []
            choice = self.choices.get(kernel)
            if choice is not None:
                backend, reason = choice
                parts.append(f"backend={backend}" + (f" ({reason})" if reason else ""))
            for backend in ("jit", "scalar"):
                counter = self.runs.get((kernel, backend))
                if counter is None:
                    continue
                parts.append(
                    f"{backend}: {counter.calls} call(s), "
                    f"{counter.work_items} item(s), {counter.seconds:.3f}s"
                )
            if kernel in self.jit_compiles:
                parts.append(
                    f"jit-compiles={self.jit_compiles[kernel]} "
                    f"({self.jit_compile_seconds.get(kernel, 0.0):.3f}s), "
                    f"cache-hits={self.jit_cache_hits.get(kernel, 0)}"
                )
            ratio = self.speedup(kernel)
            if ratio is not None:
                parts.append(f"speedup={ratio:.1f}x")
            if kernel in self.fallbacks:
                where = self.fallback_locations.get(kernel, "")
                at = f" at {where}" if where else ""
                parts.append(
                    f"jit-fallbacks={self.fallbacks[kernel]} "
                    f"({self.fallback_reasons.get(kernel, '')}{at})"
                )
            lines.append(f"execution[{kernel}]: " + "; ".join(parts))
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self.runs.clear()
            self.choices.clear()
            self.fallbacks.clear()
            self.fallback_reasons.clear()
            self.fallback_locations.clear()
            self.jit_compiles.clear()
            self.jit_compile_seconds.clear()
            self.jit_cache_hits.clear()


#: Process-global counter, like ``repro.core.collect.collection_stats``.
execution_stats = ExecutionStats()
