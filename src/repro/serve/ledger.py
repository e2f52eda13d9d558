"""Device-load ledger: who holds the integrated processor, and when.

On an integrated CPU/GPU both devices are shared by every launch in
service.  The ledger is the serving layer's single source of truth for
occupancy: each admitted launch records a :class:`Lease` for the CPU
threads and the GPU-PE fraction its chosen configuration uses, over the
interval of **simulated** time it occupies the modelled processor —
``[v_start, v_end)`` on the server's virtual clock, where ``v_end`` is
``v_start`` plus the launch's modelled service time.  Snapshots of the
normalised occupancy at one virtual instant feed the predictor's
``CPU_util``/``GPU_util`` features (Table 1), so the load a launch sees is
the modelled machine's, not how fast the host happens to execute.

A lease acquired without an end (a planted co-runner) covers every
instant from its start until it is released.  Leases that ended by the
earliest instant a future admission can carry (the server's floor) are
pruned (:meth:`DeviceLoadLedger.prune`), which keeps the store bounded.

Separately, every lease counts as *in flight* from :meth:`acquire` to
:meth:`release` in host terms: :attr:`DeviceLoadLedger.in_flight`,
:attr:`~DeviceLoadLedger.waiting` and :attr:`~DeviceLoadLedger.drained`
are drain bookkeeping, independent of the virtual clock.

The ledger never blocks and never rejects: admission control is the
predictor's feasibility mask (infeasible configurations are not chosen
while capacity remains), and when the device is saturated a launch may
oversubscribe — the contention model charges it for that instead of the
queue deadlocking.  Occupancy is therefore tracked un-capped internally
and capped at 1.0 only in snapshots.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Optional

from ..sim.engine import DopSetting
from ..sim.platforms import Platform

#: Load-bucket resolution: occupancy is quantised to eighths, matching the
#: GPU levels of the Table-3 configuration grid, so the prediction cache
#: key space stays small (9 x 9 load buckets) without losing the
#: distinctions the model can act on.
LOAD_BUCKETS = 8


@dataclass(frozen=True)
class LoadSnapshot:
    """Normalised occupancy of both devices at one instant."""

    cpu_util: float          #: leased CPU threads / hardware threads, capped at 1
    gpu_util: float          #: sum of leased GPU-PE fractions, capped at 1
    in_flight: int           #: number of leases covering the instant
    #: launches parked behind graph dependencies (no lease held); not part
    #: of the prediction cache key — parked work consumes no capacity
    waiting: int = 0

    @property
    def idle(self) -> bool:
        return self.in_flight == 0

    def bucket(self, buckets: int = LOAD_BUCKETS) -> tuple[int, int]:
        """Quantised (cpu, gpu) bucket pair for cache keying."""
        return (round(self.cpu_util * buckets), round(self.gpu_util * buckets))

    def bucketed(self, buckets: int = LOAD_BUCKETS) -> "LoadSnapshot":
        """The snapshot rounded to its bucket's representative loads.

        Predictions are made from the *bucketed* loads so a cached entry is
        exactly reusable for every snapshot in the same bucket.
        """
        cpu_b, gpu_b = self.bucket(buckets)
        return LoadSnapshot(cpu_util=cpu_b / buckets, gpu_util=gpu_b / buckets,
                            in_flight=self.in_flight, waiting=self.waiting)


@dataclass(frozen=True)
class Lease:
    """One launch's hold on device capacity over ``[start, end)``.

    ``start``/``end`` are virtual-clock seconds; ``end`` is infinite for
    a lease held open until :meth:`DeviceLoadLedger.release`.
    """

    token: int
    cpu_threads: int
    gpu_fraction: float
    start: float = 0.0
    end: float = math.inf

    def covers(self, at: float) -> bool:
        """Whether the lease holds its capacity at virtual instant ``at``
        (an open lease holds it at every instant from its start on)."""
        return self.start <= at and (at < self.end or self.end == math.inf)


class DeviceLoadLedger:
    """Thread-safe occupancy accounting for one platform, on virtual time.

    All mutation happens under one short lock; there is no blocking and no
    waiting — :meth:`acquire` always succeeds (see module docstring).
    ``peak_cpu_util``/``peak_gpu_util`` record the high-water marks of
    occupancy over virtual time (un-capped, so oversubscription is
    visible to the benchmark report).
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self._lock = threading.Lock()
        self._tokens = itertools.count()
        #: recorded leases with an end, sorted by start (``_starts``
        #: mirrors their starts for bisection); none lasts longer than
        #: ``_longest``, so only those starting within ``_longest`` before
        #: an instant can cover it
        self._ended: list[Lease] = []
        self._starts: list[float] = []
        self._longest = 0.0
        self._open: dict[int, Lease] = {}     #: leases held open, by token
        self._held: set[int] = set()          #: acquired, not yet released
        self._horizon = 0.0         #: latest finite lease end recorded
        self.peak_cpu_util = 0.0
        self.peak_gpu_util = 0.0
        self.total_leases = 0
        self._waiting = 0           #: launches parked behind dependencies

    # -- leasing -------------------------------------------------------------

    def acquire(self, setting: DopSetting, start: float = 0.0,
                end: Optional[float] = None) -> Lease:
        """Record ``setting``'s occupancy over ``[start, end)``.

        Without ``end`` the lease stays open until released.  Returns the
        lease to :meth:`release` once the launch leaves service.
        """
        with self._lock:
            lease = Lease(
                token=next(self._tokens),
                cpu_threads=setting.cpu_threads,
                gpu_fraction=setting.gpu_fraction,
                start=start,
                end=math.inf if end is None else end,
            )
            if end is None:
                self._open[lease.token] = lease
            else:
                index = bisect.bisect_right(self._starts, start)
                self._starts.insert(index, start)
                self._ended.insert(index, lease)
                self._longest = max(self._longest, end - start)
                self._horizon = max(self._horizon, end)
            self._held.add(lease.token)
            self.total_leases += 1
            # occupancy only steps up where a lease starts: the peak over
            # the new interval is at its start or another lease's inside it
            near = self._near(lease.start, lease.end)
            for at in {lease.start, *(other.start for other in near
                                      if lease.covers(other.start))}:
                threads, fraction, _ = self._occupancy(at, near)
                self.peak_cpu_util = max(self.peak_cpu_util,
                                         self._cpu_util(threads))
                self.peak_gpu_util = max(self.peak_gpu_util, fraction)
            return lease

    def release(self, lease: Lease) -> None:
        """The launch left service; an open-ended lease also ends here.

        Double release raises ``KeyError``.  A lease with an end keeps its
        interval until :meth:`prune` drops it.
        """
        with self._lock:
            self._held.remove(lease.token)
            self._open.pop(lease.token, None)

    def prune(self, floor: float) -> None:
        """Drop leases that end at or before ``floor``.

        ``floor`` must be no later than any instant a future snapshot
        asks about; such a lease can no longer cover one.
        """
        with self._lock:
            # an expired lease started by ``floor``: only that prefix changes
            head = bisect.bisect_right(self._starts, floor)
            kept = [lease for lease in self._ended[:head] if lease.end > floor]
            if len(kept) < head:
                self._ended[:head] = kept
                self._starts[:head] = [lease.start for lease in kept]

    def note_waiting(self, delta: int) -> None:
        """Track launches parked behind graph dependencies (no lease).

        Parked work holds no capacity — it only matters for drain
        accounting (:attr:`drained`) and observability; it is kept out of
        ``cpu_util``/``gpu_util`` so the predictor sees the executable
        frontier, not the whole submitted graph.
        """
        with self._lock:
            self._waiting += delta
            assert self._waiting >= 0, "waiting count went negative"

    # -- queries -------------------------------------------------------------

    def _cpu_util(self, threads: int) -> float:
        return threads / max(1, self.platform.cpu.threads)

    def _near(self, lo: float, hi: float) -> list[Lease]:
        """A superset of the leases covering some instant in ``[lo, hi]``."""
        first = bisect.bisect_left(self._starts, lo - self._longest)
        last = bisect.bisect_right(self._starts, hi)
        return self._ended[first:last] + list(self._open.values())

    def _occupancy(self, at: float,
                   leases: list[Lease]) -> tuple[int, float, int]:
        """(CPU threads, GPU fraction, leases) covering ``at`` among
        ``leases``, which must hold every lease that covers it."""
        threads, fraction, count = 0, 0.0, 0
        for lease in leases:
            if lease.covers(at):
                threads += lease.cpu_threads
                fraction += lease.gpu_fraction
                count += 1
        return threads, fraction, count

    def snapshot(self, at: float = math.inf) -> LoadSnapshot:
        """Occupancy at virtual instant ``at``, capped at 1.0 per device.

        The default asks after every recorded end, where only leases held
        open count.
        """
        with self._lock:
            threads, fraction, count = self._occupancy(at, self._near(at, at))
            return LoadSnapshot(
                cpu_util=min(1.0, self._cpu_util(threads)),
                gpu_util=min(1.0, fraction),
                in_flight=count,
                waiting=self._waiting,
            )

    @property
    def horizon(self) -> float:
        """The latest finite lease end recorded (0.0 before any)."""
        with self._lock:
            return self._horizon

    @property
    def recorded(self) -> int:
        """Lease intervals currently stored (bounded by :meth:`prune`)."""
        with self._lock:
            return len(self._ended) + len(self._open)

    @property
    def in_flight(self) -> int:
        """Leases acquired and not yet released (host time)."""
        with self._lock:
            return len(self._held)

    @property
    def waiting(self) -> int:
        with self._lock:
            return self._waiting

    @property
    def drained(self) -> bool:
        """True when no lease is held and nothing is parked."""
        with self._lock:
            return not self._held and self._waiting == 0
