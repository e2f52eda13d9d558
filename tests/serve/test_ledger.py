"""Unit suite for the device-load ledger (occupancy accounting)."""

import threading

import pytest

from repro.serve import DeviceLoadLedger, LoadSnapshot
from repro.sim import DopSetting, KAVERI


def test_empty_ledger_is_idle():
    ledger = DeviceLoadLedger(KAVERI)
    snap = ledger.snapshot()
    assert snap.idle
    assert snap == LoadSnapshot(cpu_util=0.0, gpu_util=0.0, in_flight=0)
    assert ledger.in_flight == 0


def test_acquire_release_roundtrip():
    ledger = DeviceLoadLedger(KAVERI)
    lease = ledger.acquire(DopSetting(cpu_threads=2, gpu_fraction=0.5))
    snap = ledger.snapshot()
    assert snap.in_flight == 1
    assert snap.cpu_util == pytest.approx(2 / KAVERI.cpu.threads)
    assert snap.gpu_util == pytest.approx(0.5)
    ledger.release(lease)
    assert ledger.snapshot().idle
    assert ledger.total_leases == 1


def test_double_release_raises():
    ledger = DeviceLoadLedger(KAVERI)
    lease = ledger.acquire(DopSetting(cpu_threads=1, gpu_fraction=0.0))
    ledger.release(lease)
    with pytest.raises(KeyError):
        ledger.release(lease)


def test_snapshot_caps_but_peaks_do_not():
    """Oversubscription is capped in snapshots, visible in the peaks."""
    ledger = DeviceLoadLedger(KAVERI)
    leases = [ledger.acquire(DopSetting(cpu_threads=KAVERI.cpu.threads,
                                        gpu_fraction=1.0))
              for _ in range(3)]
    snap = ledger.snapshot()
    assert snap.cpu_util == 1.0 and snap.gpu_util == 1.0  # capped
    assert ledger.peak_cpu_util == pytest.approx(3.0)     # un-capped
    assert ledger.peak_gpu_util == pytest.approx(3.0)
    for lease in leases:
        ledger.release(lease)
    assert ledger.snapshot().idle


def test_empty_ledger_clamps_float_drift():
    """Many fractional acquire/release cycles leave an exactly-zero ledger."""
    ledger = DeviceLoadLedger(KAVERI)
    for _ in range(1000):
        lease = ledger.acquire(DopSetting(cpu_threads=0, gpu_fraction=0.125))
        other = ledger.acquire(DopSetting(cpu_threads=1, gpu_fraction=0.375))
        ledger.release(lease)
        ledger.release(other)
    snap = ledger.snapshot()
    assert snap.cpu_util == 0.0 and snap.gpu_util == 0.0


def test_bucketing_quantises_for_cache_keys():
    snap = LoadSnapshot(cpu_util=0.3, gpu_util=0.8, in_flight=2)
    assert snap.bucket(8) == (2, 6)
    rounded = snap.bucketed(8)
    assert rounded.cpu_util == pytest.approx(0.25)
    assert rounded.gpu_util == pytest.approx(0.75)
    assert rounded.in_flight == 2
    # idempotent: a bucketed snapshot is its own bucket representative
    assert rounded.bucketed(8) == rounded


def test_concurrent_acquire_release_balances():
    """N threads x K cycles: counters return exactly to zero."""
    ledger = DeviceLoadLedger(KAVERI)
    threads_n, cycles = 8, 200
    barrier = threading.Barrier(threads_n)
    errors = []

    def worker(index):
        try:
            barrier.wait()
            setting = DopSetting(cpu_threads=(index % 4) + 1,
                                 gpu_fraction=(index % 8) / 8)
            for _ in range(cycles):
                lease = ledger.acquire(setting)
                ledger.release(lease)
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(threads_n)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert not errors
    assert ledger.snapshot().idle
    assert ledger.total_leases == threads_n * cycles
    assert ledger.peak_cpu_util > 0.0


# -- virtual time ---------------------------------------------------------------

CPU2 = DopSetting(cpu_threads=2, gpu_fraction=0.0)
GPU_HALF = DopSetting(cpu_threads=0, gpu_fraction=0.5)


def test_interval_occupancy():
    """A lease holds its capacity over [start, end) and nowhere else."""
    ledger = DeviceLoadLedger(KAVERI)
    ledger.acquire(CPU2, start=0.0, end=1.0)
    ledger.acquire(GPU_HALF, start=0.5, end=2.0)
    threads = KAVERI.cpu.threads

    def at(instant):
        snap = ledger.snapshot(at=instant)
        return snap.cpu_util, snap.gpu_util, snap.in_flight

    assert at(0.25) == (2 / threads, 0.0, 1)
    assert at(0.75) == (2 / threads, 0.5, 2)
    assert at(1.0) == (0.0, 0.5, 1)          # the end is exclusive
    assert at(2.0) == (0.0, 0.0, 0)
    assert ledger.snapshot(at=-1.0).idle
    assert ledger.horizon == 2.0
    assert ledger.peak_cpu_util == pytest.approx(2 / threads)
    assert ledger.peak_gpu_util == pytest.approx(0.5)


def test_peak_counts_only_overlapping_intervals():
    ledger = DeviceLoadLedger(KAVERI)
    for start in range(4):                   # back to back, never overlapping
        ledger.acquire(GPU_HALF, start=float(start), end=start + 1.0)
    assert ledger.peak_gpu_util == pytest.approx(0.5)
    ledger.acquire(GPU_HALF, start=2.5, end=3.5)
    assert ledger.peak_gpu_util == pytest.approx(1.0)


def test_open_ended_co_runner():
    """A lease without an end covers every instant from its start until
    it is released; a finite one keeps its interval after release."""
    ledger = DeviceLoadLedger(KAVERI)
    finite = ledger.acquire(CPU2, start=0.0, end=1.0)
    co_runner = ledger.acquire(GPU_HALF, start=0.5)
    assert ledger.snapshot(at=0.25).gpu_util == 0.0
    for instant in (0.5, 1.0, 1e9):
        assert ledger.snapshot(at=instant).gpu_util == 0.5
    assert ledger.snapshot().gpu_util == 0.5  # "now": only open leases
    assert ledger.horizon == 1.0              # an open lease has no end
    assert ledger.in_flight == 2

    ledger.release(finite)
    assert ledger.in_flight == 1
    assert ledger.snapshot(at=0.75).in_flight == 2
    ledger.release(co_runner)
    assert ledger.in_flight == 0 and ledger.drained
    assert ledger.snapshot(at=0.75).in_flight == 1
    assert ledger.snapshot(at=5.0).idle


def test_prune_drops_only_ended_leases():
    ledger = DeviceLoadLedger(KAVERI)
    for start in range(5):
        ledger.release(ledger.acquire(CPU2, start=float(start),
                                      end=start + 1.0))
    co_runner = ledger.acquire(GPU_HALF, start=0.0)
    assert ledger.recorded == 6
    ledger.prune(3.0)
    assert ledger.recorded == 3               # [3, 4), [4, 5) and the open one
    assert ledger.snapshot(at=3.5).cpu_util > 0.0
    ledger.prune(1e9)
    assert ledger.recorded == 1
    ledger.release(co_runner)
    assert ledger.recorded == 0
