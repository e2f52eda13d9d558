"""Summary statistics and operation accounting shared by every workload."""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Seconds the calibration snippet takes on the reference machine (the
#: 2-vCPU Xeon VM the README's figures come from, in its faster state).
NOMINAL_CALIBRATION_S = 0.65e-3
#: How many recent calibration samples the speed factor is the median of.
CALIBRATION_WINDOW = 5


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_kernel(samples: dict, summary) -> float:
    """Geometric mean over kernels of one summary of each kernel's samples.

    A mixed kernel set has a multi-modal latency distribution: its pooled
    median jumps between kernels as they trade places.  Summarising each
    kernel first and then averaging keeps every kernel's weight fixed.
    """
    return geomean(summary(values) for values in samples.values() if values)


@dataclass
class OpCounts:
    """Attempted and failed operations of one kind (build, launch, chain)."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Accounting:
    """Per-kind operation accounting plus the run's correctness verdict.

    An operation that raises counts as failed and its output check is
    skipped; an operation that completes with wrong output clears
    ``correct`` and records why.
    """

    kinds: dict = field(default_factory=dict)
    correct: bool = True
    problems: list = field(default_factory=list)
    #: serve-graph clients account from several threads
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, kind: str) -> None:
        with self._lock:
            self.kinds.setdefault(kind, OpCounts()).attempted += 1

    def fail(self, kind: str, error: BaseException) -> None:
        with self._lock:
            self.kinds.setdefault(kind, OpCounts()).failed += 1
        self.note(f"{kind} failed: {type(error).__name__}: {error}")

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.correct = False
            self.note(f"wrong output: {what}")
        return ok

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.kinds.values())


def _calibration_snippet() -> float:
    """A fixed mix of interpreter and small-array NumPy work, like the
    benchmark's own launch path, that takes ~0.7 ms."""
    acc = 0
    table = {}
    for i in range(3000):
        table[i & 63] = acc
        acc += (i * 7) % 13
    a = np.arange(2048.0)
    for _ in range(30):
        a = np.sqrt(a * 1.0001 + 1.0)
    return acc + float(a[0])


class Clock:
    """Converts measured seconds to seconds on the reference machine.

    The machine this benchmark runs on shares its cores with other
    tenants: identical runs differ by up to a third in speed, in phases of
    a few seconds, and every timing in a run moves together.  The clock
    times a fixed snippet between rounds of work; each timing recorded
    after that is scaled by ``NOMINAL_CALIBRATION_S`` over the median of
    the last few snippet times.  A change to Dopia moves the scaled
    timings as it moves the raw ones; a busier machine moves them far
    less.
    """

    def __init__(self):
        self.samples: list = []
        self.factor = 1.0

    def calibrate(self, runs: int = 1) -> None:
        for _ in range(runs):
            start = time.perf_counter()
            _calibration_snippet()
            self.samples.append(time.perf_counter() - start)
        recent = self.samples[-CALIBRATION_WINDOW:]
        self.factor = NOMINAL_CALIBRATION_S / statistics.median(recent)
