"""Regression: the lane-eligibility memo is computed once under races.

Before the serving layer, ``check_vectorizable`` memoized with a plain
read-then-write on the :class:`KernelInfo`; two threads first-touching
the same kernel could both run the AST walk and interleave the write.
The double-checked lock must collapse a concurrent first touch to
exactly one walk with every caller seeing the same object.
"""

import threading

from repro.frontend import analyze_kernel, parse_kernel
from repro.interp import backend

SRC = (
    "__kernel void axpy(__global float* y, __global const float* x, float a)"
    "{ int i = get_global_id(0); y[i] += a * x[i]; }"
)


def test_concurrent_first_touch_walks_once(monkeypatch):
    info = analyze_kernel(parse_kernel(SRC))
    walks = []
    walk_lock = threading.Lock()
    real_walk = backend._check_vectorizable
    started = threading.Barrier(8)

    def counting_walk(target):
        with walk_lock:
            walks.append(threading.get_ident())
        return real_walk(target)

    monkeypatch.setattr(backend, "_check_vectorizable", counting_walk)

    results = []
    results_lock = threading.Lock()

    def first_touch():
        started.wait()  # maximise the overlap on the cold memo
        eligibility = backend.check_vectorizable(info)
        with results_lock:
            results.append(eligibility)

    threads = [threading.Thread(target=first_touch) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(walks) == 1              # the AST walk ran exactly once
    assert len(results) == 8
    assert all(r is results[0] for r in results)  # one shared memo object
    assert results[0].eligible


def test_memo_hit_skips_lock_and_walk(monkeypatch):
    info = analyze_kernel(parse_kernel(SRC))
    first = backend.check_vectorizable(info)

    def exploding_walk(target):
        raise AssertionError("memoized path must not re-walk")

    monkeypatch.setattr(backend, "_check_vectorizable", exploding_walk)
    assert backend.check_vectorizable(info) is first
