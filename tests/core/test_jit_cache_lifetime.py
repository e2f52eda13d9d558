"""The jit compiler's negative cache pins no caller frames.

``compile_cached`` remembers a declined compile so repeated launches of
an ineligible kernel pay for the analysis once.  The cached entry must be
a traceback-free record: re-raising one stored exception instance would
append every caller's stack to its ``__traceback__``, and each frame's
``f_back`` chain would keep the executor, scheduler, server and caller
frames (and whatever they hold) alive for as long as the kernel's info.
"""

import gc
import weakref

import numpy as np

from repro.interp import make_executor
from repro.interp.codegen import _JIT_CACHE, JitUnsupported
from repro.workloads import SCALED_REAL_FACTORIES


class Marker:
    """Stands for whatever the launching frame holds (buffers, a server)."""


def launch_holding_marker(info, workload):
    """Launch ``workload`` on the jit backend from a frame that holds a
    marker; returns a weak reference to the marker."""
    marker = Marker()
    args = workload.full_args(np.random.default_rng(0))
    make_executor(info, args, workload.ndrange(), backend="jit").run()
    return weakref.ref(marker)


def cached_errors(info):
    return [hit for hit in _JIT_CACHE[id(info)][1].values()
            if isinstance(hit, JitUnsupported)]


def test_declined_launches_leave_no_frames_behind():
    workload = SCALED_REAL_FACTORIES["SpMV"]()
    info = workload.kernel_info()
    markers = [launch_holding_marker(info, workload) for _ in range(3)]
    gc.collect()
    assert [ref() for ref in markers] == [None, None, None]
    # SpMV's row loop runs to a bound read from a buffer: the compile
    # declines once and every launch runs on the vector tier.
    [error] = cached_errors(info)
    assert "lane-varying loop condition" in str(error)
    assert error.__traceback__ is None


def test_declined_info_is_collected_with_its_cache_entry():
    workload = SCALED_REAL_FACTORIES["SpMV"]()
    info = workload.kernel_info()
    launch_holding_marker(info, workload)
    ident, ref = id(info), weakref.ref(info)
    assert cached_errors(info)
    del info
    gc.collect()
    assert ref() is None
    assert ident not in _JIT_CACHE
