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

from repro.frontend import analyze_kernel, parse, parse_kernel
from repro.interp import NDRange, make_executor
from repro.interp.codegen import _JIT_CACHE, JitUnsupported

#: A helper-function call is outside the jit subset: every launch of this
#: kernel declines to the scalar oracle.
HELPED = """
float twice(float x) { return 2.0f * x; }
__kernel void helped(__global float* A)
{
    int i = get_global_id(0);
    A[i] = twice(A[i]);
}
"""


def helped_info():
    return analyze_kernel(parse_kernel(HELPED), parse(HELPED))


class Marker:
    """Stands for whatever the launching frame holds (buffers, a server)."""


def launch_holding_marker(info):
    """Launch ``info`` on the jit backend from a frame that holds a
    marker; returns a weak reference to the marker."""
    marker = Marker()
    args = {"A": np.random.default_rng(0).standard_normal(16)}
    make_executor(info, args, NDRange(16, 4), backend="jit").run()
    return weakref.ref(marker)


def cached_errors(info):
    return [hit for hit in _JIT_CACHE[id(info)][1].values()
            if isinstance(hit, JitUnsupported)]


def test_declined_launches_leave_no_frames_behind():
    info = helped_info()
    markers = [launch_holding_marker(info) for _ in range(3)]
    gc.collect()
    assert [ref() for ref in markers] == [None, None, None]
    # The compile declines once and every launch runs on the oracle.
    [error] = cached_errors(info)
    assert "helper function 'twice'" in str(error)
    assert error.__traceback__ is None


def test_declined_info_is_collected_with_its_cache_entry():
    info = helped_info()
    launch_holding_marker(info)
    ident, ref = id(info), weakref.ref(info)
    assert cached_errors(info)
    del info
    gc.collect()
    assert ref() is None
    assert ident not in _JIT_CACHE
