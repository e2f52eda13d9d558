"""Analysis memos live and die with their ``KernelInfo``.

The access model and the launch read/write summary are memoised on the
info they are derived from.  A long-running runtime builds many programs;
once a program is dropped, its kernel's info, and the infos of the
malleable and CPU variants made from it, must be collectable, together
with their ASTs and memos, even though verification built access models
for all three.
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro import cl
from repro.analysis.accessmodel import build_access_model, launch_rw_summary
from repro.core.runtime import DopiaRuntime
from repro.interp.ndrange import NDRange

TILED = """
__kernel void tiled(__global float* A, __global float* B, int nx)
{
    int x = get_global_id(0);
    int y = get_global_id(1);
    B[y * nx + x] = 2.0f * A[y * nx + x];
}
"""


@pytest.fixture
def runtime(trained_runtime):
    return DopiaRuntime(trained_runtime.platform,
                        trained_runtime.predictor.model)


def build_and_launch(runtime):
    """Build, verify and launch the kernel, and generate its malleable
    and CPU variants; returns weak references to the three infos."""
    ctx = cl.create_context("kaveri")
    queue = cl.create_command_queue(ctx)
    a, b = np.arange(64.0), np.zeros(64)
    with cl.interposed(runtime):
        program = ctx.create_program_with_source(TILED).build()
        kernel = program.create_kernel("tiled")
        kernel.set_args(ctx.create_buffer(a), ctx.create_buffer(b), 8)
        queue.enqueue_nd_range_kernel(kernel, (8, 8), (4, 4))
        cpu = runtime.cpu_variant(kernel, 2, ndrange=NDRange((8, 8), (4, 4)))
        malleable = runtime._malleable_for(kernel, 2)
    assert np.allclose(b, 2.0 * a)
    infos = (kernel.info, malleable.info, cpu.info)
    for info in infos:
        launch_rw_summary(info)
        assert set(info.analysis_memo) == {"access_model", "rw_summary"}
    return [weakref.ref(info) for info in infos]


def test_infos_are_collectable_once_the_program_is_dropped(runtime,
                                                           monkeypatch):
    monkeypatch.setenv("DOPIA_VERIFY", "raise")
    refs = build_and_launch(runtime)
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_memo_is_reused_and_not_pickled():
    ctx = cl.create_context("kaveri")
    program = ctx.create_program_with_source(TILED).build()
    info = program.kernel_infos["tiled"]
    model = build_access_model(info)
    assert build_access_model(info) is model
    assert launch_rw_summary(info) is launch_rw_summary(info)
    clone = pickle.loads(pickle.dumps(info))
    assert clone.analysis_memo == {}
    assert build_access_model(clone) is not model
    assert clone == info
