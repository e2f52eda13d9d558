"""The per-kernel launch memo of ``DopiaRuntime.enqueue``.

A repeated launch (same model, kernel, scalar arguments, geometry and
trip hint) reuses the remembered prediction and simulated result instead
of re-running ``DopPredictor.select``, ``profile_kernel`` and
``simulate_execution``.  The records it produces must equal freshly
computed ones field for field, anything that changes the launch's
identity must miss, and traced launches must recompute so the trace
keeps every predict/simulate event.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro import cl
from repro.core import runtime as runtime_module
from repro.core.runtime import LAUNCH_MEMO_SIZE, DopiaRuntime
from repro.ml import DecisionTreeRegressor
from repro.obs import tracer

SAXPY = """
__kernel void saxpy(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) Y[i] = a * X[i] + Y[i];
}
"""


@pytest.fixture
def runtime(trained_runtime):
    return DopiaRuntime(trained_runtime.platform, trained_runtime.predictor.model)


@pytest.fixture(autouse=True)
def clean_tracer():
    tracer.disable()
    tracer.clear()
    yield
    tracer.disable()
    tracer.clear()


@pytest.fixture
def counted():
    """Call counters on the three memoised steps, still doing the work."""
    with mock.patch.object(runtime_module, "profile_kernel",
                           wraps=runtime_module.profile_kernel) as profile, \
            mock.patch.object(runtime_module, "simulate_execution",
                              wraps=runtime_module.simulate_execution) as simulate:
        yield profile, simulate


def enqueue(program, launches, a=2.0, n=256, local=64):
    """Enqueue ``launches`` SAXPY launches under the installed interposer."""
    ctx = program.context
    kernel = program.create_kernel("saxpy")
    kernel.set_args(ctx.create_buffer(np.zeros(n)),
                    ctx.create_buffer(np.ones(n)), a, n)
    queue = cl.create_command_queue(ctx, functional=False)
    for _ in range(launches):
        queue.enqueue_nd_range_kernel(kernel, (n,), (local,))


def launch(runtime, launches, program=None, **shape):
    """Interposed SAXPY launches; returns (their records, the program)."""
    with cl.interposed(runtime):
        if program is None:
            ctx = cl.create_context("kaveri")
            program = ctx.create_program_with_source(SAXPY).build()
        enqueue(program, launches, **shape)
    return list(runtime.launches)[-launches:], program


def fields(record):
    prediction = record.prediction
    return (record.kernel, prediction.config, prediction.scores.tobytes(),
            prediction.inference_cost_s, record.result, record.time_s,
            record.static, record.work_dim, record.global_size,
            record.local_size)


def test_repeat_launch_reuses_and_matches_fresh_records(runtime, counted):
    profile, simulate = counted
    with mock.patch.object(runtime.predictor, "select",
                           wraps=runtime.predictor.select) as select:
        records, _ = launch(runtime, 3)
        assert select.call_count == profile.call_count == simulate.call_count == 1
        # a freshly built program has an empty memo: its record is computed
        fresh, _ = launch(runtime, 1)
        assert select.call_count == 2
    assert all(fields(r) == fields(fresh[0]) for r in records)


def test_changed_launch_identity_misses(runtime, counted):
    profile, _ = counted
    _, program = launch(runtime, 1)
    launch(runtime, 1, program=program)
    assert profile.call_count == 1
    launch(runtime, 1, a=3.0, program=program)           # scalar argument
    launch(runtime, 1, n=512, program=program)           # global size
    launch(runtime, 1, local=32, program=program)        # work-group size
    assert profile.call_count == 4


def test_model_swap_misses(runtime):
    records, program = launch(runtime, 1)
    X = np.random.default_rng(0).uniform(size=(64, 11))
    constant = DecisionTreeRegressor().fit(X, np.zeros(64))
    runtime.predictor.model = constant
    swapped, _ = launch(runtime, 1, program=program)
    assert np.array_equal(swapped[0].prediction.scores, np.zeros(44))
    assert not np.array_equal(records[0].prediction.scores, np.zeros(44))


def test_traced_launches_recompute_every_event(runtime, counted):
    profile, _ = counted
    tracer.enable()
    launch(runtime, 3)
    assert profile.call_count == 3
    names = [event.name for event in tracer.events()]
    assert names.count("predictor.select") == 3
    assert names.count("dopia.simulate") == 3


def test_memo_is_bounded(runtime):
    _, program = launch(runtime, 1)
    for n in range(1, LAUNCH_MEMO_SIZE + 8):
        launch(runtime, 1, n=64 * n, program=program)
    assert len(program.interposer_data["saxpy"].launch_memo) == LAUNCH_MEMO_SIZE


def test_concurrent_launches_share_a_bounded_memo(runtime):
    """Threads hitting, missing and evicting one kernel's memo at once."""
    sizes = [64 * k for k in range(1, 7)]           # more than the bound
    expected = {}
    for n in sizes:                                  # unmemoised reference
        records, _ = launch(runtime, 1, n=n)
        expected[n] = fields(records[0])
    _, program = launch(runtime, 1)
    runtime.clear()
    errors = []

    def client(offset):
        try:
            for j in range(12):
                enqueue(program, 1, n=sizes[(offset + j) % len(sizes)])
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(runtime_module, "LAUNCH_MEMO_SIZE", 3), \
                cl.interposed(runtime):
            workers = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert len(program.interposer_data["saxpy"].launch_memo) <= 3
    assert runtime.total_launches == 8 * 12
    for record in runtime.launches:
        assert fields(record) == expected[record.global_size]
