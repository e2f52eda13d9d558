"""The cross-process stress harness (ISSUE tentpole lock-down).

Barrier-synchronised clients hammer a 4-shard :class:`ShardedServer`
and the suite proves the sharded layer gives the same three guarantees
the in-process server's harness (``test_stress.py``) established —
now across process boundaries, shared-memory buffers, and the router's
hazard escalation:

1. **bit identity** — 8 concurrent clients over every registry kernel
   produce buffers byte-identical to the serial interpreter, and the
   FDTD / ATAX chains cross shard boundaries without divergence;
2. **exactly-once** — the router's scheduler log shows one ``start``
   and one ``done`` per launch, and the shard "bye" reports account
   for every launch with zero failures;
3. **graph correctness under randomness** — hypothesis-generated
   random task DAGs through the sharded fixture match the one-at-a-time
   serial oracle bit for bit (ordering is split between router
   escalation and shard-local scheduling, so bit identity — not the
   router log — is the invariant here).
"""

import itertools
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.runtime import execute_chain_serial, execute_workload_serial
from repro.serve import ShardedServer
from repro.sim import KAVERI
from repro.workloads import (
    SCALED_REAL_FACTORIES,
    Workload,
    make_atax_chain,
    make_fdtd_chain,
)
from repro.workloads.chains import ChainTask, KernelChain

CLIENTS = 8
SHARDS = 4
BACKEND = "jit"
EXAMPLES = int(os.environ.get("DOPIA_SHARD_GRAPH_EXAMPLES", "15"))


def buffer_bytes(args):
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in args.items()
        if hasattr(value, "tobytes")
    }


def serial_reference(client_ids):
    """Oracle: every (client, workload) launch on the serial interpreter."""
    reference = {}
    for client in client_ids:
        for key, factory in SCALED_REAL_FACTORIES.items():
            workload = factory()
            args = workload.full_args(rng=client)
            execute_workload_serial(workload, args, backend=BACKEND)
            reference[(client, key)] = buffer_bytes(args)
    return reference


def test_sharded_clients_bit_identical_to_serial(trained_model):
    """8 barrier-synced clients x 4 shards x all 14 registry kernels."""
    client_ids = list(range(CLIENTS))
    reference = serial_reference(client_ids)

    barrier = threading.Barrier(CLIENTS)
    outputs = {}
    errors = []
    lock = threading.Lock()

    def client_loop(client):
        try:
            session = server.session(f"stress-{client}")
            launches = []
            for key, factory in SCALED_REAL_FACTORIES.items():
                workload = factory()
                launches.append((key, workload,
                                 workload.full_args(rng=client)))
            barrier.wait()  # all clients submit at the same instant
            handles = [(key, args, session.launch(workload, args=args))
                       for key, workload, args in launches]
            for key, args, handle in handles:
                handle.result(timeout=300.0)
                with lock:
                    outputs[(client, key)] = buffer_bytes(args)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            with lock:
                errors.append(error)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    with ShardedServer(KAVERI, trained_model, shards=SHARDS,
                       workers_per_shard=2, backend=BACKEND,
                       functional=True, simulate=False,
                       warm_start=False) as server:
        threads = [threading.Thread(target=client_loop, args=(client,))
                   for client in client_ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        assert server.drain(timeout=60.0)
        events = list(server.graph.events)
        stats = server.stats.snapshot()
    reports = server.shard_reports

    total = CLIENTS * len(SCALED_REAL_FACTORIES)

    # guarantee 1: bit-identical to the serial interpreter, per client
    assert outputs.keys() == reference.keys()
    for launch_key in reference:
        assert outputs[launch_key] == reference[launch_key], launch_key

    # guarantee 2: exactly-once, at the router and in the shards
    assert stats["submitted"] == total
    assert stats["completed"] == total
    assert stats["failed"] == 0 and stats["dep_failed"] == 0
    starts = [e for e in events if e[0] == "start"]
    dones = [e for e in events if e[0] == "done"]
    assert len(starts) == total and len(dones) == total
    assert len({e[1] for e in starts}) == total     # no node started twice
    assert len({e[1] for e in dones}) == total
    assert len(reports) == SHARDS
    assert sum(report["launches"] for report in reports) == total
    assert sum(report["completed"] for report in reports) == total
    assert all(report["failed"] == 0 for report in reports)
    # the ring spread the kernel space: no shard sat idle
    assert all(report["launches"] > 0 for report in reports)


@pytest.mark.parametrize("make_chain", [make_fdtd_chain, make_atax_chain],
                         ids=["FDTD", "ATAX"])
def test_chains_cross_shards_bit_identical(trained_model, make_chain):
    served = make_chain()
    oracle = make_chain()
    with ShardedServer(KAVERI, trained_model, shards=SHARDS,
                       workers_per_shard=2, backend=BACKEND,
                       functional=True, simulate=False,
                       warm_start=False) as server:
        session = server.session("chain")
        results = server.submit_chain(session, served).result(timeout=300.0)
        assert server.drain(timeout=60.0)
    assert set(results) == {task.key for task in served.tasks}
    execute_chain_serial(oracle, backend=BACKEND)
    assert served.buffer_bytes() == oracle.buffer_bytes()


# ---------------------------------------------------------------------------
# Hypothesis: random task graphs through the sharded fixture
# ---------------------------------------------------------------------------

N = 64
WG = 16
NUM_BUFFERS = 4
MAX_READS = 3


def _task_source(n_reads: int) -> str:
    params = "".join(f"__global float* r{k}, " for k in range(n_reads))
    reads = " + ".join(f"r{k}[i]" for k in range(n_reads)) or "0.0f"
    return (
        f"__kernel void task(__global float* w, {params}float c)"
        f"{{ int i = get_global_id(0); "
        f"w[i] = 0.5f * w[i] + 0.25f * ({reads}) + c; }}"
    )


#: one workload per read-arity — distinct sources, so the ring may pin
#: them to *different* shards and conflicts exercise both escalation
#: (cross-shard) and shard-local ordering (same-shard chains)
TASKS = {
    k: Workload(key=f"shardprop/{k}", source=_task_source(k),
                kernel_name="task", global_size=(N,), local_size=(WG,))
    for k in range(MAX_READS + 1)
}

task_st = st.tuples(
    st.integers(0, NUM_BUFFERS - 1),
    st.lists(st.integers(0, NUM_BUFFERS - 1),
             max_size=MAX_READS, unique=True).map(tuple),
    st.integers(-4, 4),
)
graph_st = st.lists(task_st, min_size=3, max_size=8)

_INITIAL = np.random.default_rng(20260808).uniform(-1, 1, (NUM_BUFFERS, N))
_session_ids = itertools.count()


def fresh_buffers() -> list[np.ndarray]:
    return [_INITIAL[b].copy() for b in range(NUM_BUFFERS)]


def task_args(task, buffers) -> dict:
    write, reads, c = task
    args = {"w": buffers[write]}
    for k, b in enumerate(reads):
        args[f"r{k}"] = buffers[b]
    args["c"] = float(c)
    return args


def conflicts(earlier, later) -> bool:
    w_a, reads_a, _ = earlier
    w_b, reads_b, _ = later
    return w_a in {w_b, *reads_b} or w_b in {w_a, *reads_a}


def serial_oracle(tasks) -> list[bytes]:
    buffers = fresh_buffers()
    chain_tasks = []
    for j, task in enumerate(tasks):
        deps = tuple(f"t{i}" for i in range(j) if conflicts(tasks[i], task))
        chain_tasks.append(ChainTask(
            key=f"t{j}", workload=TASKS[len(task[1])],
            args=task_args(task, buffers), deps=deps))
    chain = KernelChain(name="prop", tasks=chain_tasks,
                        buffers={str(b): buffers[b]
                                 for b in range(NUM_BUFFERS)})
    execute_chain_serial(chain, backend="scalar")
    return [buffers[b].tobytes() for b in range(NUM_BUFFERS)]


@pytest.fixture(scope="module")
def sharded_server(trained_model):
    """One pool for every hypothesis example: forking per example would
    swamp the property with process start-up."""
    with ShardedServer(KAVERI, trained_model, shards=2, workers_per_shard=2,
                       backend="scalar", functional=True, simulate=False,
                       warm_start=False) as server:
        yield server


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tasks=graph_st)
def test_random_graphs_match_serial_through_shards(sharded_server, tasks):
    server = sharded_server
    buffers = fresh_buffers()
    session = server.session(f"prop-{next(_session_ids)}")
    before = len(server.graph.events)
    handles = [session.launch(TASKS[len(task[1])], task_args(task, buffers))
               for task in tasks]
    for handle in handles:
        handle.result(timeout=300.0)
    assert server.drain(timeout=60.0)
    events = list(server.graph.events)[before:]

    # exactly-once at the router, even with shard-local chaining in play
    for handle in handles:
        node = handle.node
        assert events.count(("start", node.id, node.label)) == 1
        assert events.count(("done", node.id, node.label)) == 1

    # bit-identical to the one-at-a-time run of the same sequence
    expected = serial_oracle(tasks)
    for b in range(NUM_BUFFERS):
        assert buffers[b].tobytes() == expected[b], f"buffer {b} diverged"
