"""The headline concurrency stress harness (ISSUE tentpole).

Barrier-synchronised clients hammer one :class:`DopiaServer` and the
suite proves the three serving guarantees:

1. **bit identity** — N concurrent clients produce buffers bit-identical
   to the same launches served one at a time, on both interpreter
   backends;
2. **exact coverage** — no work-group is lost or duplicated under
   concurrency (every launch's schedule trace covers exactly its
   ND-range);
3. **isolation** — per-client buffers never bleed into each other (each
   client's outputs equal its own serial reference, not a mixture).
"""

import threading

import pytest

from repro.serve import DopiaServer
from repro.sim import KAVERI
from repro.workloads import SCALED_REAL_FACTORIES

CLIENTS = 8
BACKENDS = ("jit", "scalar")


def buffer_bytes(args):
    """Bit-exact signature of every array argument, name-keyed."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in args.items()
        if hasattr(value, "tobytes")
    }


def serve_serially(model, backend, client_ids):
    """Oracle: every (client, workload) launch served one at a time.

    Returns ``{(client_id, kernel_key): buffer signature after launch}``.
    """
    reference = {}
    with DopiaServer(KAVERI, model, workers=1, backend=backend) as server:
        for client in client_ids:
            session = server.session(f"serial-{client}")
            for key, factory in SCALED_REAL_FACTORIES.items():
                workload = factory()
                args = workload.full_args(rng=client)
                result = session.launch(workload, args=args).result(timeout=120)
                assert result.trace is not None
                reference[(client, key)] = buffer_bytes(args)
    return reference


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_clients_bit_identical_to_serial(trained_model, backend):
    """8 barrier-synced clients x all 14 registry kernels == serial run."""
    client_ids = list(range(CLIENTS))
    reference = serve_serially(trained_model, backend, client_ids)

    barrier = threading.Barrier(CLIENTS)
    outputs = {}
    coverage = {}
    errors = []
    lock = threading.Lock()

    def client_loop(client):
        try:
            session = server.session(f"stress-{client}")
            launches = []
            for key, factory in SCALED_REAL_FACTORIES.items():
                workload = factory()
                launches.append((key, workload, workload.full_args(rng=client)))
            barrier.wait()  # all clients submit at the same instant
            handles = [(key, workload, args,
                        session.launch(workload, args=args))
                       for key, workload, args in launches]
            for key, workload, args, handle in handles:
                result = handle.result(timeout=120)
                with lock:
                    outputs[(client, key)] = buffer_bytes(args)
                    coverage[(client, key)] = (
                        sorted(result.trace.cpu_groups + result.trace.gpu_groups),
                        workload.num_work_groups,
                    )
        except BaseException as error:  # noqa: BLE001 - re-raised below
            with lock:
                errors.append(error)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    with DopiaServer(KAVERI, trained_model, workers=CLIENTS,
                     backend=backend) as server:
        threads = [threading.Thread(target=client_loop, args=(client,))
                   for client in client_ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    if errors:
        raise errors[0]

    # guarantee 2: every launch covered its ND-range exactly once
    assert len(coverage) == CLIENTS * len(SCALED_REAL_FACTORIES)
    for (client, key), (claimed, num_groups) in coverage.items():
        assert claimed == list(range(num_groups)), (client, key)

    # guarantees 1 + 3: bit-identical to each client's own serial reference
    assert outputs.keys() == reference.keys()
    for launch_key in reference:
        assert outputs[launch_key] == reference[launch_key], launch_key

    # server-side accounting survived the stampede
    with server.stats._lock:
        assert server.stats.completed == CLIENTS * len(SCALED_REAL_FACTORIES)
        assert server.stats.failed == 0
    assert server.ledger.in_flight == 0


def test_concurrent_sessions_unique_names(trained_model):
    """Racing session() calls never hand out duplicate auto-names."""
    with DopiaServer(KAVERI, trained_model, workers=1) as server:
        names = []
        lock = threading.Lock()
        barrier = threading.Barrier(CLIENTS)

        def open_session():
            barrier.wait()
            session = server.session()
            with lock:
                names.append(session.name)

        threads = [threading.Thread(target=open_session) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(names)) == CLIENTS
        with pytest.raises(ValueError):
            server.session(names[0])


def test_closed_server_rejects_launches(trained_model):
    from repro.serve.server import ServeError

    server = DopiaServer(KAVERI, trained_model, workers=1)
    session = server.session()
    server.close()
    workload = SCALED_REAL_FACTORIES["GESUMMV"]()
    with pytest.raises(ServeError):
        session.launch(workload)
