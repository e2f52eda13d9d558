"""The serving ledger on simulated time.

Leases last a launch's modelled service time on a server-wide virtual
clock, so the load an admission sees — and hence the configuration it is
given — depends on the admission order and the performance model, never
on how fast the host executes the launch.
"""

import pytest

from repro.serve import DopiaServer
from repro.serve.server import _MAX_RECORDED
from repro.sim import KAVERI
from repro.workloads import SCALED_REAL_FACTORIES

#: kernels the model gives a mix of CPU and GPU configurations
INTERLEAVE = ["ATAX2", "GESUMMV", "BICG1", "SpMV", "2DCONV", "MVT2"]


def chosen_configs(model, rounds=3):
    """One worker, two sessions, a fixed submit interleave: per round
    session A submits a kernel, then session B another, then both
    results are awaited.  Returns every admission's (session, seq,
    config, load)."""
    admissions = []
    with DopiaServer(KAVERI, model, workers=1) as server:
        sessions = [server.session("a"), server.session("b")]
        for round_ in range(rounds):
            handles = []
            for index, session in enumerate(sessions):
                name = INTERLEAVE[(2 * round_ + index) % len(INTERLEAVE)]
                handles.append(session.launch(SCALED_REAL_FACTORIES[name](),
                                              rng_seed=round_))
            for handle in handles:
                result = handle.result(timeout=120)
                admissions.append((result.session, result.seq,
                                   result.prediction.config, result.load))
    return admissions


def test_choices_do_not_depend_on_the_executor(trained_model, monkeypatch):
    """The ROADMAP acceptance test: the scalar oracle and the jit take
    very different host time per launch, yet with a fixed admission
    order every admission sees the same load and gets the same
    configuration."""
    runs = {}
    for backend in ("scalar", "jit"):
        monkeypatch.setenv("DOPIA_BACKEND", backend)
        runs[backend] = chosen_configs(trained_model)
    assert runs["scalar"] == runs["jit"]
    # with one worker, host-time leases never overlap an admission: only
    # the virtual clock makes session B see session A's launch
    assert any(not load.idle for *_, load in runs["jit"])


def test_lone_session_sees_an_idle_device(trained_model):
    """Back-to-back launches of one session never overlap in virtual
    time: each arrives exactly when the previous one ends."""
    workload = SCALED_REAL_FACTORIES["GESUMMV"]()
    with DopiaServer(KAVERI, model=trained_model, workers=2) as server:
        session = server.session()
        for seed in range(5):
            result = session.launch(workload, rng_seed=seed).result(timeout=120)
            assert result.load.idle
        assert session._clock == pytest.approx(server.ledger.horizon)


def test_dependent_launch_arrives_after_its_predecessor(trained_model):
    """A launch that waited on another (here in a different session)
    arrives no earlier than the end of that launch's lease."""
    workload = SCALED_REAL_FACTORIES["GESUMMV"]()
    with DopiaServer(KAVERI, trained_model, workers=2) as server:
        first, second = server.session("first"), server.session("second")
        for seed in range(3):      # move "first"'s clock well past "second"'s
            first.launch(workload, rng_seed=seed).result(timeout=120)
        head = first.launch(workload, rng_seed=9)
        tail = second.launch(workload, rng_seed=9, after=(head,))
        tail.result(timeout=120)
        assert head.node.v_end > 0.0
        assert tail.node.v_ready == head.node.v_end
        assert second._clock == pytest.approx(
            head.node.v_end + tail.result().service_time_s)


def test_lease_store_stays_bounded(trained_model):
    """10k sequential launches keep the lease store bounded, also beside a
    session that stays referenced but idle: once the store outgrows its
    bound the idle session is let go, the floor moves on, and when that
    session submits again it rejoins at the floor."""
    workload = SCALED_REAL_FACTORIES["GESUMMV"]()
    args = workload.full_args(0)
    with DopiaServer(KAVERI, trained_model, workers=1, functional=False,
                     simulate=False) as server:
        idle = server.session("idle")
        idle.launch(workload, args).result(timeout=120)
        old_clock = idle._clock
        session = server.session("long")
        peak = 0
        for _ in range(10_000):
            session.launch(workload, args).result(timeout=120)
            peak = max(peak, server.ledger.recorded)
        assert server.ledger.total_leases == 10_001
        assert peak <= _MAX_RECORDED + 1
        assert server.ledger.recorded <= 2
        assert server._floor > old_clock
        back = idle.launch(workload, args)
        back.result(timeout=120)
        assert back.node.v_end - back.result().service_time_s \
            == pytest.approx(server._floor)
        assert server.ledger.recorded <= 2


def test_concurrent_sessions_keep_their_clocks(trained_model):
    """More workers and client threads than cores, with a short switch
    interval: every closed-loop session's launches sit back to back on its
    clock, the clock ends at its last lease, and nothing is left live."""
    import sys
    import threading

    names = ["GESUMMV", "ATAX2", "SpMV", "2DCONV"]
    workloads = [SCALED_REAL_FACTORIES[name]() for name in names]
    handles = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DopiaServer(KAVERI, trained_model, workers=4,
                         functional=False) as server:
            sessions = [server.session(f"c{i}") for i in range(6)]

            def client(index):
                mine = handles[index] = []
                for step in range(40):
                    workload = workloads[(index + step) % len(workloads)]
                    handle = sessions[index].launch(
                        workload, workload.full_args(0))
                    handle.result(timeout=120)
                    mine.append(handle)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(sessions))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert server.drain(timeout=30)
            assert server.ledger.in_flight == 0
            assert server._live == {}
            for index, session in enumerate(sessions):
                ends = [handle.node.v_end for handle in handles[index]]
                starts = [end - handle.result().service_time_s
                          for end, handle in zip(ends, handles[index])]
                assert starts[0] == pytest.approx(0.0, abs=1e-12)
                assert starts[1:] == pytest.approx(ends[:-1], rel=1e-9)
                assert session._clock == ends[-1]
            assert server.ledger.peak_cpu_util + server.ledger.peak_gpu_util > 0
    finally:
        sys.setswitchinterval(interval)
