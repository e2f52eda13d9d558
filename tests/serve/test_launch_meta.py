"""The server's per-workload launch memo: reused across launches of one
workload, and holding neither the workload nor its argument buffers."""

import gc
import weakref

from repro.serve import DopiaServer
from repro.sim import KAVERI
from repro.workloads import SCALED_REAL_FACTORIES


def _launch(session, workload, args):
    return session.launch(workload, args=args).result(timeout=120)


def test_one_entry_per_workload_across_fresh_args(trained_model):
    with DopiaServer(KAVERI, trained_model, workers=1) as server:
        session = server.session("memo")
        workload = SCALED_REAL_FACTORIES["GESUMMV"]()
        for rng in range(3):
            _launch(session, workload, workload.full_args(rng=rng))
        assert list(server._meta) == [id(workload)]


def test_dropped_workload_and_args_are_collected(trained_model):
    with DopiaServer(KAVERI, trained_model, workers=1) as server:
        session = server.session("memo")
        workload = SCALED_REAL_FACTORIES["GESUMMV"]()
        args = workload.full_args(rng=0)
        _launch(session, workload, args)
        buffers = [weakref.ref(value) for value in args.values()
                   if hasattr(value, "__array_interface__")]
        dead_workload = weakref.ref(workload)
        assert buffers
        del workload, args
        # the worker holds its last request until it takes the next one
        other = SCALED_REAL_FACTORIES["ATAX1"]()
        _launch(session, other, other.full_args(rng=0))
        gc.collect()
        assert dead_workload() is None
        assert all(ref() is None for ref in buffers)
        assert list(server._meta) == [id(other)]


def test_scalars_are_read_per_launch(trained_model):
    """A client that edits a scalar in its argument dict between launches
    gets the new value's simulation, not the first launch's."""
    with DopiaServer(KAVERI, trained_model, workers=1) as server:
        workload = SCALED_REAL_FACTORIES["GESUMMV"]()
        args = workload.full_args(rng=0)
        name = server._prepare(workload).info.scalar_params[0]
        first = server._launch_meta(workload, args)
        args[name] = args[name] + 1
        second = server._launch_meta(workload, args)
        assert second.scalars[name] == first.scalars[name] + 1
        assert second.scalars_key != first.scalars_key
        assert second.prepared is first.prepared
