"""The admission legality gate: verification before building or running.

Under ``DOPIA_VERIFY=raise`` a launch whose kernel the verifier convicts
(RACE001 at this geometry) must be refused *before* any variant is built
or any work-group is claimed — at the runtime's functional-execution
entry, and independently inside ``run_dynamic`` so serving workers and
chains cannot bypass the gate through a different code path.  Clean
kernels pass through unchanged, and the default ``off`` policy keeps
everything as permissive as before.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import cl
from repro.analysis.diagnostics import Diagnostic, VerifyReport
from repro.analysis.verify import VerifyError
from repro.core import run_dynamic, runtime as runtime_module
from repro.frontend import analyze_kernel, parse_kernel
from repro.interp import NDRange
from repro.sim import DopSetting
from repro.transform import make_malleable

RACY = """
__kernel void racy(__global float* c, int n)
{
    int i = get_global_id(0);
    if (i < n) c[0] = (float)i;
}
"""

CLEAN = """
__kernel void ok(__global float* c, int n)
{
    int i = get_global_id(0);
    if (i < n) c[i] = (float)i;
}
"""

TILED = """
__kernel void tiled(__global float* c, int nx)
{
    int x = get_global_id(0);
    int y = get_global_id(1);
    c[y * nx + x] = (float)(x + y);
}
"""


def launch_through_runtime(runtime, source, name):
    ctx = cl.create_context("kaveri")
    with cl.interposed(runtime):
        program = ctx.create_program_with_source(source).build()
        kernel = program.create_kernel(name)
        kernel.set_args(ctx.create_buffer(np.zeros(64)), 64)
        queue = cl.create_command_queue(ctx, functional=True)
        queue.enqueue_nd_range_kernel(kernel, (64,), (16,))


class TestRuntimeGate:
    def test_raise_refuses_racy_launch(self, trained_runtime, monkeypatch):
        monkeypatch.setenv("DOPIA_VERIFY", "raise")
        with pytest.raises(VerifyError) as excinfo:
            launch_through_runtime(trained_runtime, RACY, "racy")
        assert any(d.code == "RACE001"
                   for d in excinfo.value.report.diagnostics)

    def test_raise_passes_clean_launch(self, trained_runtime, monkeypatch):
        monkeypatch.setenv("DOPIA_VERIFY", "raise")
        launch_through_runtime(trained_runtime, CLEAN, "ok")

    def test_off_admits_racy_launch(self, trained_runtime, monkeypatch):
        monkeypatch.delenv("DOPIA_VERIFY", raising=False)
        launch_through_runtime(trained_runtime, RACY, "racy")

    def test_warn_admits_but_reports(self, trained_runtime, monkeypatch,
                                     capsys):
        monkeypatch.setenv("DOPIA_VERIFY", "warn")
        launch_through_runtime(trained_runtime, RACY, "racy")
        assert "RACE001" in capsys.readouterr().err


#: (source, kernel name, global size, local size) of a 1-D and a 2-D
#: launch; each variant is built at its first launch
LAUNCHES = {
    "1-D variant": (CLEAN, "ok", (64,), (16,)),
    "2-D variant": (TILED, "tiled", (8, 8), (4, 4)),
}

#: the buffer each of :data:`LAUNCHES` leaves: ``c[i] = i`` and
#: ``c[y * 8 + x] = x + y``
EXPECTED = {
    "1-D variant": np.arange(64.0),
    "2-D variant": np.add.outer(np.arange(8.0), np.arange(8.0)).ravel(),
}

MIXED = DopSetting(cpu_threads=2, gpu_fraction=0.5)
CPU_ONLY = DopSetting(cpu_threads=2, gpu_fraction=0.0)


def build(runtime, launch):
    """Build one of :data:`LAUNCHES`; returns a launcher for it on a
    functional queue, the kernel and its output buffer."""
    source, name, global_size, local_size = LAUNCHES[launch]
    ctx = cl.create_context("kaveri")
    buffer = np.zeros(64)
    with cl.interposed(runtime):
        kernel = ctx.create_program_with_source(source).build() \
            .create_kernel(name)
    kernel.set_args(ctx.create_buffer(buffer), global_size[0])
    queue = cl.create_command_queue(ctx, functional=True)

    def launch_once():
        with cl.interposed(runtime):
            queue.enqueue_nd_range_kernel(kernel, global_size, local_size)

    return launch_once, kernel, buffer


class TestBuildTimeVariant:
    """The build decides transformability without transforming; the
    first launch with a GPU share builds the variant for its own work
    dimension, once, behind the ``verify_kernel`` gate.  A CPU-only
    launch runs no variant and builds none."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        """Work dimensions of the runtime's ``make_malleable`` calls."""
        calls = []
        real = runtime_module.make_malleable

        def counting(info, work_dim):
            calls.append(work_dim)
            return real(info, work_dim=work_dim)

        monkeypatch.setattr(runtime_module, "make_malleable", counting)
        return calls

    @pytest.fixture
    def place(self, trained_runtime, monkeypatch):
        """Pin the runtime's choice to the configuration with a setting."""
        predictor = trained_runtime.predictor
        real = predictor.select

        def pin(setting):
            config = next(c for c in predictor.configs
                          if c.setting == setting)
            monkeypatch.setattr(
                predictor, "select",
                lambda *a, **k: replace(real(*a, **k), config=config))

        return pin

    def test_build_and_first_launch_transform_once(self, trained_runtime,
                                                   transforms, place):
        place(MIXED)
        for launch, (_, _, global_size, _) in LAUNCHES.items():
            transforms.clear()
            launch_once, kernel, buffer = build(trained_runtime, launch)
            assert transforms == [], launch
            launch_once()
            launch_once()
            assert np.array_equal(buffer, EXPECTED[launch]), launch
            work_dim = len(global_size)
            assert transforms == [work_dim], launch
            artifacts = trained_runtime._artifacts(kernel)
            assert artifacts.transformable
            assert list(artifacts.malleable) == [work_dim]

    def test_cpu_only_launch_builds_no_variant(self, trained_runtime,
                                               transforms, place):
        place(CPU_ONLY)
        for launch in LAUNCHES:
            launch_once, kernel, buffer = build(trained_runtime, launch)
            launch_once()
            assert np.array_equal(buffer, EXPECTED[launch]), launch
            assert trained_runtime._artifacts(kernel).malleable == {}
        assert transforms == []

    @pytest.mark.parametrize("launch", list(LAUNCHES))
    def test_raise_refuses_convicted_kernel_before_any_variant(
            self, trained_runtime, monkeypatch, transforms, place, launch):
        """The kernel is built under ``off``; ``raise`` comes into force
        before its first launch, so the build's own verification never
        saw it and the runtime's gate is what refuses it."""
        def convicted(info):
            report = VerifyReport(kernel=info.kernel.name)
            report.extend([Diagnostic.at("RACE001", info.kernel.name,
                                         "planted build-time error")])
            return report

        def scheduled(*args, **kwargs):
            raise AssertionError("a malleable variant reached the scheduler")

        place(MIXED)
        monkeypatch.delenv("DOPIA_VERIFY", raising=False)
        launch_once, kernel, _ = build(trained_runtime, launch)
        assert transforms == []
        monkeypatch.setenv("DOPIA_VERIFY", "raise")
        monkeypatch.setattr("repro.analysis.verify.verify_kernel", convicted)
        monkeypatch.setattr(runtime_module, "run_dynamic", scheduled)
        with pytest.raises(VerifyError, match="planted"):
            launch_once()
        artifacts = trained_runtime._artifacts(kernel)
        assert artifacts.malleable == {} and transforms == []


class TestSchedulerGate:
    """``run_dynamic`` re-checks legality itself: every execution path —
    runtime, serving workers, chains — funnels through it."""

    def _prepared(self, source):
        info = analyze_kernel(parse_kernel(source))
        return info, make_malleable(source, work_dim=1)

    def test_raise_refuses_inside_run_dynamic(self, monkeypatch):
        monkeypatch.setenv("DOPIA_VERIFY", "raise")
        info, malleable = self._prepared(RACY)
        with pytest.raises(VerifyError):
            run_dynamic(info, malleable, {"c": np.zeros(64), "n": 64},
                        NDRange(64, 16), DopSetting(2, 0.5),
                        dop_gpu_mod=2, dop_gpu_alloc=1)

    def test_raise_passes_clean_kernel(self, monkeypatch):
        monkeypatch.setenv("DOPIA_VERIFY", "raise")
        info, malleable = self._prepared(CLEAN)
        buffer = np.zeros(64)
        run_dynamic(info, malleable, {"c": buffer, "n": 64},
                    NDRange(64, 16), DopSetting(2, 0.5),
                    dop_gpu_mod=2, dop_gpu_alloc=1)
        assert buffer[5] == 5.0

    def test_off_is_the_permissive_default(self, monkeypatch):
        monkeypatch.delenv("DOPIA_VERIFY", raising=False)
        info, malleable = self._prepared(RACY)
        run_dynamic(info, malleable, {"c": np.zeros(64), "n": 64},
                    NDRange(64, 16), DopSetting(2, 0.5))
