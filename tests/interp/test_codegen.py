"""The jit tier: program-cache correctness and lowering quality.

The trace-compiler specializes a kernel on its launch (geometry, scalar
values, buffer extents and dtypes), so the cache key must separate
launches that need different programs and share the ones that don't —
and a *different* ``KernelInfo`` (e.g. an edited kernel whose verifier
verdicts changed) must never reuse a stale program.  The lowering-quality
tests pin down the paper-facing claims: uniform-control kernels become
whole-array programs with no masks, provable guards are elided, and the
masked tail appears only on ragged launches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import analyze_kernel, parse, parse_kernel
from repro.interp import (
    JitExecutor,
    JitUnsupported,
    KernelExecutor,
    NDRange,
    compile_cached,
    compile_kernel,
    execute_kernel,
    execution_stats,
    jit_cache_stats,
    make_executor,
)
from repro.workloads import TABLE4_PATTERNS, SyntheticSpec, make_synthetic

SAXPY = """
__kernel void saxpy(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) Y[i] = a * X[i] + Y[i];
}
"""

MUTATED = """
__kernel void saxpy(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) Y[i] = a * X[i] - Y[i];
}
"""


def _info(source=SAXPY):
    return analyze_kernel(parse_kernel(source), parse(source))


def _args(n, a=2.0, rng=0):
    r = np.random.default_rng(rng)
    return {"X": r.standard_normal(n), "Y": r.standard_normal(n),
            "a": a, "n": n}


def _run_jit(info, args, ndrange):
    compiled = compile_cached(info, args, ndrange)
    JitExecutor(info, args, ndrange, compiled).run()
    return compiled


def _expected(info, args, ndrange):
    copy = {k: v.copy() if isinstance(v, np.ndarray) else v
            for k, v in args.items()}
    KernelExecutor(info, copy, ndrange).run()
    return copy


@pytest.fixture(autouse=True)
def _clean_stats():
    execution_stats.reset()
    yield
    execution_stats.reset()


class TestProgramCache:
    def test_two_launch_shapes_compile_two_programs(self):
        info = _info()
        for n in (64, 128):
            args = _args(n)
            expected = _expected(info, args, NDRange(n, 16))
            _run_jit(info, args, NDRange(n, 16))
            assert args["Y"].tobytes() == expected["Y"].tobytes(), n
        # one compile per shape, no cross-contamination between the
        # specialized programs
        assert execution_stats.jit_compiles["saxpy"] == 2

    def test_same_launch_hits_the_cache(self):
        info = _info()
        ndrange = NDRange(64, 16)
        first = compile_cached(info, _args(64), ndrange)
        second = compile_cached(info, _args(64, rng=7), ndrange)
        assert second is first  # buffer *contents* are not part of the key
        assert execution_stats.jit_compiles["saxpy"] == 1
        assert execution_stats.jit_cache_hits["saxpy"] == 1

    def test_scalar_values_are_part_of_the_key(self):
        """Scalars are constant-folded into the program source, so a
        different value must compile a different program."""
        info = _info()
        ndrange = NDRange(64, 16)
        for a in (2.0, 3.0):
            args = _args(64, a=a)
            expected = _expected(info, args, ndrange)
            _run_jit(info, args, ndrange)
            assert args["Y"].tobytes() == expected["Y"].tobytes(), a
        assert execution_stats.jit_compiles["saxpy"] == 2

    def test_buffer_dtype_is_part_of_the_key(self):
        info = _info()
        ndrange = NDRange(64, 16)
        a = compile_cached(info, _args(64), ndrange)
        args32 = _args(64)
        args32["X"] = args32["X"].astype(np.float32)
        b = compile_cached(info, args32, ndrange)
        assert b is not a

    def test_negative_results_are_cached(self):
        info = _info("""
            float one(float x) { return x + 1.0f; }
            __kernel void irr(__global float* X, __global int* rows, int n)
            {
                int i = get_global_id(0);
                if (i < n) X[i] = one(X[i]);
            }
        """)
        args = {"X": np.zeros(32), "rows": np.full(32, 3, dtype=np.int64),
                "n": 32}
        with pytest.raises(JitUnsupported):
            compile_cached(info, dict(args), NDRange(32, 8))
        with pytest.raises(JitUnsupported):
            compile_cached(info, dict(args), NDRange(32, 8))
        assert execution_stats.jit_compiles["irr"] == 1
        assert execution_stats.jit_cache_hits["irr"] == 1

    def test_mutated_kernel_gets_its_own_entry(self):
        """Editing a kernel produces a new KernelInfo whose verifier
        verdicts may differ — it must never reuse the old program."""
        import gc

        gc.collect()  # flush dead infos from earlier tests first
        clean = _info(SAXPY)
        ndrange = NDRange(64, 16)
        compile_cached(clean, _args(64), ndrange)
        before = jit_cache_stats()

        mutated = _info(MUTATED)
        args = _args(64)
        expected = _expected(mutated, args, ndrange)
        _run_jit(mutated, args, ndrange)
        assert args["Y"].tobytes() == expected["Y"].tobytes()

        after = jit_cache_stats()
        assert after["kernels"] == before["kernels"] + 1
        # the clean kernel's program is still cached and still valid
        fresh = _args(64)
        saxpy_expected = _expected(clean, fresh, ndrange)
        _run_jit(clean, fresh, ndrange)
        assert fresh["Y"].tobytes() == saxpy_expected["Y"].tobytes()
        assert execution_stats.jit_cache_hits["saxpy"] >= 1

    def test_dead_info_is_evicted(self):
        import gc

        gc.collect()  # flush dead infos from earlier tests first
        occupied = jit_cache_stats()["kernels"]
        info = _info()
        compile_cached(info, _args(64), NDRange(64, 16))
        assert jit_cache_stats()["kernels"] == occupied + 1
        del info
        gc.collect()
        assert jit_cache_stats()["kernels"] == occupied


class TestLoweringQuality:
    def test_uniform_control_has_no_masks(self):
        """gsize == n proves the guard: the program is a whole-array
        expression — no masks, no gather/scatter, no work-item loop."""
        compiled = compile_kernel(_info(), _args(64), NDRange(64, 16))
        assert not compiled.masked
        assert "where" not in compiled.source
        assert "rt.gather" not in compiled.source
        assert "rt.scatter" not in compiled.source

    def test_ragged_launch_masks_only_the_tail(self):
        """gsize > n leaves a ragged edge: the guard survives as a mask,
        Triton-style, instead of forcing the kernel off the jit path."""
        n = 100
        args = _args(128)
        args["n"] = n
        compiled = compile_kernel(_info(), args, NDRange(128, 16))
        assert compiled.masked

        expected = _expected(_info(), dict(args), NDRange(128, 16))
        run = dict(args)
        run["X"] = args["X"].copy()
        run["Y"] = args["Y"].copy()
        _run_jit(_info(), run, NDRange(128, 16))
        assert run["Y"].tobytes() == expected["Y"].tobytes()

    def test_provable_inner_loop_bounds_elide_gather(self):
        """The induction-range analysis proves A[i*n+j] in-bounds for a
        GESUMMV-style reduction, so the hot loop uses raw indexing."""
        info = _info("""
            __kernel void rowsum(__global float* A, __global float* x,
                                 __global float* y, int n)
            {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < n; j++) {
                    acc = acc + A[i * n + j] * x[j];
                }
                y[i] = acc;
            }
        """)
        n = 32
        rng = np.random.default_rng(0)
        args = {"A": rng.standard_normal(n * n),
                "x": rng.standard_normal(n),
                "y": np.zeros(n), "n": n}
        compiled = compile_kernel(info, args, NDRange(n, 8))
        assert "rt.gather" not in compiled.source
        assert "rt.scatter" not in compiled.source


class TestTable2Family:
    """Hypothesis sweep: the jit entry point must stay byte-identical to
    the scalar oracle across the Table-2 synthetic kernel family."""

    @settings(max_examples=20, deadline=None)
    @given(
        pattern=st.sampled_from(list(TABLE4_PATTERNS)),
        dim=st.sampled_from([1, 2]),
        dtype=st.sampled_from(["float", "int"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_jit_matches_scalar(self, pattern, dim, dtype, seed):
        spec = SyntheticSpec.from_pattern(pattern, gamma=1, dim=dim,
                                          dtype=dtype)
        workload = make_synthetic(spec, size=32, wg_items=16, extent=4)
        base = workload.full_args(rng=seed)

        scalar_args = {k: v.copy() if isinstance(v, np.ndarray) else v
                       for k, v in base.items()}
        jit_args = {k: v.copy() if isinstance(v, np.ndarray) else v
                    for k, v in base.items()}
        execute_kernel(workload.source, scalar_args, workload.ndrange(),
                       kernel_name=workload.kernel_name, backend="scalar")
        execute_kernel(workload.source, jit_args, workload.ndrange(),
                       kernel_name=workload.kernel_name, backend="jit")
        for name, value in scalar_args.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == jit_args[name].tobytes(), name


class TestExecutorFallback:
    def test_runtime_guard_reverts_to_scalar_transparently(self):
        """A compiled program that trips a runtime guard must rerun on
        the scalar oracle with the pre-run buffer contents restored."""
        info = _info()
        args = _args(64)
        ndrange = NDRange(64, 16)
        compiled = compile_cached(info, args, ndrange)

        class Boom(Exception):
            pass

        def exploding(*_a, **_k):
            raise Boom("injected")

        sabotaged = type(compiled)(
            kernel_name=compiled.kernel_name, fn=exploding,
            source=compiled.source, key=compiled.key,
            buffer_params=compiled.buffer_params, id_spec=compiled.id_spec,
            masked=compiled.masked,
            oob_elided_by_verdict=compiled.oob_elided_by_verdict,
            verdicts=compiled.verdicts)
        expected = _expected(info, args, ndrange)
        JitExecutor(info, args, ndrange, sabotaged).run()
        assert args["Y"].tobytes() == expected["Y"].tobytes()
        assert execution_stats.fallback_count("saxpy") == 1

    def test_auto_routes_through_jit(self):
        info = _info()
        args = _args(256)
        executor = make_executor(info, args, NDRange(256, 16),
                                 backend="auto")
        assert isinstance(executor, JitExecutor)
