"""Differential testing: the compiled backends against the scalar oracle.

The scalar interpreter is the semantic ground truth; the batched NumPy
backend and the jit trace-compiler must produce **bit-identical**
buffers for every kernel they accept.  This suite drives all three
backends over

* the 14 real-world registry kernels (Table 4), scaled down,
* their malleable-transformed variants at several throttle settings
  (which exercise the transparent scalar fallback — the worklist
  transform introduces barriers and atomics),
* a sweep of Table-2 synthetic kernels over pattern/dim/dtype axes, and
* hypothesis-generated random launch geometries and kernel parameters,

comparing raw buffer bytes after each pair of runs.  The broad sweeps
carry ``@pytest.mark.slow`` so the fast CI lane (``-m "not slow"``)
keeps a representative subset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import run_dynamic
from repro.frontend import analyze_kernel, parse_kernel
from repro.interp import (
    NDRange,
    check_vectorizable,
    execute_kernel,
    execution_stats,
    make_executor,
)
from repro.sim import DopSetting
from repro.transform import ALLOC_PARAM, MOD_PARAM, make_malleable
from repro.workloads import (
    REAL_WORKLOAD_FACTORIES,
    SCALED_REAL_FACTORIES,
    TABLE4_PATTERNS,
    SyntheticSpec,
    make_synthetic,
)

#: Backwards-compatible local alias; the dict now lives with the workloads
#: so that ``dopia trace`` can drive the same scaled launches.
SCALED_REAL = SCALED_REAL_FACTORIES


def _copy_args(args):
    return {
        name: value.copy() if isinstance(value, np.ndarray) else value
        for name, value in args.items()
    }


def assert_bit_identical(source, args, ndrange, kernel_name=None):
    """Run ``source`` under all three backends and compare buffer bytes.

    The jit leg goes through the ``jit`` entry point, which compiles the
    kernel when eligible and transparently runs the vector tier when the
    compile declines — either way the bytes must match the oracle.
    """
    scalar_args = _copy_args(args)
    execute_kernel(source, scalar_args, ndrange,
                   kernel_name=kernel_name, backend="scalar")
    compiled_args = {}
    for backend in ("vector", "jit"):
        compiled_args[backend] = _copy_args(args)
        execute_kernel(source, compiled_args[backend], ndrange,
                       kernel_name=kernel_name, backend=backend)
    for name, value in scalar_args.items():
        if not isinstance(value, np.ndarray):
            continue
        for backend, candidate in compiled_args.items():
            assert value.dtype == candidate[name].dtype, (backend, name)
            assert value.tobytes() == candidate[name].tobytes(), (
                f"buffer {name!r} differs between scalar and {backend}"
            )
    return scalar_args, compiled_args["vector"]


def assert_workload_bit_identical(workload, rng=0):
    return assert_bit_identical(
        workload.source, workload.full_args(rng), workload.ndrange(),
        kernel_name=workload.kernel_name,
    )


class TestRealKernels:
    def test_scaled_registry_is_complete(self):
        assert list(SCALED_REAL) == list(REAL_WORKLOAD_FACTORIES)

    def test_all_registry_kernels_eligible(self):
        for name, factory in SCALED_REAL.items():
            eligibility = check_vectorizable(factory().kernel_info())
            assert eligibility.eligible, f"{name}: {eligibility.reason}"

    @pytest.mark.parametrize("name", list(SCALED_REAL))
    def test_bit_identical(self, name):
        assert_workload_bit_identical(SCALED_REAL[name]())

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list(SCALED_REAL))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_across_seeds(self, name, seed):
        assert_workload_bit_identical(SCALED_REAL[name](), rng=seed)

    def test_fast_backends_were_actually_used(self):
        """The differential helper must exercise real compiled paths: the
        jit leg ends on the jit tier (no silent decline to vector), and
        no leg falls back mid-run."""
        execution_stats.reset()
        try:
            assert_workload_bit_identical(SCALED_REAL["GESUMMV"]())
            # the jit leg ran last, so the most recent choice is jit
            assert execution_stats.backend_for("gesummv") == "jit"
            assert ("gesummv", "vector") in execution_stats.runs
            assert ("gesummv", "jit") in execution_stats.runs
            assert not execution_stats.fallbacks
        finally:
            execution_stats.reset()


#: Throttle settings spanning full allocation, partial, and sparse.
THROTTLES = [(1, 1), (4, 2), (8, 3)]

#: Malleable-equivalence subjects: one 1-D regular, one 1-D irregular,
#: one 2-D kernel.  The full registry sweep is in the slow lane.
MALLEABLE_FAST = ["GESUMMV", "SpMV", "2DCONV"]


def _malleable_args(workload, malleable, mod, alloc, rng=0):
    args = workload.full_args(rng)
    args[MOD_PARAM] = mod
    args[ALLOC_PARAM] = alloc
    return args, malleable


def check_malleable(name, mod, alloc):
    """Transformed kernel, both backends, against the untouched original.

    The worklist transform adds a barrier and an atomic counter, so the
    jit compiler and the vectorizer must both *decline* it and fall back
    to the scalar interpreter — transparently, with identical results.
    """
    workload = SCALED_REAL[name]()
    malleable = make_malleable(workload.source, work_dim=workload.work_dim,
                               kernel_name=workload.kernel_name)
    eligibility = check_vectorizable(malleable.info)
    assert not eligibility.eligible

    baseline = _copy_args(workload.full_args(rng=0))
    execute_kernel(workload.source, baseline, workload.ndrange(),
                   kernel_name=workload.kernel_name, backend="scalar")

    for backend in ("scalar", "vector", "jit", "auto"):
        args = _copy_args(workload.full_args(rng=0))
        args[MOD_PARAM] = mod
        args[ALLOC_PARAM] = alloc
        from repro.interp import make_executor

        make_executor(malleable.info, args, workload.ndrange(),
                      backend=backend).run()
        for buf, value in baseline.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == args[buf].tobytes(), (
                    f"{name} malleable(mod={mod}, alloc={alloc}) "
                    f"backend={backend}: buffer {buf!r} differs"
                )


class TestMalleableVariants:
    @pytest.mark.parametrize("name", MALLEABLE_FAST)
    def test_throttled_matches_original(self, name):
        check_malleable(name, 4, 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", list(SCALED_REAL))
    @pytest.mark.parametrize("mod,alloc", THROTTLES)
    def test_full_registry_throttle_sweep(self, name, mod, alloc):
        check_malleable(name, mod, alloc)


#: Kernels that return early from the body.  A ``return`` inside the
#: malleable drain loop must end one work item; ending the whole PE loses
#: the work items a throttled GPU's surviving PEs still had to drain.
EARLY_RETURN = {
    "1d": ("""
__kernel void k(__global float* a, __global float* b)
{
    int i = get_global_id(0);
    if (a[i] < 0.5f) return;
    b[i] = a[i] + 1.0f;
}
""", 1, (64,), (8,)),
    "2d": ("""
__kernel void k(__global float* a, __global float* b, int w)
{
    int r = get_global_id(0);
    int c = get_global_id(1);
    if (a[r * w + c] < 0.5f) { b[r * w + c] = -1.0f; return; }
    b[r * w + c] = a[r * w + c] * 2.0f;
}
""", 2, (8, 8), (4, 4)),
}


def _early_return_args(work_dim, global_size):
    n = int(np.prod(global_size))
    a = np.random.default_rng(0).uniform(size=n).astype(np.float32)
    args = {"a": a, "b": np.zeros(n, dtype=np.float32)}
    if work_dim == 2:
        args["w"] = global_size[1]
    return args


class TestEarlyReturnThrottleGrid:
    @pytest.mark.parametrize("name", list(EARLY_RETURN))
    @pytest.mark.parametrize("mod,alloc", THROTTLES + [(2, 1), (8, 1)])
    @pytest.mark.parametrize("backend", ["scalar", "vector", "jit"])
    def test_throttled_matches_original(self, name, mod, alloc, backend):
        source, work_dim, global_size, local_size = EARLY_RETURN[name]
        ndrange = NDRange(global_size, local_size)
        baseline = _early_return_args(work_dim, global_size)
        execute_kernel(source, baseline, ndrange, backend="scalar")
        malleable = make_malleable(source, work_dim=work_dim)
        args = _early_return_args(work_dim, global_size)
        args[MOD_PARAM] = mod
        args[ALLOC_PARAM] = alloc
        make_executor(malleable.info, args, ndrange, backend=backend).run()
        assert args["b"].tobytes() == baseline["b"].tobytes()

    @pytest.mark.parametrize("mod,alloc", [(1, 1), (2, 1), (8, 3), (8, 1)])
    def test_gpu_only_run_dynamic(self, mod, alloc):
        source, work_dim, global_size, local_size = EARLY_RETURN["1d"]
        baseline = _early_return_args(work_dim, global_size)
        execute_kernel(source, baseline, NDRange(global_size, local_size),
                       backend="scalar")
        args = _early_return_args(work_dim, global_size)
        run_dynamic(analyze_kernel(parse_kernel(source)),
                    make_malleable(source, work_dim=work_dim), args,
                    NDRange(global_size, local_size),
                    DopSetting(cpu_threads=0, gpu_fraction=1.0),
                    mod, alloc, backend="scalar")
        assert args["b"].tobytes() == baseline["b"].tobytes()


# -- Table-2 synthetic sweep -------------------------------------------------

#: A pattern from each Table-2 modifier family for the fast lane.
FAST_SYNTH = ["1mat3d", "2mat3d1T", "2mat3d1C1R", "1mat4d1R"]

#: The full Table-4 pattern axis (17 names) for the nightly lane.
ALL_PATTERNS = list(TABLE4_PATTERNS)


def _synthetic_case(pattern, dim, dtype, gamma=1):
    spec = SyntheticSpec.from_pattern(pattern, gamma=gamma, dim=dim,
                                      dtype=dtype)
    return make_synthetic(spec, size=32, wg_items=16, extent=4)


class TestSyntheticSweep:
    @pytest.mark.parametrize("pattern", FAST_SYNTH)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_fast_subset(self, pattern, dim):
        assert_workload_bit_identical(_synthetic_case(pattern, dim, "float"))

    def test_integer_dtype(self):
        assert_workload_bit_identical(_synthetic_case("2mat3d", 1, "int"))

    @pytest.mark.slow
    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("dtype", ["float", "int"])
    def test_full_sweep(self, pattern, dim, dtype):
        assert_workload_bit_identical(_synthetic_case(pattern, dim, dtype))


# -- hypothesis: random parameters and launch geometries ---------------------

DIVERGENT_SRC = """
__kernel void mix(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        for (int j = 0; j <= i % 5; j++) {
            acc = acc + X[(i + j) % n];
        }
        if (X[i] > 0.0f) {
            acc = acc * a;
        } else {
            acc = acc - a;
        }
        Y[i] = acc + Y[i] + (float)(i / 3);
    }
}
"""

GRID2D_SRC = """
__kernel void grid(__global float* A, int nx, int ny, float s)
{
    int x = get_global_id(0);
    int y = get_global_id(1);
    if ((x < nx) && (y < ny)) {
        int k = y * nx + x;
        float v = A[k];
        while (v > 1.0f) {
            v = v / 2.0f;
        }
        A[k] = v * s + (float)((x + y) % 3);
    }
}
"""


class TestRandomised:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=96),
        wg=st.sampled_from([1, 2, 4, 8]),
        a=st.floats(min_value=-8.0, max_value=8.0,
                    allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_divergent_1d(self, n, wg, a, seed):
        rng = np.random.default_rng(seed)
        padded = -(-n // wg) * wg
        args = {
            "X": rng.standard_normal(padded),
            "Y": rng.standard_normal(padded),
            "a": a,
            "n": n,
        }
        assert_bit_identical(DIVERGENT_SRC, args, NDRange(padded, wg))

    @settings(max_examples=25, deadline=None)
    @given(
        gx=st.integers(min_value=1, max_value=6),
        gy=st.integers(min_value=1, max_value=6),
        s=st.floats(min_value=-4.0, max_value=4.0,
                    allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_uniform_loop_2d(self, gx, gy, s, seed):
        rng = np.random.default_rng(seed)
        nx, ny = gx * 2, gy * 2
        args = {
            "A": rng.uniform(0.0, 16.0, size=nx * ny),
            "nx": nx,
            "ny": ny,
            "s": s,
        }
        assert_bit_identical(GRID2D_SRC, args, NDRange((nx, ny), (2, 2)))
