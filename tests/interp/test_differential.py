"""Differential testing: the jit tier against the scalar oracle.

The scalar interpreter is the semantic ground truth; the jit
trace-compiler must produce **bit-identical** buffers for every kernel
it accepts.  This suite drives both backends over

* the 14 real-world registry kernels (Table 4), scaled down,
* their malleable-transformed variants at several throttle settings
  (which exercise the transparent scalar fallback — the worklist
  transform introduces barriers and atomics), and Algorithm 1's GPU
  shares, which run the original kernel on the jit in the malleable
  variant's place,
* a sweep of Table-2 synthetic kernels over pattern/dim/dtype axes,
* masked loops: data-dependent trip counts, nested lane-varying loops,
  divergent ``break``/``continue`` and early ``return``, and
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
    JitExecutor,
    KernelExecutor,
    NDRange,
    check_vectorizable,
    compile_kernel,
    execute_kernel,
    execution_stats,
    make_executor,
)
from repro.sim import DopSetting
from repro.transform import ALLOC_PARAM, MOD_PARAM, make_malleable
from repro.workloads import (
    PAGERANK_SRC,
    REAL_WORKLOAD_FACTORIES,
    SCALED_REAL_FACTORIES,
    SPMV_SRC,
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
    """Run ``source`` under the scalar oracle and the jit entry point and
    compare buffer bytes.

    The jit entry point compiles the kernel when eligible and
    transparently runs the oracle when the compile declines — either way
    the bytes must match the oracle.
    """
    scalar_args = _copy_args(args)
    execute_kernel(source, scalar_args, ndrange,
                   kernel_name=kernel_name, backend="scalar")
    jit_args = _copy_args(args)
    execute_kernel(source, jit_args, ndrange,
                   kernel_name=kernel_name, backend="jit")
    for name, value in scalar_args.items():
        if not isinstance(value, np.ndarray):
            continue
        assert value.dtype == jit_args[name].dtype, name
        assert value.tobytes() == jit_args[name].tobytes(), (
            f"buffer {name!r} differs between scalar and jit"
        )
    return scalar_args, jit_args


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

    @pytest.mark.parametrize("name", list(SCALED_REAL))
    def test_registry_kernel_compiles(self, name):
        workload = SCALED_REAL[name]()
        compile_kernel(workload.kernel_info(), workload.full_args(0),
                       workload.ndrange())

    @pytest.mark.parametrize("name", ["GESUMMV", "SpMV", "PageRank"])
    def test_jit_was_actually_used(self, name):
        """The differential helper must exercise the compiled path: the
        jit leg ends on the jit tier (no silent decline to the oracle),
        and nothing falls back mid-run."""
        workload = SCALED_REAL[name]()
        execution_stats.reset()
        try:
            assert_workload_bit_identical(workload)
            assert execution_stats.backend_for(workload.kernel_name) == "jit"
            assert (workload.kernel_name, "jit") in execution_stats.runs
            assert not execution_stats.fallbacks
        finally:
            execution_stats.reset()


#: Throttle settings spanning full allocation, partial, and sparse.
THROTTLES = [(1, 1), (4, 2), (8, 3)]

#: Malleable-equivalence subjects: one 1-D regular, one 1-D irregular,
#: one 2-D kernel, the kernels perfbench's app-coexec gives a GPU share
#: and serve-graph's FDTD chain.  The full registry sweep is in the slow
#: lane.
MALLEABLE_FAST = ["GESUMMV", "SpMV", "2DCONV", "ATAX2", "BICG1", "MVT2",
                  "FDTD1", "FDTD2", "FDTD3"]

#: GPU-only and mixed settings for Algorithm 1's GPU-share runs.
GPU_SHARES = [DopSetting(cpu_threads=0, gpu_fraction=1.0),
              DopSetting(cpu_threads=2, gpu_fraction=0.5)]


def _malleable_args(workload, malleable, mod, alloc, rng=0):
    args = workload.full_args(rng)
    args[MOD_PARAM] = mod
    args[ALLOC_PARAM] = alloc
    return args, malleable


def check_malleable(name, mod, alloc):
    """Transformed kernel, every backend name, against the untouched
    original.

    The worklist transform adds a barrier and an atomic counter, so the
    jit must *decline* it and fall back to the scalar interpreter —
    transparently, with identical results.
    """
    workload = SCALED_REAL[name]()
    malleable = make_malleable(workload.source, work_dim=workload.work_dim,
                               kernel_name=workload.kernel_name)
    eligibility = check_vectorizable(malleable.info)
    assert not eligibility.eligible

    baseline = _copy_args(workload.full_args(rng=0))
    execute_kernel(workload.source, baseline, workload.ndrange(),
                   kernel_name=workload.kernel_name, backend="scalar")

    for backend in ("scalar", "jit", "auto"):
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


class TestGpuShares:
    """The licence for running GPU shares on the original kernel.

    The modelled GPU runs the malleable variant at the chosen throttle;
    the host runs each GPU chunk on one compiled executor of the original
    kernel instead.  That is sound exactly when the variant, run on the
    oracle, writes the original's bytes — so every registry kernel, at
    every throttle, must produce one set of bytes three ways, and the
    schedule must not touch the oracle.
    """

    @pytest.mark.parametrize("name", list(SCALED_REAL))
    @pytest.mark.parametrize("mod,alloc", THROTTLES)
    def test_run_dynamic_matches_oracle_and_variant(self, name, mod, alloc):
        workload = SCALED_REAL[name]()
        info = workload.kernel_info()
        ndrange = workload.ndrange()
        malleable = make_malleable(info, work_dim=workload.work_dim)
        original = _copy_args(workload.full_args(rng=0))
        KernelExecutor(info, original, ndrange).run()
        variant = _copy_args(workload.full_args(rng=0))
        variant[MOD_PARAM] = mod
        variant[ALLOC_PARAM] = alloc
        KernelExecutor(malleable.info, variant, ndrange).run()
        for setting in GPU_SHARES:
            actual = _copy_args(workload.full_args(rng=0))
            execution_stats.reset()
            try:
                trace = run_dynamic(info, malleable, actual, ndrange, setting,
                                    mod, alloc, backend="jit")
                tiers = {backend for _, backend in execution_stats.runs}
                fallbacks = dict(execution_stats.fallbacks)
            finally:
                execution_stats.reset()
            assert trace.gpu_chunks > 0, setting
            assert tiers == {"jit"} and not fallbacks, (setting, tiers,
                                                        fallbacks)
            for buf, value in original.items():
                if isinstance(value, np.ndarray):
                    assert actual[buf].tobytes() == value.tobytes(), (
                        f"{name} {setting}: {buf!r} differs from the oracle")
                    assert actual[buf].tobytes() == variant[buf].tobytes(), (
                        f"{name} {setting}: {buf!r} differs from the "
                        f"malleable variant at mod={mod}, alloc={alloc}")


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
    @pytest.mark.parametrize("backend", ["scalar", "jit"])
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
        """GPU-only Algorithm 1 and the malleable variant it stands in
        for, each on the oracle, against the untouched launch."""
        source, work_dim, global_size, local_size = EARLY_RETURN["1d"]
        ndrange = NDRange(global_size, local_size)
        baseline = _early_return_args(work_dim, global_size)
        execute_kernel(source, baseline, ndrange, backend="scalar")
        malleable = make_malleable(source, work_dim=work_dim)
        args = _early_return_args(work_dim, global_size)
        run_dynamic(analyze_kernel(parse_kernel(source)), malleable, args,
                    ndrange, DopSetting(cpu_threads=0, gpu_fraction=1.0),
                    mod, alloc, backend="scalar")
        assert args["b"].tobytes() == baseline["b"].tobytes()
        variant = _early_return_args(work_dim, global_size)
        variant[MOD_PARAM] = mod
        variant[ALLOC_PARAM] = alloc
        KernelExecutor(malleable.info, variant, ndrange).run()
        assert variant["b"].tobytes() == baseline["b"].tobytes()


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


# -- cold-build geometry: tiny launches, deep loop nests ---------------------

#: Table-2 slots at the geometry of a cold build's first launches (16
#: work-items in 16-item work-groups, the default extent): few work-items,
#: each running a 3-D or 4-D loop nest, which ``auto`` now compiles.
BUILD_COLD_SLOTS = [("1mat4d", 1), ("1mat4d1R", 1), ("2mat3d1T", 2)]

SAXPY_SRC = """
__kernel void saxpy(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) Y[i] = a * X[i] + Y[i];
}
"""


class TestBuildColdGeometry:
    @pytest.mark.parametrize("pattern,dim", BUILD_COLD_SLOTS)
    def test_table2_slot(self, pattern, dim):
        spec = SyntheticSpec.from_pattern(pattern, dim=dim)
        workload = make_synthetic(spec, size=16, wg_items=16)
        assert_workload_bit_identical(workload)
        assert execution_stats.backend_for(workload.kernel_name) == "jit"

    @pytest.mark.parametrize("n", [1, 17])
    def test_ragged_saxpy(self, n):
        rng = np.random.default_rng(n)
        args = {"X": rng.standard_normal(n).astype(np.float32),
                "Y": rng.standard_normal(n).astype(np.float32),
                "a": 1.5, "n": n}
        assert_bit_identical(SAXPY_SRC, args, NDRange(n, 1))


# -- masked loops: lane-varying trip counts, divergent jumps ------------------

def _csr_args(n, rng, padded):
    """CSR buffers with ragged rows, every third row empty."""
    counts = rng.integers(1, 6, size=n)
    counts[::3] = 0
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    nnz = int(rowptr[-1])
    return {
        "rowptr": rowptr,
        "colidx": rng.integers(0, n, size=max(nnz, 1)),
        "vals": rng.uniform(-1.0, 1.0, size=max(nnz, 1)),
        "x": rng.uniform(-1.0, 1.0, size=n),
        "y": np.zeros(padded),
        "n": n,
    }


def _pagerank_args(n, rng, padded):
    csr = _csr_args(n, rng, padded)
    return {
        "rowptr": csr["rowptr"], "colidx": csr["colidx"],
        "rank": rng.uniform(0.0, 1.0, size=n),
        "new_rank": np.zeros(padded),
        "inv_outdeg": rng.uniform(0.1, 1.0, size=n),
        "damping": 0.85, "n": n,
    }


NESTED_SRC = """
__kernel void nested(__global int* counts, __global float* out, int n)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        for (int a = 0; a < counts[i]; a++) {
            int b = a;
            while (b > i % 3) {
                acc = acc + (float)(a * b);
                b--;
            }
        }
        out[i] = acc;
    }
}
"""

JUMPS_SRC = """
__kernel void jumps(__global float* A, __global float* out, int n, int m)
{
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        int j;
        for (j = 0; j < m; j++) {
            float v = A[i * m + j];
            if (v < -1.0f) break;
            if (v > 1.0f) continue;
            acc = acc + v;
        }
        int k = 0;
        do {
            k++;
            if (A[i * m + k % m] > 0.5f) continue;
            acc = acc * 0.5f;
        } while (k < i % 4);
        out[i] = acc + (float)j + (float)k;
    }
}
"""

EARLY_RETURN_SRC = """
__kernel void early(__global float* A, __global float* out, int n)
{
    int i = get_global_id(0);
    if (i >= n) return;
    if (A[i] < 0.0f) { out[i] = -1.0f; return; }
    float v = A[i];
    int k = 0;
    while (v > 0.25f) {
        v = v / 2.0f;
        k++;
    }
    if (k % 2 == 1) return;
    out[i] = v + (float)k;
}
"""


#: Loops that only a divergent ``return`` ends: each enclosing loop must
#: run masked, or it keeps iterating after every lane has returned.
SEARCH_FOR_SRC = """
__kernel void search_for(__global int* idx, __global float* out, int n)
{
    int i = get_global_id(0);
    if (i >= n) return;
    for (int k = 0; ; k++) {
        if (k == idx[i]) { out[i] = (float)k; return; }
    }
}
"""

SEARCH_WHILE_SRC = """
__kernel void search_while(__global int* idx, __global float* out, int n)
{
    int i = get_global_id(0);
    int k = 0;
    while (1) {
        k++;
        for (int j = 0; j < 3; j++) {
            if (k * k + j > idx[i]) { out[i] = (float)(k + j); return; }
        }
    }
}
"""


def _search_args(n, rng, padded):
    return {"idx": rng.integers(0, 40, size=padded),
            "out": np.zeros(padded), "n": n}


def _nested_args(n, rng, padded):
    return {"counts": rng.integers(0, 6, size=padded),
            "out": np.zeros(padded), "n": n}


def _jumps_args(n, rng, padded, m=7):
    return {"A": rng.standard_normal(padded * m) * 1.5,
            "out": np.zeros(padded), "n": n, "m": m}


def _early_args(n, rng, padded):
    return {"A": rng.standard_normal(padded) * 4.0,
            "out": np.zeros(padded), "n": n}


#: name -> (source, kernel name, args builder(n, rng, padded size)).
MASKED_LOOPS = {
    "spmv": (SPMV_SRC, "spmv_csr", _csr_args),
    "pagerank": (PAGERANK_SRC, "pagerank_step", _pagerank_args),
    "nested": (NESTED_SRC, "nested", _nested_args),
    "break_continue": (JUMPS_SRC, "jumps", _jumps_args),
    "early_return": (EARLY_RETURN_SRC, "early", _early_args),
    "return_in_for": (SEARCH_FOR_SRC, "search_for", _search_args),
    "return_in_while": (SEARCH_WHILE_SRC, "search_while", _search_args),
}

#: The malleable transform refuses a return inside a loop (it cannot be
#: confined to one item of its item loop), so those have no throttle grid.
THROTTLED_MASKED_LOOPS = [name for name in MASKED_LOOPS
                          if not name.startswith("return_in_")]


class TestMaskedLoops:
    """Lane-varying loops compile to masked loops — never a decline —
    and match the oracle byte for byte."""

    @staticmethod
    def _case(name, n, wg, seed=0):
        source, kernel, build = MASKED_LOOPS[name]
        padded = -(-n // wg) * wg
        args = build(n, np.random.default_rng(seed), padded)
        return source, kernel, args, NDRange(padded, wg)

    @pytest.mark.parametrize("name", list(MASKED_LOOPS))
    @pytest.mark.parametrize("n,wg", [(32, 8), (37, 8), (5, 4)])
    def test_ragged_launch(self, name, n, wg):
        source, kernel, args, ndrange = self._case(name, n, wg)
        info = analyze_kernel(parse_kernel(source))
        assert compile_kernel(info, args, ndrange).masked
        execution_stats.reset()
        try:
            assert_bit_identical(source, args, ndrange)
            assert execution_stats.backend_for(kernel) == "jit"
            assert not execution_stats.fallbacks
        finally:
            execution_stats.reset()

    @pytest.mark.parametrize("name", list(MASKED_LOOPS))
    def test_group_subsets(self, name):
        """The scheduler runs a launch as chunks of work-groups."""
        source, _kernel, args, ndrange = self._case(name, 45, 4, seed=1)
        info = analyze_kernel(parse_kernel(source))
        expected = _copy_args(args)
        KernelExecutor(info, expected, ndrange).run()
        actual = _copy_args(args)
        executor = make_executor(info, actual, ndrange, backend="jit")
        assert isinstance(executor, JitExecutor)
        groups = list(ndrange.group_ids())
        for start in range(0, len(groups), 5):
            executor.run(groups[start:start + 5])
        assert not executor.used_fallback
        for buf, value in expected.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == actual[buf].tobytes(), buf

    @pytest.mark.parametrize("name", THROTTLED_MASKED_LOOPS)
    @pytest.mark.parametrize("mod,alloc", THROTTLES)
    def test_throttle_grid(self, name, mod, alloc):
        """Over the throttle grid, Algorithm 1 on the jit and the
        malleable variant on the oracle each match the oracle's untouched
        launch."""
        source, _kernel, args, ndrange = self._case(name, 37, 4, seed=2)
        info = analyze_kernel(parse_kernel(source))
        expected = _copy_args(args)
        KernelExecutor(info, expected, ndrange).run()
        malleable = make_malleable(source, work_dim=1)
        actual = _copy_args(args)
        run_dynamic(info, malleable, actual,
                    ndrange, DopSetting(cpu_threads=2, gpu_fraction=0.5),
                    mod, alloc, backend="jit")
        variant = _copy_args(args)
        variant[MOD_PARAM] = mod
        variant[ALLOC_PARAM] = alloc
        KernelExecutor(malleable.info, variant, ndrange).run()
        for buf, value in expected.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == actual[buf].tobytes(), buf
                assert value.tobytes() == variant[buf].tobytes(), buf


#: ``c`` turns lane-valued at its first store, but the branch reads it
#: before: a promoted variable must already be a lane array there, or the
#: uniform first read makes the else mask ``~True`` (the int -2), and the
#: scatter under it writes a lane the oracle never stores.
PROMOTED_SRC = """
__kernel void promoted(__global float* A, __global float* out,
                       __global float* out2, int m)
{
    int i = get_global_id(0);
    float c = 0.0f;
    for (int j = 0; j < m; j++) {
        if (c == 0.0f) { out[i] = 1.0f; } else { out2[i] = A[i]; }
        c = c + A[i * m + j];
    }
}
"""


@pytest.mark.parametrize("m", [1, 3])
def test_promoted_variable_read_before_its_first_lane_store(m):
    rng = np.random.default_rng(0)
    args = {"A": rng.standard_normal(8 * m), "out": np.zeros(8),
            "out2": np.zeros(8), "m": m}
    execution_stats.reset()
    try:
        assert_bit_identical(PROMOTED_SRC, args, NDRange(8, 4))
        assert execution_stats.backend_for("promoted") == "jit"
        assert not execution_stats.fallbacks
    finally:
        execution_stats.reset()


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
