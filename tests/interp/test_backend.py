"""Unit tests for backend selection and the jit tier's oracle parity.

The end-to-end bit-identity evidence lives in ``test_differential``;
this file pins down the pieces: the eligibility pass, backend
resolution, the transparent runtime fallback to the oracle, and the
execution-stats counters.
"""

import numpy as np
import pytest

from repro.frontend import analyze_kernel, parse
from repro.interp import (
    JitExecutor,
    KernelExecutor,
    KernelRuntimeError,
    NDRange,
    check_vectorizable,
    compile_cached,
    execution_stats,
    make_executor,
    resolve_backend,
)
from repro.interp.stats import ExecutionStats

SAXPY = """
__kernel void saxpy(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) Y[i] = a * X[i] + Y[i];
}
"""


def info_of(source):
    unit = parse(source)
    return analyze_kernel(unit.kernels()[0], unit)


def saxpy_args(n=128):
    rng = np.random.default_rng(7)
    return {"X": rng.standard_normal(n), "Y": rng.standard_normal(n),
            "a": 2.5, "n": n}


class TestEligibility:
    def test_plain_kernel_eligible(self):
        assert check_vectorizable(info_of(SAXPY)).eligible

    @pytest.mark.parametrize("body,needle", [
        ("barrier(1); A[get_global_id(0)] = 1.0f;", "barrier"),
        ("atomic_inc(&A[0]);", "atomic"),
        ("__local float tile[4]; A[0] = 1.0f;", "tile"),
        ("float scratch[4]; scratch[0] = 1.0f; A[0] = scratch[0];",
         "private array"),
        ("__global float* p = A; *p = 1.0f;", "pointer"),
        ("*(A + 1) = 1.0f;", "pointer indirection"),
    ])
    def test_rejections(self, body, needle):
        source = "__kernel void f(__global float* A) { %s }" % body
        eligibility = check_vectorizable(info_of(source))
        assert not eligibility.eligible
        assert needle in eligibility.reason

    def test_pointer_reassignment_in_helper_rejected(self):
        source = """
        float head(__global float* p) { p = p + 1; return p[0]; }
        __kernel void f(__global float* A) { A[0] = head(A); }
        """
        eligibility = check_vectorizable(info_of(source))
        assert not eligibility.eligible
        assert "helper" in eligibility.reason

    def test_result_is_memoized(self):
        info = info_of(SAXPY)
        assert check_vectorizable(info) is check_vectorizable(info)


class TestBackendResolution:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("DOPIA_BACKEND", raising=False)
        assert resolve_backend() == "auto"

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv("DOPIA_BACKEND", "scalar")
        assert resolve_backend() == "scalar"

    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv("DOPIA_BACKEND", "scalar")
        assert resolve_backend("jit") == "jit"

    @pytest.mark.parametrize("name", ["simd", "vector"])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name)

    def test_scalar_forced(self):
        executor = make_executor(info_of(SAXPY), saxpy_args(), NDRange(128, 32),
                                 backend="scalar")
        assert isinstance(executor, KernelExecutor)

    @pytest.mark.parametrize("n", [1, 16, 17])
    def test_auto_compiles_any_launch_size(self, n):
        # The tier follows the kernel, not the launch size: a launch of a
        # few work-items can still run a deep loop nest per item.
        executor = make_executor(info_of(SAXPY), saxpy_args(n), NDRange(n, 1),
                                 backend="auto")
        assert isinstance(executor, JitExecutor)

    def test_jit_backend_for_eligible(self):
        executor = make_executor(info_of(SAXPY), saxpy_args(), NDRange(128, 32),
                                 backend="jit")
        assert isinstance(executor, JitExecutor)

    def test_lane_varying_loop_compiles(self):
        source = """
        __kernel void lanes(__global float* A)
        {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int j = 0; j < i; j++) acc = acc + A[j];
            A[i] = acc;
        }
        """
        executor = make_executor(info_of(source), {"A": np.zeros(128)},
                                 NDRange(128, 32), backend="jit")
        assert isinstance(executor, JitExecutor)
        assert executor.compiled.masked

    def test_jit_declines_to_scalar(self):
        # Helper-function calls are outside the jit subset: the launch
        # runs on the oracle, and the decline says why and where.
        source = (
            "float twice(float x) { return 2.0f * x; }\n"
            "__kernel void helped(__global float* A)\n"
            "{\n"
            "    int i = get_global_id(0);\n"
            "    A[i] = twice(A[i]);\n"
            "}\n"
        )
        execution_stats.reset()
        try:
            executor = make_executor(
                info_of(source), {"A": np.ones(128)}, NDRange(128, 32),
                backend="jit")
            assert isinstance(executor, KernelExecutor)
            assert execution_stats.backend_for("helped") == "scalar"
            assert execution_stats.fallback_count("helped") == 1
            reason = execution_stats.fallback_reasons["helped"]
            assert "helper function 'twice'" in reason
            assert execution_stats.fallback_locations["helped"] \
                .startswith("5:")
        finally:
            execution_stats.reset()

    def test_ineligible_runs_scalar_under_jit(self):
        source = ("__kernel void f(__global int* C)"
                  "{ atomic_inc(&C[0]); }")
        executor = make_executor(info_of(source), {"C": np.zeros(1, np.int64)},
                                 NDRange(128, 32), backend="jit")
        assert isinstance(executor, KernelExecutor)


class TestRuntimeFallback:
    def test_fallback_restores_buffers_and_reruns_scalar(self):
        """A mid-run bail-out must leave no trace of partial stores."""
        info = info_of(SAXPY)
        args = saxpy_args()
        expected = args["a"] * args["X"] + args["Y"]
        compiled = compile_cached(info, args, NDRange(128, 32))
        executor = JitExecutor(info, args, NDRange(128, 32), compiled)

        def sabotaged(rt, np_, n, X, Y, *ids):
            # Mutate an output first so the snapshot restore is load-
            # bearing, then bail as a tripped runtime guard would.
            Y[...] = -1.0
            raise rt.JitRuntimeGuard("synthetic trip")

        executor.compiled = type(compiled)(**{**compiled.__dict__,
                                              "fn": sabotaged})
        execution_stats.reset()
        try:
            executor.run()
            assert executor.used_fallback
            assert execution_stats.fallbacks.get("saxpy") == 1
            assert ("saxpy", "scalar") in execution_stats.runs
        finally:
            execution_stats.reset()
        np.testing.assert_array_equal(args["Y"], expected)

    def test_genuine_kernel_error_propagates(self):
        """Out-of-bounds is a kernel bug, not a jit gap — the oracle re-run
        must surface it identically instead of swallowing it."""
        source = ("__kernel void f(__global float* A)"
                  "{ A[get_global_id(0) + 1] = 1.0f; }")
        executor = make_executor(info_of(source), {"A": np.zeros(4)},
                                 NDRange(4, 4), backend="jit")
        assert isinstance(executor, JitExecutor)
        with pytest.raises(KernelRuntimeError, match="out-of-bounds"):
            executor.run()
        assert executor.used_fallback


def run_on_both_backends(source, make_args, ndrange):
    """Run a kernel on the oracle and on the jit entry point; return
    (jit_args, scalar_args, jit_exc, scalar_exc, jit_executor) for
    parity assertions."""
    unit = parse(source)
    info = analyze_kernel(unit.kernels()[0], unit)
    jit_args, ref_args = make_args(), make_args()
    scalar_exc = jit_exc = None
    try:
        KernelExecutor(info, ref_args, ndrange).run()
    except Exception as exc:  # noqa: BLE001 - parity includes the crash
        scalar_exc = exc
    executor = make_executor(info, jit_args, ndrange, backend="jit")
    try:
        executor.run()
    except Exception as exc:  # noqa: BLE001
        jit_exc = exc
    return jit_args, ref_args, jit_exc, scalar_exc, executor


def stayed_on_jit(executor):
    return isinstance(executor, JitExecutor) and not executor.used_fallback


class TestOracleParity:
    """Regression tests for divergences between the backends: each case
    must match the scalar oracle bit-for-bit, including which exception
    is raised and the buffer state left behind by a crash."""

    N = 128

    def test_masked_lanes_never_evaluate_math(self):
        """log() under a guard must not raise for the guarded-out lanes —
        and the kernel must stay on the jit, not fall back."""
        source = """
        __kernel void guarded_log(__global float* A, __global float* out)
        {
            int i = get_global_id(0);
            float x = A[i];
            if (x > 0.0f) out[i] = log(x);
        }
        """
        make = lambda: {"A": np.linspace(-2, 2, self.N), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert jexc is None and sexc is None
        assert stayed_on_jit(executor)
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_masked_lanes_never_overflow_exp(self):
        source = """
        __kernel void guarded_exp(__global float* A, __global float* out)
        {
            int i = get_global_id(0);
            float x = A[i];
            if (x < 100.0f) out[i] = exp(x);
        }
        """
        huge = np.where(np.arange(self.N) % 2 == 0, 1.5, 800.0)
        make = lambda: {"A": huge.copy(), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert jexc is None and sexc is None
        assert stayed_on_jit(executor)
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_active_lane_domain_error_matches_oracle(self):
        """An *unguarded* log of a negative is a kernel bug: both backends
        must raise the same error and leave the same partial stores."""
        source = """
        __kernel void bad_log(__global float* A, __global float* out)
        {
            int i = get_global_id(0);
            out[i] = log(A[i]);
        }
        """
        make = lambda: {"A": np.linspace(-2, 2, self.N), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert type(jexc) is type(sexc) is ValueError
        assert executor.used_fallback
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_native_math_domain_error_matches_oracle(self):
        """np.sqrt would silently yield NaN where math.sqrt raises."""
        source = """
        __kernel void bad_sqrt(__global float* A, __global float* out)
        {
            int i = get_global_id(0);
            out[i] = sqrt(A[i]);
        }
        """
        make = lambda: {"A": np.linspace(-2, 2, self.N), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert type(jexc) is type(sexc) is ValueError
        assert executor.used_fallback
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_mixed_type_ternary_matches_oracle(self):
        """np.where would promote the int branch to float64; the oracle
        divides the int lanes with C truncation instead, so the jit
        declines the kernel."""
        source = """
        __kernel void tern(__global int* A, __global float* out)
        {
            int i = get_global_id(0);
            out[i] = (A[i] > 0 ? 5 : 4.0f) / 2;
        }
        """
        flip = np.array([1, -1] * (self.N // 2), np.int64)
        make = lambda: {"A": flip.copy(), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert jexc is None and sexc is None
        assert isinstance(executor, KernelExecutor)
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_divergent_unbound_read_matches_oracle(self):
        """Reading a variable only bound in the *other* branch is a kernel
        bug the oracle reports; it must not be masked by a zero default."""
        source = """
        __kernel void unbound(__global float* A, __global float* out)
        {
            int i = get_global_id(0);
            if (A[i] > 0.0f) { float t = A[i]; out[i] = t; }
            else { out[i] = t; }
        }
        """
        make = lambda: {"A": np.linspace(-2, 2, self.N), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, _ = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert type(jexc) is type(sexc) is KernelRuntimeError
        assert "unbound identifier" in str(jexc)
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_divergent_decl_stays_on_jit(self):
        """The bread-and-butter guard pattern must not pay the fallback."""
        source = """
        __kernel void guarded(__global float* A, __global float* out, int n)
        {
            int i = get_global_id(0);
            if (i < n) { float x = A[i]; out[i] = x * 2.0f; }
        }
        """
        make = lambda: {"A": np.linspace(-2, 2, self.N),
                        "out": np.zeros(self.N), "n": self.N - 28}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert jexc is None and sexc is None
        assert stayed_on_jit(executor)
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_oversized_shift_matches_oracle(self):
        """Shifts >= 64 are undefined for int64 lanes; the oracle computes
        them exactly (and overflows at the truncating store)."""
        source = """
        __kernel void shifty(__global int* A, __global int* out)
        {
            int i = get_global_id(0);
            int s = A[i] + 60;
            out[i] = (1 << s) / 2;
        }
        """
        make = lambda: {"A": np.arange(self.N, dtype=np.int64) % 8,
                        "out": np.zeros(self.N, np.int64)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert type(jexc) is type(sexc)
        assert executor.used_fallback
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_uniform_math_domain_error_matches_oracle(self):
        """Domain errors on a *uniform* (non-array) argument also revert."""
        source = """
        __kernel void uniform_log(__global float* out, float v)
        {
            int i = get_global_id(0);
            out[i] = log(v - 2.0f);
        }
        """
        make = lambda: {"out": np.zeros(self.N), "v": 1.0}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert type(jexc) is type(sexc) is ValueError
        assert executor.used_fallback
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_mixed_type_helper_returns_match_oracle(self):
        """Helper functions run on the oracle, divergent mixed-kind
        returns included."""
        source = """
        float pick(float x) { if (x > 0.0f) return 3; return 0.5f; }
        __kernel void ret(__global float* A, __global float* out)
        {
            int i = get_global_id(0);
            out[i] = pick(A[i]) / 2;
        }
        """
        make = lambda: {"A": np.linspace(-2, 2, self.N), "out": np.zeros(self.N)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert jexc is None and sexc is None
        assert isinstance(executor, KernelExecutor)
        np.testing.assert_array_equal(jit["out"], ref["out"])

    def test_in_range_shift_stays_on_jit(self):
        source = """
        __kernel void shifty2(__global int* A, __global int* out)
        {
            int i = get_global_id(0);
            out[i] = (A[i] << 3) >> 1;
        }
        """
        make = lambda: {"A": np.arange(self.N, dtype=np.int64),
                        "out": np.zeros(self.N, np.int64)}
        jit, ref, jexc, sexc, executor = run_on_both_backends(
            source, make, NDRange(self.N, 32))
        assert jexc is None and sexc is None
        assert stayed_on_jit(executor)
        np.testing.assert_array_equal(jit["out"], ref["out"])


class TestExecutionStats:
    def test_run_records_and_speedup(self):
        stats = ExecutionStats()
        stats.record_choice("k", "jit", "compiled")
        stats.record_run("k", "scalar", 1000, 2.0)
        stats.record_run("k", "jit", 1000, 0.1)
        assert stats.backend_for("k") == "jit"
        assert stats.speedup("k") == pytest.approx(20.0)
        assert stats.total_calls() == 2

    def test_speedup_needs_both_backends(self):
        stats = ExecutionStats()
        stats.record_run("k", "jit", 100, 0.5)
        assert stats.speedup("k") is None

    def test_summary_mentions_kernels_and_fallbacks(self):
        stats = ExecutionStats()
        stats.record_choice("k", "jit", "compiled")
        stats.record_run("k", "jit", 100, 0.5)
        stats.record_fallback("k", "synthetic trip")
        text = stats.summary()
        assert "k" in text and "jit-fallbacks=1" in text

    def test_global_stats_capture_launches(self):
        execution_stats.reset()
        try:
            make_executor(info_of(SAXPY), saxpy_args(), NDRange(128, 32),
                          backend="jit").run()
            assert execution_stats.backend_for("saxpy") == "jit"
            assert execution_stats.total_calls() == 1
        finally:
            execution_stats.reset()

    def test_reset_clears_everything(self):
        stats = ExecutionStats()
        stats.record_run("k", "jit", 100, 0.5)
        stats.record_fallback("k", "why")
        stats.reset()
        assert stats.total_calls() == 0
        assert not stats.fallbacks
        assert stats.kernels() == []
