"""Unit tests for the functional kernel interpreter."""

import numpy as np
import pytest

from repro.interp import KernelRuntimeError, NDRange, execute_kernel
from repro.interp.builtins import c_div, c_mod


class TestCSemantics:
    def test_division_truncates_toward_zero(self):
        assert c_div(7, 2) == 3
        assert c_div(-7, 2) == -3
        assert c_div(7, -2) == -3

    def test_modulo_has_dividend_sign(self):
        assert c_mod(7, 3) == 1
        assert c_mod(-7, 3) == -1

    def test_float_division_is_exact(self):
        assert c_div(7.0, 2.0) == 3.5


class TestBasicExecution:
    def test_vector_add(self):
        a = np.arange(32, dtype=np.float64)
        b = np.full(32, 2.0)
        c = np.zeros(32)
        execute_kernel(
            "__kernel void f(__global float* A, __global float* B,"
            "                __global float* C, int n)"
            "{ int i = get_global_id(0); if (i < n) C[i] = A[i] + B[i]; }",
            {"A": a, "B": b, "C": c, "n": 32},
            NDRange(32, 8),
        )
        assert np.allclose(c, a + b)

    def test_guard_prevents_out_of_range(self):
        a = np.zeros(8)
        execute_kernel(
            "__kernel void f(__global float* A, int n)"
            "{ int i = get_global_id(0); if (i < n) A[i] = 1.0f; }",
            {"A": a, "n": 5},
            NDRange(8, 4),
        )
        assert a.sum() == 5.0

    def test_loop_accumulation(self):
        out = np.zeros(4)
        execute_kernel(
            "__kernel void f(__global float* O, int m)"
            "{ int i = get_global_id(0); float s = 0.0f;"
            "  for (int j = 0; j < m; j++) s = s + j;"
            "  O[i] = s; }",
            {"O": out, "m": 5},
            NDRange(4, 2),
        )
        assert np.all(out == 10.0)

    def test_break_and_continue(self):
        out = np.zeros(1)
        execute_kernel(
            "__kernel void f(__global float* O, int m)"
            "{ float s = 0.0f;"
            "  for (int j = 0; j < m; j++) {"
            "    if (j == 2) continue;"
            "    if (j == 5) break;"
            "    s = s + 1.0f; }"
            "  O[0] = s; }",
            {"O": out, "m": 100},
            NDRange(1, 1),
        )
        assert out[0] == 4.0  # j in {0,1,3,4}

    def test_return_ends_work_item(self):
        out = np.zeros(4)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ int i = get_global_id(0);"
            "  if (i > 1) return;"
            "  O[i] = 1.0f; }",
            {"O": out},
            NDRange(4, 4),
        )
        assert list(out) == [1.0, 1.0, 0.0, 0.0]

    def test_while_and_do_while(self):
        out = np.zeros(2)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ int i = 0; while (i < 3) i++;"
            "  int j = 0; do { j++; } while (j < 5);"
            "  O[0] = i; O[1] = j; }",
            {"O": out},
            NDRange(1, 1),
        )
        assert list(out) == [3.0, 5.0]

    def test_ternary_and_builtins(self):
        out = np.zeros(4)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ int i = get_global_id(0);"
            "  O[i] = (i % 2 == 0) ? sqrt(4.0f) : fmax(1.0f, 7.0f); }",
            {"O": out},
            NDRange(4, 2),
        )
        assert list(out) == [2.0, 7.0, 2.0, 7.0]

    def test_int_truncation_on_store(self):
        out = np.zeros(1)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ int x = 7 / 2; O[0] = x; }",
            {"O": out},
            NDRange(1, 1),
        )
        assert out[0] == 3.0


class TestWorkItemFunctions:
    def test_global_local_group_id_relationship(self):
        n, wg = 64, 16
        gids = np.zeros(n)
        lids = np.zeros(n)
        grps = np.zeros(n)
        execute_kernel(
            "__kernel void f(__global float* G, __global float* L, __global float* W)"
            "{ int i = get_global_id(0);"
            "  G[i] = get_global_id(0); L[i] = get_local_id(0); W[i] = get_group_id(0); }",
            {"G": gids, "L": lids, "W": grps},
            NDRange(n, wg),
        )
        for i in range(n):
            assert gids[i] == i
            assert lids[i] == i % wg
            assert grps[i] == i // wg

    def test_global_offset(self):
        out = np.zeros(32)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ O[get_global_id(0)] = 1.0f; }",
            {"O": out},
            NDRange(8, 8, offset=(16,)),
        )
        assert out[16:24].sum() == 8.0
        assert out.sum() == 8.0

    def test_sizes_and_num_groups(self):
        out = np.zeros(4)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ O[0] = get_global_size(0); O[1] = get_local_size(0);"
            "  O[2] = get_num_groups(0); O[3] = get_work_dim(); }",
            {"O": out},
            NDRange(32, 8),
        )
        assert list(out) == [32.0, 8.0, 4.0, 1.0]

    def test_2d_ids(self):
        out = np.zeros(8 * 4)
        execute_kernel(
            "__kernel void f(__global float* O, int w)"
            "{ int x = get_global_id(0); int y = get_global_id(1);"
            "  O[y * w + x] = x * 100 + y; }",
            {"O": out, "w": 8},
            NDRange((8, 4), (4, 2)),
        )
        for y in range(4):
            for x in range(8):
                assert out[y * 8 + x] == x * 100 + y


class TestSynchronisation:
    def test_barrier_with_local_memory(self):
        # work-item 0 seeds local memory; others read it after the barrier
        out = np.zeros(16)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ __local int s[1];"
            "  if (get_local_id(0) == 0) s[0] = get_group_id(0) + 7;"
            "  barrier(1);"
            "  O[get_global_id(0)] = s[0]; }",
            {"O": out},
            NDRange(16, 8),
        )
        assert np.all(out[:8] == 7.0)
        assert np.all(out[8:] == 8.0)

    def test_atomic_inc_counts_all_items(self):
        counter = np.zeros(1, dtype=np.int64)
        execute_kernel(
            "__kernel void f(__global int* C)"
            "{ atomic_inc(C); }",
            {"C": counter},
            NDRange(64, 16),
        )
        assert counter[0] == 64

    def test_atomic_add_and_max(self):
        cell = np.zeros(2, dtype=np.int64)
        execute_kernel(
            "__kernel void f(__global int* C)"
            "{ int i = get_global_id(0);"
            "  atomic_add(C, 2); atomic_max(&C[1], i); }",
            {"C": cell},
            NDRange(8, 4),
        )
        assert cell[0] == 16
        assert cell[1] == 7

    def test_divergent_barrier_detected(self):
        with pytest.raises(KernelRuntimeError):
            execute_kernel(
                "__kernel void f(__global float* O)"
                "{ if (get_local_id(0) == 0) barrier(1); O[0] = 1.0f; }",
                {"O": np.zeros(1)},
                NDRange(4, 4),
            )


class TestErrors:
    def test_out_of_bounds_raises(self):
        with pytest.raises(KernelRuntimeError):
            execute_kernel(
                "__kernel void f(__global float* A)"
                "{ A[99] = 1.0f; }",
                {"A": np.zeros(4)},
                NDRange(1, 1),
            )

    def test_missing_argument_raises(self):
        with pytest.raises(KernelRuntimeError):
            execute_kernel(
                "__kernel void f(__global float* A, int n) { }",
                {"A": np.zeros(4)},
                NDRange(1, 1),
            )

    def test_scalar_passed_for_buffer_raises(self):
        with pytest.raises(KernelRuntimeError):
            execute_kernel(
                "__kernel void f(__global float* A) { A[0] = 1.0f; }",
                {"A": 3.0},
                NDRange(1, 1),
            )


class TestNDRange:
    def test_local_must_divide_global(self):
        with pytest.raises(ValueError):
            NDRange(10, 3)

    def test_linearisation_roundtrip(self):
        nd = NDRange((8, 4), (2, 2))
        for linear in range(nd.total_groups):
            assert nd.linear_group_id(nd.group_from_linear(linear)) == linear

    def test_local_ids_dimension0_fastest(self):
        nd = NDRange((4, 4), (2, 2))
        ids = list(nd.local_ids())
        assert ids[0] == (0, 0)
        assert ids[1] == (1, 0)

    def test_group_subset_execution(self):
        out = np.zeros(32)
        execute_kernel(
            "__kernel void f(__global float* O)"
            "{ O[get_global_id(0)] = 1.0f; }",
            {"O": out},
            NDRange(32, 8),
            group_ids=[(1,), (3,)],
        )
        assert out[8:16].sum() == 8 and out[24:32].sum() == 8
        assert out.sum() == 16


class TestPointerBounds:
    """Pointer arithmetic forms unchecked refs (as C allows); *using* an
    out-of-range ref — load, store, or atomic — is a kernel error rather
    than NumPy's silent negative-index wraparound."""

    def test_pointer_offset_deref(self):
        args = {"A": np.zeros(8), "S": np.zeros(2), "n": 8}
        execute_kernel(
            """
            __kernel void f(__global float* A, __global float* S, int n)
            {
                __global float* p = A + 2;
                *p = 7.0f;
                __global float* q = A + 5;
                S[0] = (float)(q - p);
            }
            """,
            args,
            NDRange(1, 1),
        )
        assert args["A"][2] == 7.0
        assert args["S"][0] == 3.0

    def test_store_past_end_raises(self):
        with pytest.raises(KernelRuntimeError, match="out-of-bounds pointer"):
            execute_kernel(
                "__kernel void f(__global float* A, int n)"
                "{ *(A + n) = 1.0f; }",
                {"A": np.zeros(4), "n": 4},
                NDRange(1, 1),
            )

    def test_negative_offset_load_raises(self):
        """The critical case: NumPy would happily serve ``A[-1]``."""
        with pytest.raises(KernelRuntimeError, match="offset -1"):
            execute_kernel(
                "__kernel void f(__global float* A)"
                "{ float v = *(A - 1); A[0] = v; }",
                {"A": np.zeros(4)},
                NDRange(1, 1),
            )

    def test_buffer_not_clobbered_before_error(self):
        args = {"A": np.zeros(4)}
        with pytest.raises(KernelRuntimeError):
            execute_kernel(
                "__kernel void f(__global float* A)"
                "{ float v = *(A - 1); A[3] = v + 1.0f; }",
                args,
                NDRange(1, 1),
            )
        assert args["A"][3] == 0.0

    def test_cross_buffer_subtraction_raises(self):
        with pytest.raises(KernelRuntimeError, match="different buffers"):
            execute_kernel(
                "__kernel void f(__global float* A, __global float* B,"
                " __global float* S)"
                "{ S[0] = (float)((B + 1) - (A + 0)); }",
                {"A": np.zeros(4), "B": np.zeros(4), "S": np.zeros(1)},
                NDRange(1, 1),
            )

    def test_atomic_through_oob_pointer_raises(self):
        with pytest.raises(KernelRuntimeError, match="out-of-bounds pointer"):
            execute_kernel(
                "__kernel void f(__global int* C, int n)"
                "{ atomic_add(C + n, 1); }",
                {"C": np.zeros(2, dtype=np.int64), "n": 2},
                NDRange(1, 1),
            )

    def test_jit_backend_oob_raises_too(self):
        with pytest.raises(KernelRuntimeError, match="out-of-bounds"):
            execute_kernel(
                "__kernel void f(__global float* A, int n)"
                "{ A[get_global_id(0) + n] = 1.0f; }",
                {"A": np.zeros(4), "n": 1},
                NDRange(4, 4),
                backend="jit",
            )
