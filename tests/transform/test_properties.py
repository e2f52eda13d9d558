"""Property-based tests (hypothesis) for the code transformations.

Design decision D2 of DESIGN.md: the malleable transformation must be
semantics-preserving for *every* kernel shape, ND-range, and throttle
setting — randomised here over a small kernel family that covers guards,
loops, strides, float/int mixes, and 1-D/2-D launches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import analyze_kernel, parse_kernel
from repro.interp import KernelExecutor, NDRange
from repro.transform import (
    ALLOC_PARAM,
    MOD_PARAM,
    TransformError,
    make_cpu_kernel,
    make_malleable,
)
from repro.transform.cpu_codegen import WORKLIST_PARAM, CpuTransformError
from repro.transform.rewriter import print_kernel

KERNEL_TEMPLATE = """
__kernel void k(__global float* A, __global float* B, int n, int m)
{{
    int i = get_global_id(0);
    if (i < n) {{
        {body}
    }}
}}
"""

BODIES = [
    "B[i] = A[i] * 2.0f + 1.0f;",
    "B[i] = A[n - 1 - i];",
    "float s = 0.0f; for (int j = 0; j < m; j++) s = s + A[i * m + j]; B[i] = s;",
    "B[i] = (i % 2 == 0) ? A[i] : -A[i];",
    "int acc = 0; for (int j = 0; j < m; j++) acc = acc + j * i; B[i] = acc;",
    "B[i] = A[(i * 3) % n];",
    # early returns: the transforms must end one work item, not the
    # processing element or CPU thread running it
    "if (A[i] < 0.0f) return; B[i] = A[i] + 1.0f;",
    "if (i % 3 == 0) { B[i] = -1.0f; return; } else { B[i] = A[i]; } B[i] = B[i] * 2.0f;",
    "float s = 0.0f; for (int j = 0; j < m; j++) { if (j > i % 3) break; s = s + A[i * m + j]; }"
    " if (s > 0.0f) return; B[i] = s;",
]


@st.composite
def launch_cases(draw):
    body = draw(st.sampled_from(BODIES))
    wg = draw(st.sampled_from([4, 8, 16]))
    groups = draw(st.integers(min_value=1, max_value=4))
    n_extra = draw(st.integers(min_value=0, max_value=3))
    mod = draw(st.integers(min_value=1, max_value=wg))
    alloc = draw(st.integers(min_value=1, max_value=mod))
    m = draw(st.integers(min_value=1, max_value=5))
    total = wg * groups
    return body, wg, total, max(total - n_extra, 1), mod, alloc, m


class TestMalleableProperty:
    @settings(max_examples=60, deadline=None)
    @given(launch_cases())
    def test_transformed_equals_original(self, case):
        body, wg, total, n, mod, alloc, m = case
        source = KERNEL_TEMPLATE.format(body=body)
        rng = np.random.default_rng(hash((body, wg, total, n)) & 0xFFFF)
        a = rng.uniform(-4, 4, size=max(total * m, total))

        expected = np.zeros(total)
        info = analyze_kernel(parse_kernel(source))
        KernelExecutor(
            info, {"A": a, "B": expected, "n": n, "m": m}, NDRange(total, wg)
        ).run()

        actual = np.zeros(total)
        malleable = make_malleable(source, work_dim=1)
        KernelExecutor(
            malleable.info,
            {"A": a, "B": actual, "n": n, "m": m, MOD_PARAM: mod, ALLOC_PARAM: alloc},
            NDRange(total, wg),
        ).run()
        assert np.array_equal(actual, expected)


class TestCpuVariantProperty:
    @settings(max_examples=40, deadline=None)
    @given(launch_cases(), st.integers(min_value=1, max_value=5))
    def test_cpu_variant_equals_original(self, case, threads):
        body, wg, total, n, _, _, m = case
        source = KERNEL_TEMPLATE.format(body=body)
        rng = np.random.default_rng(hash((body, wg, total)) & 0xFFFF)
        a = rng.uniform(-4, 4, size=max(total * m, total))

        expected = np.zeros(total)
        info = analyze_kernel(parse_kernel(source))
        nd = NDRange(total, wg)
        KernelExecutor(info, {"A": a, "B": expected, "n": n, "m": m}, nd).run()

        actual = np.zeros(total)
        cpu = make_cpu_kernel(source, work_dim=1)
        args = {"A": a, "B": actual, "n": n, "m": m,
                WORKLIST_PARAM: np.zeros(1, dtype=np.int64)}
        args.update(cpu.scheduler_args(nd.total_groups, nd.local_size, nd.num_groups))
        KernelExecutor(cpu.info, args, NDRange(threads, 1)).run()
        assert np.array_equal(actual, expected)


@pytest.mark.parametrize("transform,error", [
    (make_malleable, TransformError), (make_cpu_kernel, CpuTransformError),
])
def test_return_inside_a_loop_is_declined(transform, error):
    body = "for (int j = 0; j < m; j++) { if (A[i * m + j] < 0.0f) return; } B[i] = 1.0f;"
    with pytest.raises(error, match="return inside a loop"):
        transform(KERNEL_TEMPLATE.format(body=body), work_dim=1)


class TestPrinterRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BODIES))
    def test_print_parse_print_fixpoint(self, body):
        source = KERNEL_TEMPLATE.format(body=body)
        once = print_kernel(parse_kernel(source))
        twice = print_kernel(parse_kernel(once))
        assert once == twice

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(BODIES), st.sampled_from([4, 8]))
    def test_printed_source_executes_identically(self, body, wg):
        source = KERNEL_TEMPLATE.format(body=body)
        printed = print_kernel(parse_kernel(source))
        total, n, m = wg * 2, wg * 2, 3
        a = np.linspace(-1, 1, total * m)
        out1 = np.zeros(total)
        out2 = np.zeros(total)
        for text, out in ((source, out1), (printed, out2)):
            info = analyze_kernel(parse_kernel(text))
            KernelExecutor(
                info, {"A": a, "B": out, "n": n, "m": m}, NDRange(total, wg)
            ).run()
        assert np.array_equal(out1, out2)
