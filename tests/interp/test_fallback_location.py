"""Jit-fallback reasons carry source locations (ExecutionStats)."""

import numpy as np

from repro.frontend.parser import parse, parse_kernel
from repro.frontend.semantics import analyze_kernel
from repro.interp.executor import execute_kernel
from repro.interp.ndrange import NDRange
from repro.interp.stats import ExecutionStats, execution_stats
from repro.interp.backend import check_vectorizable


def info_of(source):
    return analyze_kernel(parse_kernel(source), parse(source))


def test_ineligibility_reason_has_location():
    source = (
        "__kernel void k(__global float* a) {\n"
        "    int i = get_global_id(0);\n"
        "    barrier(1);\n"
        "    a[i] = i;\n"
        "}\n"
    )
    eligibility = check_vectorizable(info_of(source))
    assert not eligibility.eligible
    assert eligibility.location is not None
    assert eligibility.location.line >= 1


def test_jit_decline_records_location():
    source = (
        "int twice(int x) { return 2 * x; }\n"
        "__kernel void k(__global int* a) {\n"
        "    int i = get_global_id(0);\n"
        "    a[i] = twice(a[i]);\n"
        "}\n"
    )
    execution_stats.reset()
    a = np.arange(8, dtype=np.int64)
    execute_kernel(source, {"a": a}, NDRange((8,), (4,)), backend="jit")
    try:
        assert a.tolist() == [2 * v for v in range(8)]
        assert execution_stats.fallback_count("k") == 1
        assert execution_stats.backend_for("k") == "scalar"
        location = execution_stats.fallback_locations.get("k")
        assert location == "4:17", location  # the helper call's span
        assert "at 4:17" in execution_stats.summary()
    finally:
        execution_stats.reset()


def test_runtime_fallback_records_location():
    source = (
        "__kernel void sh(__global int* a, __global int* b, int s) {\n"
        "    int i = get_global_id(0);\n"
        "    a[i] = b[i] << s;\n"
        "}\n"
    )
    execution_stats.reset()
    a = np.zeros(8, dtype=np.int64)
    b = np.zeros(8, dtype=np.int64)
    # shift amount 70 is outside [0, 64): the jit must re-run on the oracle
    execute_kernel(source, {"a": a, "b": b, "s": 70},
                   NDRange((8,), (4,)), backend="jit")
    try:
        assert execution_stats.fallback_count("sh") == 1
        assert "shift" in execution_stats.fallback_reasons["sh"]
        assert ("sh", "scalar") in execution_stats.runs
        location = execution_stats.fallback_locations.get("sh")
        assert location == "3:17", location  # the << expression's span
        assert "at 3:17" in execution_stats.summary()
    finally:
        execution_stats.reset()


def test_record_fallback_without_location():
    stats = ExecutionStats()
    stats.record_fallback("k", "why")
    assert stats.fallback_locations["k"] == ""
    stats.reset()
    assert stats.fallback_locations == {}


def test_fallbacks_keyed_per_kernel():
    """Regression: fallbacks of different kernels must not aggregate."""
    stats = ExecutionStats()
    stats.record_fallback("k", "helper call")
    stats.record_fallback("h", "shift out of range", "3:17")
    stats.record_fallback("h", "shift out of range", "3:17")
    assert stats.fallback_count("k") == 1
    assert stats.fallback_count("h") == 2
    assert stats.fallback_count("missing") == 0
    assert stats.fallback_reasons["k"] == "helper call"
    summary = stats.summary()
    assert "execution[k]: jit-fallbacks=1 (helper call)" in summary
    assert "execution[h]: jit-fallbacks=2 (shift out of range at 3:17)" \
        in summary
