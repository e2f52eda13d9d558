"""Functional kernel interpreter: the correctness substrate.

Two backends execute the same OpenCL-C AST:

* :class:`KernelExecutor` — the scalar oracle, one work-item at a time,
  with full barrier/atomic semantics.
* :class:`JitExecutor` — trace-compiled NumPy programs over all
  work-items of a batch, specialized and cached per launch shape,
  bit-identical to the oracle (and differential-tested against it).
  The oracle is its transparent fallback.

:func:`make_executor` picks between them (``auto``/``jit``/``scalar``,
environment default ``DOPIA_BACKEND``).
"""

from .backend import (
    BACKENDS,
    Eligibility,
    check_vectorizable,
    make_executor,
    resolve_backend,
)
from .builtins import c_div, c_mod
from .codegen import (
    CompiledKernel,
    JitExecutor,
    JitUnsupported,
    compile_cached,
    compile_kernel,
    jit_cache_stats,
)
from .executor import (
    ArrayRef,
    KernelExecutor,
    KernelRuntimeError,
    WorkGroupContext,
    WorkItemContext,
    execute_kernel,
)
from .ndrange import NDRange
from .stats import ExecutionStats, execution_stats

__all__ = [
    "ArrayRef", "KernelExecutor", "KernelRuntimeError", "WorkGroupContext",
    "WorkItemContext", "execute_kernel", "NDRange", "c_div", "c_mod",
    "BACKENDS", "CompiledKernel", "Eligibility", "ExecutionStats",
    "JitExecutor", "JitUnsupported",
    "check_vectorizable", "compile_cached", "compile_kernel",
    "execution_stats", "jit_cache_stats", "make_executor", "resolve_backend",
]
