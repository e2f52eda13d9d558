"""Functional kernel interpreter: the correctness substrate.

Three backends execute the same OpenCL-C AST:

* :class:`KernelExecutor` — the scalar oracle, one work-item at a time,
  with full barrier/atomic semantics.
* :class:`VectorizedExecutor` — batched NumPy execution for eligible
  kernels, bit-identical to the oracle (and differential-tested against
  it), roughly an order of magnitude faster.
* :class:`JitExecutor` — trace-compiled straight-line NumPy programs for
  kernels inside the JIT subset, specialized and cached per launch
  shape, with the vectorized backend as its transparent fallback.

:func:`make_executor` picks between them
(``auto``/``jit``/``vector``/``scalar``, environment default
``DOPIA_BACKEND``).
"""

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
from .vectorize import (
    BACKENDS,
    Eligibility,
    VectorizedExecutor,
    check_vectorizable,
    make_executor,
    resolve_backend,
)

__all__ = [
    "ArrayRef", "KernelExecutor", "KernelRuntimeError", "WorkGroupContext",
    "WorkItemContext", "execute_kernel", "NDRange", "c_div", "c_mod",
    "BACKENDS", "CompiledKernel", "Eligibility", "ExecutionStats",
    "JitExecutor", "JitUnsupported", "VectorizedExecutor",
    "check_vectorizable", "compile_cached", "compile_kernel",
    "execution_stats", "jit_cache_stats", "make_executor", "resolve_backend",
]
