"""Backend selection and the lane tables shared with the jit tier.

Two executors run the same OpenCL-C AST: the scalar oracle
(:class:`repro.interp.executor.KernelExecutor`) and the jit tier
(:class:`repro.interp.codegen.JitExecutor`), which lowers a kernel plus
one launch to a NumPy program over all work-items of a batch ("lanes").
:func:`make_executor` picks one per launch; the fallback lattice is
``jit -> scalar``.

Eligibility is decided per kernel by :func:`check_vectorizable`, the
element-level vs block-level rule: barriers, atomics, ``__local``/private
arrays and pointer indirection need the cooperative scalar scheduler
(this includes every malleable-transformed kernel, whose local atomic
worklist has real ordering semantics).  Eligible kernels then go to the
jit compiler, which declines what it cannot lower — helper-function
calls, for one — back to the oracle, with the reason and source location
recorded in :data:`repro.interp.stats.execution_stats`.

Exactness envelope of the lane tier (the jit), in one place:

* Arithmetic happens in the oracle's precision: lanes hold
  ``int64``/``float64`` arrays, loads from narrower buffers widen exactly
  like the oracle's ``.item()``, and integer division/modulo truncate
  toward zero like :func:`repro.interp.builtins.c_div`.
* Transcendental builtins (``exp``, ``log``, ``sin``, ``pow``, ...) go
  element-wise through the *same* ``math``-module implementations the
  oracle uses (:data:`WRAPPED_MATH`), because NumPy's own float64 loops
  may differ from libm by an ULP.  Only operations that are exact or
  correctly rounded by IEEE-754 use native NumPy kernels
  (:data:`NATIVE_MATH`).
* Lanes are ordered exactly like the scalar schedule (:class:`Lanes`), so
  duplicate stores to one location resolve to the same "last writer".
* Lane integers are ``int64`` (overflow wraps silently under
  ``np.errstate``); the oracle uses unbounded Python ints.  Two's-
  complement wrapping is exact modulo 2**64 and buffer stores truncate,
  so ``+ - * << & | ^`` chains agree with the oracle at every store; the
  tiers can only diverge when an intermediate wider than 64 bits feeds
  an operation that is *not* a ring homomorphism modulo 2**64 —
  division, remainder, a comparison, a right shift, or a float conversion
  (e.g. the product of three values near 2**40, then compared).  Shift
  counts outside ``[0, 64)`` and math domain errors are detected at run
  time and re-run on the oracle; wider intermediates are not, so kernels
  relying on >64-bit integer precision must run with ``backend=scalar``.
  No registry kernel does, and the differential suite guards that
  envelope.
* Work-items that *race* — one writing a location another reads or
  writes — resolve in lane-step order here (all lanes run a statement,
  then the next; a lane-varying loop runs iteration by iteration), while
  the oracle runs one work-item to completion before the next.  Such
  races are undefined behaviour in real OpenCL; no registry kernel
  contains one.
"""

from __future__ import annotations

import inspect
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..frontend import ast
from ..frontend.semantics import KernelInfo, WORK_ITEM_BUILTINS
from ..obs import tracer
from .builtins import INT_IMPLS, MATH_IMPLS
from .executor import KernelExecutor
from .ndrange import NDRange
from .stats import execution_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle at run time
    from .codegen import JitExecutor

#: Recognised backend names.  ``auto`` is an alias of ``jit``, which
#: compiles the launch when it can and runs the scalar oracle otherwise.
BACKENDS = ("auto", "jit", "scalar")

#: Upper bound on lanes per batch, so private variables stay cache-sized.
MAX_LANES_PER_BATCH = 1 << 16


@dataclass(frozen=True)
class Eligibility:
    """Whether a kernel can run on the lane tier, and why not.

    ``location`` is the source span of the disqualifying construct (None
    for whole-kernel reasons such as barrier/atomic usage).
    """

    eligible: bool
    reason: str = ""
    location: "ast.SourceLocation | None" = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.eligible


# ---------------------------------------------------------------------------
# Eligibility pass
# ---------------------------------------------------------------------------

_ELIGIBILITY_CACHE_ATTR = "_vector_eligibility"

#: Serialises eligibility *computation* across threads.  The memo is
#: published as an attribute on the :class:`KernelInfo` (an atomic store
#: under the GIL); without the lock, N threads first-touching the same
#: kernel concurrently would all run the AST walk and interleave their
#: publishes — double-checked locking makes first-touch compute-once.
_eligibility_lock = threading.Lock()


def check_vectorizable(info: KernelInfo) -> Eligibility:
    """Static applicability test for the lane tier.

    The result is memoized on the :class:`KernelInfo` so repeated launches
    (the dynamic scheduler enqueues the same kernel hundreds of times) pay
    for the AST walk once.  Thread-safe: concurrent first-touch from the
    serving layer's workers computes the walk exactly once.
    """
    cached = getattr(info, _ELIGIBILITY_CACHE_ATTR, None)
    if cached is not None:
        return cached
    with _eligibility_lock:
        cached = getattr(info, _ELIGIBILITY_CACHE_ATTR, None)
        if cached is not None:
            return cached
        result = _check_vectorizable(info)
        try:
            setattr(info, _ELIGIBILITY_CACHE_ATTR, result)
        except AttributeError:  # pragma: no cover - slotted KernelInfo variant
            pass
    return result


def _check_vectorizable(info: KernelInfo) -> Eligibility:
    if info.uses_barrier:
        return Eligibility(False, "work-group barriers need the cooperative "
                                  "scalar scheduler", info.kernel.location)
    if info.uses_atomics:
        return Eligibility(False, "atomics have ordering semantics the "
                                  "batched backend cannot reproduce",
                           info.kernel.location)
    functions = [(info.kernel.name, info)]
    functions += [(name, callee) for name, callee in info.user_functions.items()]
    known_calls = (
        set(WORK_ITEM_BUILTINS) | set(MATH_IMPLS) | set(INT_IMPLS)
        | set(info.user_functions)
    )
    for fn_name, fn_info in functions:
        where = "" if fn_info is info else f" (in helper {fn_name!r})"
        for node in ast.walk(fn_info.kernel.body):
            if isinstance(node, ast.DeclStmt):
                for decl in node.decls:
                    at = node.location
                    if decl.type.address_space == "local":
                        return Eligibility(
                            False, f"__local variable {decl.name!r}{where}", at)
                    if decl.array_dims:
                        return Eligibility(
                            False, f"private array {decl.name!r}{where}", at)
                    if decl.type.pointer:
                        return Eligibility(
                            False, f"pointer variable {decl.name!r}{where}", at)
            elif isinstance(node, ast.UnaryOp) and node.op in ("*", "&"):
                return Eligibility(False, f"pointer indirection{where}",
                                   node.location)
            elif (isinstance(node, (ast.UnaryOp, ast.PostfixOp))
                  and node.op in ("++", "--")
                  and fn_info.type_of(node.operand).pointer):
                return Eligibility(False, f"pointer increment{where}",
                                   node.location)
            elif (isinstance(node, ast.Assignment)
                  and fn_info.type_of(node.target).pointer):
                return Eligibility(False, f"pointer reassignment{where}",
                                   node.location)
            elif isinstance(node, ast.Cast) and node.type.pointer:
                return Eligibility(False, f"pointer cast{where}",
                                   node.location)
            elif isinstance(node, ast.BinaryOp):
                if (fn_info.type_of(node).pointer
                        or fn_info.type_of(node.left).pointer
                        or fn_info.type_of(node.right).pointer):
                    return Eligibility(False, f"pointer arithmetic{where}",
                                       node.location)
            elif isinstance(node, ast.Index):
                if not isinstance(node.base, ast.Identifier):
                    return Eligibility(
                        False, f"subscript of a computed pointer{where}",
                        node.location)
            elif isinstance(node, ast.Call) and node.name not in known_calls:
                return Eligibility(
                    False, f"unsupported builtin {node.name!r}{where}",
                    node.location)
    return Eligibility(True)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


def resolve_backend(backend: str | None = None) -> str:
    """Normalise a backend request: explicit > ``DOPIA_BACKEND`` > ``auto``."""
    if backend is None:
        backend = os.environ.get("DOPIA_BACKEND") or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend


def make_executor(
    info: KernelInfo,
    args: dict[str, Any],
    ndrange: NDRange,
    backend: str | None = None,
) -> "KernelExecutor | JitExecutor":
    """Pick the execution backend for one launch.

    ``scalar`` forces the oracle.  ``jit`` (and its alias ``auto``)
    trace-compiles the launch to a NumPy program when the kernel is
    eligible and inside the jit subset, and runs the oracle otherwise —
    the flag never breaks a program.  The tier follows the kernel's
    structure, not the launch size: a launch of a few work-items can
    still run a deep loop nest.
    """
    choice = resolve_backend(backend)
    name = info.kernel.name
    if choice == "scalar":
        _record_choice(name, "scalar", "forced by backend=scalar")
        return KernelExecutor(info, args, ndrange)
    eligibility = check_vectorizable(info)
    if not eligibility.eligible:
        _record_choice(name, "scalar", eligibility.reason)
        return KernelExecutor(info, args, ndrange)
    from .codegen import JitExecutor, JitUnsupported, compile_cached

    try:
        compiled = compile_cached(info, args, ndrange)
    except JitUnsupported as exc:
        execution_stats.record_fallback(name, str(exc), exc.location)
        if tracer.enabled:
            tracer.instant("backend.fallback", "backend", kernel=name,
                           tier="jit", reason=str(exc))
            tracer.counter("backend.jit_fallbacks")
        _record_choice(name, "scalar", f"jit declined: {exc}")
        return KernelExecutor(info, args, ndrange)
    _record_choice(name, "jit", "compiled")
    return JitExecutor(info, args, ndrange, compiled)


def _record_choice(name: str, backend: str, reason: str) -> None:
    """Record a backend decision in the stats and (when on) the tracer."""
    execution_stats.record_choice(name, backend, reason)
    if tracer.enabled:
        tracer.instant("backend.choice", "backend",
                       kernel=name, backend=backend, reason=reason)
        tracer.counter(f"backend.{backend}_launches")


# ---------------------------------------------------------------------------
# Exact element-wise builtins
# ---------------------------------------------------------------------------

def _pyfunc(fn: Callable) -> Callable:
    """Element-wise float64 map through a Python ``math`` implementation."""
    ufunc = np.frompyfunc(fn, _arity(fn), 1)

    def apply(*arrays):
        return ufunc(*arrays).astype(np.float64)

    return apply


def _arity(fn: Callable) -> int:
    try:
        return len(inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # pragma: no cover - C-implemented libm
        return 1


#: Math builtins whose NumPy float64 kernels are exact or correctly rounded
#: (IEEE-754 requires it for these), hence bit-identical to ``math``.
NATIVE_MATH: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "rsqrt": lambda x: np.divide(1.0, np.sqrt(x)),
    "fabs": np.abs,
    "fmax": np.maximum,
    "fmin": np.minimum,
    "fmod": np.fmod,
    "mad": lambda a, b, c: a * b + c,
    "fma": lambda a, b, c: a * b + c,
    "clamp": lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
}

#: ``math.floor``/``math.ceil`` return Python ints — mirror that exactly
#: (the integer-ness matters: ``floor(x) / 2`` is *integer* division).
INT_RESULT_MATH = {
    "floor": np.floor,
    "ceil": np.ceil,
}

#: Everything else (transcendentals) goes through the oracle's own
#: ``math`` implementations, element-wise, to stay bit-identical.
WRAPPED_MATH: dict[str, Callable] = {
    name: _pyfunc(impl)
    for name, impl in MATH_IMPLS.items()
    if name not in NATIVE_MATH and name not in INT_RESULT_MATH
}

#: Inputs on which the oracle's ``math`` implementation raises
#: (ValueError / OverflowError / ZeroDivisionError) but the NumPy kernel
#: would silently produce a NaN/inf under ``np.errstate``.  Each predicate
#: flags the offending lanes; any *active* hit reverts the launch to the
#: oracle so its exception (and partial stores) are exact.
MATH_DOMAIN_CHECKS: dict[str, Callable] = {
    "sqrt": lambda x: np.less(x, 0),
    "rsqrt": lambda x: np.less_equal(x, 0),
    "fmod": lambda x, y: np.isinf(x) | np.equal(y, 0),
    "floor": lambda x: ~np.isfinite(x),
    "ceil": lambda x: ~np.isfinite(x),
}

#: Exceptions the oracle's ``math`` implementations raise on domain or
#: overflow errors; on the lane tier they trigger the oracle re-run.
MATH_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

#: Integer builtins on lane arrays.
LANE_INT: dict[str, Callable] = {
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "mul24": lambda a, b: a * b,
    "mad24": lambda a, b, c: a * b + c,
}


# ---------------------------------------------------------------------------
# Lane geometry
# ---------------------------------------------------------------------------


class Lanes:
    """Identity arrays for a batch of work-groups.

    Lane order is (groups in submission order) × (local ids,
    dimension 0 fastest) — i.e. exactly the scalar interpreter's execution
    order, so "last writer wins" resolves identically.
    """

    def __init__(self, ndrange: NDRange, group_ids: list[tuple[int, ...]]):
        per_group = ndrange.work_items_per_group
        self.count = per_group * len(group_ids)
        linear = np.tile(np.arange(per_group, dtype=np.int64), len(group_ids))
        self.local: list[np.ndarray] = []
        stride = 1
        for dim in range(ndrange.work_dim):
            size = ndrange.local_size[dim]
            self.local.append((linear // stride) % size)
            stride *= size
        groups = np.asarray(group_ids, dtype=np.int64).reshape(
            len(group_ids), ndrange.work_dim)
        self.group = [
            np.repeat(groups[:, dim], per_group)
            for dim in range(ndrange.work_dim)
        ]
        self.global_ = [
            ndrange.offset[dim]
            + self.group[dim] * ndrange.local_size[dim]
            + self.local[dim]
            for dim in range(ndrange.work_dim)
        ]
