"""Vectorized NumPy kernel-execution backend.

Executes all work-items of a batch of work-groups *at once*: every private
variable becomes a NumPy array over the active work-items ("lanes"),
``get_global_id``/``get_local_id`` evaluate to index arrays, straight-line
arithmetic maps onto ufuncs, and divergent control flow runs masked —
each statement receives the boolean array of lanes that reach it, and
``if``/``while``/``break``/``continue``/``return`` only narrow that mask.

The scalar interpreter (:mod:`repro.interp.executor`) stays the semantic
oracle.  Three rules keep the two backends bit-identical:

* Arithmetic happens in the same precision: lanes hold ``int64``/``float64``
  arrays, loads from narrower buffers are widened exactly like the scalar
  interpreter's ``.item()`` conversion, and integer division/modulo use the
  same truncate-toward-zero semantics as :func:`repro.interp.builtins.c_div`.
* Transcendental builtins (``exp``, ``log``, ``sin``, ``pow``, ...) are
  routed element-wise through the *same* ``math``-module implementations the
  scalar backend uses (via ``np.frompyfunc``), because NumPy's own float64
  loops may differ from libm by an ULP.  Only operations that are exact or
  correctly rounded by IEEE-754 (``+ - * / sqrt fabs floor ceil fmod ...``)
  use native NumPy kernels.
* Lanes are ordered exactly like the scalar schedule (work-groups in
  submission order, dimension-0-fastest within a group), so duplicate
  stores to one location resolve to the same "last writer".

Eligibility is decided per kernel by :func:`check_vectorizable`: barriers,
atomics, ``__local``/private arrays, and pointer indirection keep a kernel
on the scalar path (this includes every malleable-transformed kernel, whose
local atomic worklist has real ordering semantics).  At run time, any
construct the vectorizer cannot prove equivalent raises the internal
:class:`VectorizeFallback`; the executor then restores the output buffers
from a pre-run snapshot and transparently re-runs on the scalar backend, so
behaviour never regresses.

Known, documented divergence: a statement whose lanes *race* — one lane
reading a location another lane writes in the same statement — sees all
reads before all writes here, while the scalar interpreter interleaves
lanes.  Such intra-statement cross-lane races are undefined behaviour in
real OpenCL; no repository kernel contains one, and the differential suite
(`tests/interp/test_differential.py`) would flag any that appeared.

A second documented limit: lane integer arithmetic runs in ``int64``
(overflow wraps silently under ``np.errstate``), while the scalar oracle
uses unbounded Python ints.  Because two's-complement wrapping is exact
modulo 2**64 and buffer stores truncate, ``+ - * << & | ^`` chains still
agree with the oracle at every store; the backends can only diverge when
an intermediate wider than 64 bits feeds an operation that is *not* a
ring homomorphism modulo 2**64 — division, remainder, a comparison, a
right shift, or a float conversion (e.g. the product of three values near
2**40, then compared).  Shift counts outside ``[0, 64)`` are detected at
run time and fall back to the scalar path; wider intermediates are not,
so kernels relying on >64-bit integer precision must run with
``backend=scalar``.  No registry kernel does, and the differential suite
guards that envelope.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from ..frontend import ast
from ..frontend.semantics import KernelInfo, WORK_ITEM_BUILTINS
from ..obs import tracer
from .builtins import INT_IMPLS, MATH_IMPLS, c_div, c_mod
from .executor import KernelExecutor, KernelRuntimeError
from .ndrange import NDRange
from .stats import execution_stats

#: Recognised backend names, in precedence order for documentation.
#: ``auto`` (an alias of ``jit``) tries jit -> vector -> scalar, stopping
#: at the first tier that accepts the kernel and launch.
BACKENDS = ("auto", "jit", "vector", "scalar")

#: Upper bound on lanes per batch, so private variables stay cache-sized.
MAX_LANES_PER_BATCH = 1 << 16


class VectorizeFallback(Exception):
    """Internal signal: revert this launch to the scalar interpreter.

    ``location`` points at the construct that forced the fallback (when
    known), so stats and diagnostics can show *where*, not just *why*.
    """

    def __init__(self, why: str, location=None):
        super().__init__(why)
        self.location = location


@dataclass(frozen=True)
class Eligibility:
    """Whether a kernel can run on the vectorized backend, and why not.

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
    """Static applicability test for the vectorized backend.

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
) -> "KernelExecutor | VectorizedExecutor":
    """Pick the execution backend for one launch.

    ``scalar`` forces the oracle; ``vector`` uses the batched backend for
    every eligible kernel (ineligible kernels still run — scalar — so the
    flag never breaks a program); ``jit`` additionally trace-compiles the
    launch to a straight-line NumPy program when the kernel is inside the
    JIT subset (reverting to ``vector`` when not); ``auto`` is an alias
    of ``jit``.  The tier follows the kernel's structure, not the launch
    size: a launch of a few work-items can still run a deep loop nest.
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
    if choice in ("auto", "jit"):
        from .codegen import JitExecutor, JitUnsupported, compile_cached

        try:
            compiled = compile_cached(info, args, ndrange)
        except JitUnsupported as exc:
            execution_stats.record_fallback(name, str(exc), exc.location,
                                            tier="jit")
            if tracer.enabled:
                tracer.instant("backend.fallback", "backend", kernel=name,
                               tier="jit", reason=str(exc))
                tracer.counter("backend.jit_fallbacks")
            _record_choice(name, "vector", f"jit declined: {exc}")
            return VectorizedExecutor(info, args, ndrange)
        _record_choice(name, "jit", "compiled")
        return JitExecutor(info, args, ndrange, compiled)
    _record_choice(name, "vector", "eligible")
    return VectorizedExecutor(info, args, ndrange)


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
        import inspect

        return len(inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # pragma: no cover - C-implemented libm
        return 1


#: Math builtins whose NumPy float64 kernels are exact or correctly rounded
#: (IEEE-754 requires it for these), hence bit-identical to ``math``.
_NATIVE_MATH: dict[str, Callable] = {
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
_INT_RESULT_MATH = {
    "floor": np.floor,
    "ceil": np.ceil,
}

#: Everything else (transcendentals) goes through the scalar backend's own
#: ``math`` implementations, element-wise, to stay bit-identical.
_WRAPPED_MATH: dict[str, Callable] = {
    name: _pyfunc(impl)
    for name, impl in MATH_IMPLS.items()
    if name not in _NATIVE_MATH and name not in _INT_RESULT_MATH
}

#: Inputs on which the scalar backend's ``math`` implementation raises
#: (ValueError / OverflowError / ZeroDivisionError) but the NumPy kernel
#: would silently produce a NaN/inf under ``np.errstate``.  Each predicate
#: flags the offending lanes; any *active* hit reverts the launch to the
#: scalar path so the oracle's exception (and partial stores) are exact.
_MATH_DOMAIN_CHECKS: dict[str, Callable] = {
    "sqrt": lambda x: np.less(x, 0),
    "rsqrt": lambda x: np.less_equal(x, 0),
    "fmod": lambda x, y: np.isinf(x) | np.equal(y, 0),
    "floor": lambda x: ~np.isfinite(x),
    "ceil": lambda x: ~np.isfinite(x),
}

#: Exceptions the scalar ``math`` implementations raise on domain/overflow
#: errors; under the vector backend they trigger the transparent fallback.
_MATH_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

_VEC_INT: dict[str, Callable] = {
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "mul24": lambda a, b: a * b,
    "mad24": lambda a, b, c: a * b + c,
}

_WORK_ITEM_QUERIES = frozenset(WORK_ITEM_BUILTINS) - {"get_work_dim"}


def _is_arr(value: Any) -> bool:
    return isinstance(value, np.ndarray)


def _as_int(value: Any) -> Any:
    """Truncate-toward-zero conversion matching Python's ``int()``."""
    if _is_arr(value):
        if value.dtype == np.int64:
            return value
        return value.astype(np.int64)
    return int(value)


def _as_float(value: Any) -> Any:
    if _is_arr(value):
        if value.dtype == np.float64:
            return value
        return value.astype(np.float64)
    return float(value)


def _is_float_kind(value: Any) -> bool:
    if _is_arr(value):
        return value.dtype.kind == "f"
    return isinstance(value, float)


# ---------------------------------------------------------------------------
# Lane geometry
# ---------------------------------------------------------------------------


class _Lanes:
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


class _Frame:
    """Per-function-call state: return mask/value and the loop stack."""

    __slots__ = ("returned", "value", "loops")

    def __init__(self, count: int):
        self.returned = np.zeros(count, dtype=bool)
        self.value: Any = None
        self.loops: list["_LoopCtx"] = []


class _LoopCtx:
    __slots__ = ("broken", "continued")

    def __init__(self, count: int):
        self.broken = np.zeros(count, dtype=bool)
        self.continued = np.zeros(count, dtype=bool)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class VectorizedExecutor:
    """Drop-in replacement for :class:`KernelExecutor` on eligible kernels.

    Construction validates arguments with the same rules as the scalar
    executor (it builds one, which doubles as the fallback path).  ``run``
    snapshots the output buffers, executes batched, and on any
    :class:`VectorizeFallback` restores the snapshot and re-runs the whole
    launch on the scalar interpreter — callers cannot observe which backend
    did the work except through :data:`repro.interp.stats.execution_stats`.
    """

    def __init__(self, info: KernelInfo, args: dict[str, Any], ndrange: NDRange):
        self.info = info
        self.ndrange = ndrange
        self.scalar = KernelExecutor(info, args, ndrange)
        self.args = self.scalar.args
        self.used_fallback = False

    # -- public API (mirrors KernelExecutor) ---------------------------------

    def run(self, group_ids: Optional[Iterable[tuple[int, ...]]] = None) -> None:
        groups = list(group_ids if group_ids is not None else
                      self.ndrange.group_ids())
        if not groups:
            return
        buffers = {
            name: self.args[name]
            for name in self.info.buffer_params
            if isinstance(self.args.get(name), np.ndarray)
        }
        snapshot = {name: array.copy() for name, array in buffers.items()}
        started = time.perf_counter()
        try:
            per_group = self.ndrange.work_items_per_group
            batch = max(1, MAX_LANES_PER_BATCH // max(1, per_group))
            with np.errstate(all="ignore"):
                for start in range(0, len(groups), batch):
                    _BatchRun(self, groups[start:start + batch]).run()
        except VectorizeFallback as exc:
            for name, saved in snapshot.items():
                buffers[name][...] = saved
            self.used_fallback = True
            execution_stats.record_fallback(self.info.kernel.name, str(exc),
                                            getattr(exc, "location", None))
            if tracer.enabled:
                tracer.instant("backend.fallback", "backend",
                               kernel=self.info.kernel.name, reason=str(exc))
                tracer.counter("backend.fallbacks")
            self.scalar.run(groups)
            return
        execution_stats.record_run(
            self.info.kernel.name, "vector",
            len(groups) * self.ndrange.work_items_per_group,
            time.perf_counter() - started,
        )

    def run_group(self, group_id: tuple[int, ...]) -> None:
        self.run([group_id])


class _BatchRun:
    """One masked-SIMT pass over a batch of work-groups."""

    def __init__(self, executor: VectorizedExecutor,
                 group_ids: list[tuple[int, ...]]):
        self.ex = executor
        self.info = executor.info
        self.ndrange = executor.ndrange
        self.lanes = _Lanes(executor.ndrange, group_ids)
        self.count = self.lanes.count
        self.full = np.ones(self.count, dtype=bool)
        self.env: dict[str, Any] = dict(executor.args)
        #: Variables first bound under a divergent mask: name -> the lanes
        #: that actually executed a binding.  Reads check it (see ``_eval``);
        #: fully-bound variables are absent.
        self.partially_bound: dict[str, np.ndarray] = {}
        self.frames: list[_Frame] = [_Frame(self.count)]

    def run(self) -> None:
        self._exec_stmt(self.info.kernel.body, self.full)

    # -- helpers -------------------------------------------------------------

    def _fallback(self, why: str, node: Any = None) -> VectorizeFallback:
        return VectorizeFallback(why, getattr(node, "location", None))

    def _truth(self, value: Any) -> Any:
        """Branch condition: Python bool if uniform, bool array if varying."""
        if _is_arr(value):
            return value != 0
        return bool(value)

    def _coerce(self, value: Any, ctype: ast.CType) -> Any:
        if ctype.pointer:
            return value
        if ctype.is_float:
            return _as_float(value)
        return _as_int(value)

    def _blend(self, new: Any, old: Any, mask: np.ndarray) -> Any:
        """Lane-wise select: ``new`` where active, ``old`` elsewhere."""
        return np.where(mask, new, old)

    def _bind(self, name: str, value: Any, mask: np.ndarray) -> None:
        if mask is self.full or bool(mask.all()):
            self.env[name] = value
            self.partially_bound.pop(name, None)
            return
        old = self.env.get(name)
        if old is None:
            # First binding happens under divergence: the inactive lanes do
            # not have this variable (the scalar backend would raise
            # 'unbound identifier' if they read it).  Record which lanes are
            # live and give the rest an inert placeholder; reads validate
            # against the recorded mask.
            self.partially_bound[name] = mask.copy()
            old = 0.0 if _is_float_kind(value) else 0
        else:
            bound = self.partially_bound.get(name)
            if bound is not None:
                bound |= mask
                if bool(bound.all()):
                    del self.partially_bound[name]
        self.env[name] = self._blend(value, old, mask)

    def _ident_type(self, name: str) -> Optional[ast.CType]:
        symbol = self.info.symbols.lookup(name)
        return symbol.type if symbol is not None else None

    # -- statements ----------------------------------------------------------

    def _exec_stmt(self, stmt: ast.Stmt, mask: np.ndarray) -> np.ndarray:
        """Execute ``stmt`` for the lanes in ``mask``; return the survivors
        (lanes that fall through to the next statement)."""
        kind = type(stmt)
        if kind is ast.Block:
            current = mask
            for inner in stmt.body:
                current = self._exec_stmt(inner, current)
                if not current.any():
                    break
            return current
        if kind is ast.DeclStmt:
            for decl in stmt.decls:
                if decl.init is not None:
                    value = self._coerce(self._eval(decl.init, mask), decl.type)
                else:
                    value = 0.0 if decl.type.is_float else 0
                self._bind(decl.name, value, mask)
            return mask
        if kind is ast.ExprStmt:
            self._eval(stmt.expr, mask)
            return mask
        if kind is ast.If:
            return self._exec_if(stmt, mask)
        if kind is ast.For:
            return self._exec_for(stmt, mask)
        if kind is ast.While:
            return self._exec_loop(stmt.cond, stmt.body, None, mask,
                                   test_first=True)
        if kind is ast.DoWhile:
            return self._exec_loop(stmt.cond, stmt.body, None, mask,
                                   test_first=False)
        if kind is ast.Return:
            frame = self.frames[-1]
            if stmt.value is not None:
                value = self._eval(stmt.value, mask)
                if frame.value is None:
                    frame.value = self._blend(value, 0, mask) \
                        if not bool(mask.all()) else value
                else:
                    if _is_float_kind(frame.value) != _is_float_kind(value):
                        # np.where would float-promote the earlier int
                        # returns; the oracle keeps each lane's own type.
                        raise self._fallback(
                            "return values with mixed int/float types", stmt)
                    frame.value = self._blend(value, frame.value, mask)
            frame.returned = frame.returned | mask
            return np.zeros(self.count, dtype=bool)
        if kind is ast.Break:
            if not self.frames[-1].loops:
                raise self._fallback("break outside of a loop", stmt)
            ctx = self.frames[-1].loops[-1]
            ctx.broken = ctx.broken | mask
            return np.zeros(self.count, dtype=bool)
        if kind is ast.Continue:
            if not self.frames[-1].loops:
                raise self._fallback("continue outside of a loop", stmt)
            ctx = self.frames[-1].loops[-1]
            ctx.continued = ctx.continued | mask
            return np.zeros(self.count, dtype=bool)
        raise self._fallback(f"unsupported statement {kind.__name__}", stmt)

    def _exec_if(self, stmt: ast.If, mask: np.ndarray) -> np.ndarray:
        taken = self._truth(self._eval(stmt.cond, mask))
        if not _is_arr(taken):
            if taken:
                return self._exec_stmt(stmt.then, mask)
            if stmt.otherwise is not None:
                return self._exec_stmt(stmt.otherwise, mask)
            return mask
        then_mask = mask & taken
        else_mask = mask & ~taken
        out_then = self._exec_stmt(stmt.then, then_mask) \
            if then_mask.any() else then_mask
        if stmt.otherwise is not None and else_mask.any():
            out_else = self._exec_stmt(stmt.otherwise, else_mask)
        else:
            out_else = else_mask
        return out_then | out_else

    def _exec_for(self, stmt: ast.For, mask: np.ndarray) -> np.ndarray:
        if stmt.init is not None:
            if isinstance(stmt.init, ast.DeclStmt):
                self._exec_stmt(stmt.init, mask)
            elif isinstance(stmt.init, ast.ExprStmt):
                self._eval(stmt.init.expr, mask)
        step = stmt.step

        def run_step(active: np.ndarray) -> None:
            if step is not None:
                self._eval(step, active)

        return self._exec_loop(stmt.cond, stmt.body,
                               run_step if step is not None else None,
                               mask, test_first=True)

    def _exec_loop(
        self,
        cond: Optional[ast.Expr],
        body: ast.Stmt,
        step: Optional[Callable[[np.ndarray], None]],
        mask: np.ndarray,
        test_first: bool,
    ) -> np.ndarray:
        """Shared engine for ``for``/``while``/``do-while``.

        ``active`` tracks lanes still iterating; lanes leave through the
        condition (collected in ``exited``), through ``break`` (the loop
        context), or through ``return`` (the frame).  The loop body runs as
        long as any lane remains.
        """
        active = mask.copy()
        exited = np.zeros(self.count, dtype=bool)
        ctx = _LoopCtx(self.count)
        frame = self.frames[-1]
        frame.loops.append(ctx)
        try:
            first = True
            while True:
                if cond is not None and (test_first or not first):
                    taken = self._truth(self._eval(cond, active))
                    if _is_arr(taken):
                        exited = exited | (active & ~taken)
                        active = active & taken
                    elif not taken:
                        exited = exited | active
                        active = np.zeros(self.count, dtype=bool)
                first = False
                if not active.any():
                    break
                active = self._exec_stmt(body, active)
                if ctx.continued.any():
                    active = active | ctx.continued
                    ctx.continued[:] = False
                if step is not None and active.any():
                    step(active)
        finally:
            frame.loops.pop()
        return exited | ctx.broken

    # -- expressions ---------------------------------------------------------

    def _eval(self, expr: ast.Expr, mask: np.ndarray) -> Any:
        kind = type(expr)
        if kind is ast.IntLiteral:
            return expr.value
        if kind is ast.FloatLiteral:
            return expr.value
        if kind is ast.Identifier:
            try:
                value = self.env[expr.name]
            except KeyError:
                raise KernelRuntimeError(
                    f"unbound identifier {expr.name!r}"
                ) from None
            bound = self.partially_bound.get(expr.name)
            if bound is not None and bool((mask & ~bound).any()):
                # An active lane reads a variable only ever assigned on
                # *other* lanes (e.g. in a divergent branch this lane never
                # took).  The scalar backend reports that kernel bug as
                # 'unbound identifier'; rerun there instead of silently
                # substituting the placeholder.
                raise self._fallback(
                    f"read of {expr.name!r} on a lane that never bound it",
                    expr)
            return value
        if kind is ast.BinaryOp:
            return self._eval_binary(expr, mask)
        if kind is ast.UnaryOp:
            return self._eval_unary(expr, mask)
        if kind is ast.PostfixOp:
            old = self._eval(expr.operand, mask)
            delta = 1 if expr.op == "++" else -1
            self._store(expr.operand, old + delta, mask)
            return old
        if kind is ast.Assignment:
            value = self._eval(expr.value, mask)
            if expr.op != "=":
                old = self._eval(expr.target, mask)
                value = self._binop(expr.op[:-1], old, value, mask, expr)
            self._store(expr.target, value, mask)
            return value
        if kind is ast.Conditional:
            return self._eval_conditional(expr, mask)
        if kind is ast.Index:
            return self._load(expr, mask)
        if kind is ast.Cast:
            return self._coerce(self._eval(expr.operand, mask), expr.type)
        if kind is ast.Call:
            return self._eval_call(expr, mask)
        raise self._fallback(f"unsupported expression {kind.__name__}", expr)

    def _eval_conditional(self, expr: ast.Conditional, mask: np.ndarray) -> Any:
        taken = self._truth(self._eval(expr.cond, mask))
        if not _is_arr(taken):
            branch = expr.then if taken else expr.otherwise
            return self._eval(branch, mask)
        then_mask = mask & taken
        else_mask = mask & ~taken
        then_val = self._eval(expr.then, then_mask) if then_mask.any() else None
        else_val = (self._eval(expr.otherwise, else_mask)
                    if else_mask.any() else None)
        if then_val is None and else_val is None:
            return 0
        if then_val is None:
            then_val = 0.0 if _is_float_kind(else_val) else 0
        elif else_val is None:
            else_val = 0.0 if _is_float_kind(then_val) else 0
        elif _is_float_kind(then_val) != _is_float_kind(else_val):
            # np.where would promote the int side to float64 on every lane;
            # the scalar oracle keeps each lane's own branch type (an int
            # lane then divides with C truncation).  Punt to the oracle.
            raise self._fallback("ternary with mixed int/float branch types",
                                 expr)
        return np.where(taken, then_val, else_val)

    def _eval_binary(self, expr: ast.BinaryOp, mask: np.ndarray) -> Any:
        op = expr.op
        if op in ("&&", "||"):
            return self._eval_logical(expr, mask, is_and=(op == "&&"))
        left = self._eval(expr.left, mask)
        right = self._eval(expr.right, mask)
        return self._binop(op, left, right, mask, expr)

    def _eval_logical(self, expr: ast.BinaryOp, mask: np.ndarray,
                      is_and: bool) -> Any:
        """Short-circuit semantics, per lane.

        The right operand is evaluated only under the lanes that need it
        (those where the left side did not already decide the result), which
        makes guard patterns like ``i < n && A[i] > 0`` safe: the clipped
        lanes never touch ``A`` out of bounds.
        """
        left = self._truth(self._eval(expr.left, mask))
        if not _is_arr(left):
            if bool(left) != is_and:
                # && with a false left / || with a true left: short circuit.
                return int(left)
            right = self._truth(self._eval(expr.right, mask))
            if _is_arr(right):
                return right.astype(np.int64)
            return int(right)
        need_right = mask & (left if is_and else ~left)
        if need_right.any():
            right = self._truth(self._eval(expr.right, need_right))
        else:
            right = False
        combined = (left & right) if is_and else (left | right)
        return combined.astype(np.int64)

    def _binop(self, op: str, left: Any, right: Any, mask: np.ndarray,
               node: Any = None) -> Any:
        if not _is_arr(left) and not _is_arr(right):
            return self._uniform_binop(op, left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return self._vec_div(left, right, mask)
        if op == "%":
            return self._vec_mod(left, right, mask)
        if op == "==":
            return (left == right).astype(np.int64)
        if op == "!=":
            return (left != right).astype(np.int64)
        if op == "<":
            return (left < right).astype(np.int64)
        if op == ">":
            return (left > right).astype(np.int64)
        if op == "<=":
            return (left <= right).astype(np.int64)
        if op == ">=":
            return (left >= right).astype(np.int64)
        if op == "<<" or op == ">>":
            # int64 lanes vs the oracle's unbounded Python ints: a count
            # outside [0, 64) is a ValueError (negative) or well-defined
            # (Python) where NumPy's C shift is undefined.  Rerun on the
            # scalar path, which gets both cases exactly right.
            amount = _as_int(right)
            if _is_arr(amount):
                if bool((mask & ((amount < 0) | (amount >= 64))).any()):
                    raise self._fallback(
                        "shift amount outside [0, 64) on an active lane",
                        node)
            elif not 0 <= amount < 64:
                raise self._fallback(
                    f"shift amount {amount} outside [0, 64)", node)
            shift = np.left_shift if op == "<<" else np.right_shift
            return shift(_as_int(left), amount)
        if op == "&":
            return np.bitwise_and(_as_int(left), _as_int(right))
        if op == "|":
            return np.bitwise_or(_as_int(left), _as_int(right))
        if op == "^":
            return np.bitwise_xor(_as_int(left), _as_int(right))
        if op == ",":
            return right
        raise self._fallback(f"unsupported binary operator {op!r}", node)

    @staticmethod
    def _uniform_binop(op: str, left: Any, right: Any) -> Any:
        """Uniform operands: the scalar interpreter's exact code path."""
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return c_div(left, right)
        if op == "%":
            return c_mod(left, right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == ">":
            return int(left > right)
        if op == "<=":
            return int(left <= right)
        if op == ">=":
            return int(left >= right)
        if op == "<<":
            return int(left) << int(right)
        if op == ">>":
            return int(left) >> int(right)
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        if op == ",":
            return right
        raise VectorizeFallback(f"unsupported binary operator {op!r}")

    def _check_active_zero(self, right: Any, mask: np.ndarray) -> None:
        """Match the scalar backend: dividing by zero on an *active* lane
        raises; inactive lanes may hold anything."""
        if _is_arr(right):
            if bool((mask & (right == 0)).any()):
                raise ZeroDivisionError("division by zero")
        elif right == 0 and bool(mask.any()):
            raise ZeroDivisionError("division by zero")

    def _vec_div(self, left: Any, right: Any, mask: np.ndarray) -> Any:
        self._check_active_zero(right, mask)
        if _is_float_kind(left) or _is_float_kind(right):
            return np.divide(left, right)
        quotient = np.floor_divide(left, right)
        # floor -> truncate toward zero, as C requires.
        inexact = quotient * right != left
        negative = (np.less(left, 0)) != (np.less(right, 0))
        return quotient + (inexact & negative)

    def _vec_mod(self, left: Any, right: Any, mask: np.ndarray) -> Any:
        self._check_active_zero(right, mask)
        if _is_float_kind(left) or _is_float_kind(right):
            return np.fmod(left, right)
        return left - self._vec_div(left, right, mask) * right

    def _eval_unary(self, expr: ast.UnaryOp, mask: np.ndarray) -> Any:
        op = expr.op
        if op in ("++", "--"):
            old = self._eval(expr.operand, mask)
            new = old + (1 if op == "++" else -1)
            self._store(expr.operand, new, mask)
            return new
        operand = self._eval(expr.operand, mask)
        if op == "-":
            return -operand
        if op == "!":
            truth = self._truth(operand)
            if _is_arr(truth):
                return (~truth).astype(np.int64)
            return int(not truth)
        if op == "~":
            return ~_as_int(operand)
        raise self._fallback(f"unsupported unary operator {op!r}", expr)

    # -- memory --------------------------------------------------------------

    def _buffer(self, expr: ast.Expr, mask: np.ndarray) -> np.ndarray:
        base = self._eval(expr, mask)
        if not isinstance(base, np.ndarray):
            raise self._fallback("subscript of a non-buffer value", expr)
        return base

    def _check_bounds(self, index: Any, limit: int, mask: np.ndarray) -> None:
        if _is_arr(index):
            bad = mask & ((index < 0) | (index >= limit))
            if bool(bad.any()):
                offending = int(index[bad][0])
                raise KernelRuntimeError(
                    f"out-of-bounds access: index {offending} into buffer of "
                    f"{limit} elements"
                )
        elif not 0 <= index < limit:
            raise KernelRuntimeError(
                f"out-of-bounds access: index {index} into buffer of "
                f"{limit} elements"
            )

    def _load(self, expr: ast.Index, mask: np.ndarray) -> Any:
        base = self._buffer(expr.base, mask)
        index = _as_int(self._eval(expr.index, mask))
        limit = base.shape[0]
        if not bool(mask.any()):
            return 0.0 if base.dtype.kind == "f" else 0
        self._check_bounds(index, limit, mask)
        if not _is_arr(index):
            value = base[index]
            return value.item() if isinstance(value, np.generic) else value
        gathered = base[np.where(mask, index, 0)]
        # Widen to interpreter precision, as the scalar ``.item()`` does.
        if gathered.dtype.kind == "f":
            return _as_float(gathered)
        return _as_int(gathered)

    def _store(self, target: ast.Expr, value: Any, mask: np.ndarray) -> None:
        if isinstance(target, ast.Identifier):
            current = self.env.get(target.name)
            if _is_float_kind(current):
                value = _as_float(value)
            elif current is not None and not _is_float_kind(current):
                ctype = self._ident_type(target.name)
                if ctype is not None and not ctype.is_float and not ctype.pointer:
                    value = _as_int(value)
            self._bind(target.name, value, mask)
            return
        if isinstance(target, ast.Index):
            self._store_element(target, value, mask)
            return
        raise self._fallback("unsupported assignment target", target)

    def _store_element(self, target: ast.Index, value: Any,
                       mask: np.ndarray) -> None:
        base = self._buffer(target.base, mask)
        if not bool(mask.any()):
            return
        index = _as_int(self._eval(target.index, mask))
        self._check_bounds(index, base.shape[0], mask)
        if not _is_arr(index):
            # All active lanes hit one slot; the scalar schedule makes the
            # *last* active lane the winner.
            if _is_arr(value):
                base[index] = value[mask][-1]
            else:
                base[index] = value
            return
        if bool(mask.all()):
            base[index] = value
        elif _is_arr(value):
            base[index[mask]] = value[mask]
        else:
            base[index[mask]] = value

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, expr: ast.Call, mask: np.ndarray) -> Any:
        name = expr.name
        if name in _WORK_ITEM_QUERIES:
            return self._work_item_query(name, expr, mask)
        if name == "get_work_dim":
            return self.ndrange.work_dim
        if name in MATH_IMPLS:
            return self._math_call(name, expr, mask)
        if name in INT_IMPLS:
            args = [self._eval(arg, mask) for arg in expr.args]
            if not any(_is_arr(arg) for arg in args):
                return INT_IMPLS[name](*args)
            return _VEC_INT[name](*args)
        if name in self.info.user_functions:
            return self._call_user_function(name, expr, mask)
        raise self._fallback(f"call to unsupported function {name!r}", expr)

    def _work_item_query(self, name: str, expr: ast.Call,
                         mask: np.ndarray) -> Any:
        dim_value = self._eval(expr.args[0], mask) if expr.args else 0
        if _is_arr(dim_value):
            raise self._fallback(f"{name} with a divergent dimension argument",
                                 expr)
        dim = int(dim_value)
        nd = self.ndrange
        if name == "get_global_id":
            return self.lanes.global_[dim] if dim < nd.work_dim else 0
        if name == "get_local_id":
            return self.lanes.local[dim] if dim < nd.work_dim else 0
        if name == "get_group_id":
            return self.lanes.group[dim] if dim < nd.work_dim else 0
        if name == "get_global_size":
            return nd.global_size[dim] if dim < nd.work_dim else 1
        if name == "get_local_size":
            return nd.local_size[dim] if dim < nd.work_dim else 1
        if name == "get_num_groups":
            return nd.num_groups[dim] if dim < nd.work_dim else 1
        if name == "get_global_offset":
            return nd.offset[dim] if dim < nd.work_dim else 0
        raise self._fallback(f"unknown work-item query {name}", expr)

    def _math_call(self, name: str, expr: ast.Call, mask: np.ndarray) -> Any:
        """Evaluate a math builtin on the *active* lanes only.

        Lanes masked off by divergent control flow never reach the builtin
        in the scalar schedule, so they must not be able to raise here
        (``log`` of a guarded-out negative, ``exp`` overflow, ...).  Array
        arguments are compressed to the active lanes before the call and
        the result is scattered back, with inactive lanes holding a zero
        placeholder that masked stores/blends never observe.  An error on
        an *active* lane — where the scalar backend would raise — reverts
        the launch to the scalar path so the oracle's exact exception and
        partial buffer state are reproduced.
        """
        args = [_as_float(self._eval(arg, mask)) for arg in expr.args]
        if not any(_is_arr(arg) for arg in args):
            if not bool(mask.any()):
                return 0.0
            try:
                return MATH_IMPLS[name](*args)
            except _MATH_ERRORS as exc:
                raise self._fallback(f"math builtin {name!r}: {exc}", expr) from exc
        if not bool(mask.any()):
            return np.zeros(self.count, dtype=np.float64)
        full = bool(mask.all())
        packed = args if full else \
            [arg[mask] if _is_arr(arg) else arg for arg in args]
        check = _MATH_DOMAIN_CHECKS.get(name)
        if check is not None and bool(np.any(check(*packed))):
            raise self._fallback(
                f"math builtin {name!r}: domain error on an active lane", expr)
        try:
            if name in _NATIVE_MATH:
                result = _NATIVE_MATH[name](*packed)
            elif name in _INT_RESULT_MATH:
                result = _as_int(_INT_RESULT_MATH[name](*packed))
            else:
                result = _WRAPPED_MATH[name](*packed)
        except _MATH_ERRORS as exc:
            raise self._fallback(f"math builtin {name!r}: {exc}", expr) from exc
        if full:
            return result
        out = np.zeros(self.count, dtype=result.dtype)
        out[mask] = result
        return out

    def _call_user_function(self, name: str, expr: ast.Call,
                            mask: np.ndarray) -> Any:
        callee = self.info.user_functions[name]
        values = [self._eval(arg, mask) for arg in expr.args]
        saved_env = self.env
        saved_partial = self.partially_bound
        saved_info = self.info
        self.env = {}
        self.partially_bound = {}
        for param, value in zip(callee.kernel.params, values):
            self.env[param.name] = (
                value if param.type.pointer else self._coerce(value, param.type)
            )
        self.info = callee
        frame = _Frame(self.count)
        self.frames.append(frame)
        try:
            self._exec_stmt(callee.kernel.body, mask)
        finally:
            self.frames.pop()
            self.env = saved_env
            self.partially_bound = saved_partial
            self.info = saved_info
        if callee.kernel.return_type.name == "void":
            return None
        missed = mask & ~frame.returned
        if bool(missed.any()) or frame.value is None:
            raise KernelRuntimeError(
                f"helper function {name!r} ended without returning a value"
            )
        return frame.value
