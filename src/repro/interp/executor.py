"""Functional OpenCL-C kernel interpreter.

Executes parsed kernels over NumPy buffers with full OpenCL work-group
semantics: per-work-item private variables, per-work-group ``__local``
memory, ``barrier(CLK_LOCAL_MEM_FENCE)`` synchronisation, and atomic
operations on local and global memory.

The interpreter exists to demonstrate *correctness* of Dopia's malleable
code transformation (paper §6): the transformed kernel must compute the
same buffers as the original for every throttle setting
``(dop_gpu_mod, dop_gpu_alloc)``.  Performance numbers come from
:mod:`repro.sim`, not from here.

Work-items that may block on a barrier are run as Python generators and
scheduled cooperatively: every item in a work-group runs until it either
finishes or yields at a barrier; once all unfinished items have reached the
barrier, execution resumes.  Kernels without barriers take a fast path
running each item to completion in turn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from ..frontend import ast
from ..frontend.semantics import KernelInfo, analyze_kernel
from .builtins import INT_IMPLS, MATH_IMPLS, c_div, c_mod
from .ndrange import NDRange
from .stats import execution_stats


class KernelRuntimeError(Exception):
    """Raised when kernel execution hits an unsupported or invalid operation."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    """Unwinds a function body; ``value`` carries the return expression."""

    def __init__(self, value=None):
        self.value = value
        super().__init__()


@dataclass
class ArrayRef:
    """A pointer value: a NumPy array plus an element offset."""

    array: np.ndarray
    offset: int = 0


class _BarrierDesync(KernelRuntimeError):
    """Raised when work-items of a group disagree on barrier arrival."""


class WorkGroupContext:
    """Shared per-work-group state: local memory and the group's identity."""

    def __init__(self, executor: "KernelExecutor", group_id: tuple[int, ...]):
        self.executor = executor
        self.group_id = group_id
        self.local_arrays: dict[str, np.ndarray] = {}
        for name, (dtype, size) in executor.local_array_specs.items():
            self.local_arrays[name] = np.zeros(size, dtype=dtype)


class WorkItemContext:
    """Per-work-item identity and private variable environment."""

    __slots__ = ("group", "local_id", "env")

    def __init__(self, group: WorkGroupContext, local_id: tuple[int, ...]):
        self.group = group
        self.local_id = local_id
        self.env: dict[str, Any] = {}

    # -- id queries (the OpenCL work-item functions) -------------------------

    def global_id(self, dim: int) -> int:
        nd = self.group.executor.ndrange
        if dim >= nd.work_dim:
            return 0
        return (
            nd.offset[dim]
            + self.group.group_id[dim] * nd.local_size[dim]
            + self.local_id[dim]
        )

    def query(self, name: str, dim: int) -> int:
        nd = self.group.executor.ndrange
        if name == "get_global_id":
            return self.global_id(dim)
        if name == "get_local_id":
            return self.local_id[dim] if dim < nd.work_dim else 0
        if name == "get_group_id":
            return self.group.group_id[dim] if dim < nd.work_dim else 0
        if name == "get_global_size":
            return nd.global_size[dim] if dim < nd.work_dim else 1
        if name == "get_local_size":
            return nd.local_size[dim] if dim < nd.work_dim else 1
        if name == "get_num_groups":
            return nd.num_groups[dim] if dim < nd.work_dim else 1
        if name == "get_global_offset":
            return nd.offset[dim] if dim < nd.work_dim else 0
        if name == "get_work_dim":
            return nd.work_dim
        raise KernelRuntimeError(f"unknown work-item query {name}")


_INT_TYPE_NAMES = frozenset(
    {"int", "uint", "long", "ulong", "short", "ushort", "char", "uchar",
     "size_t", "ptrdiff_t", "bool"}
)


class KernelExecutor:
    """Executes one kernel over an ND-range.

    Parameters
    ----------
    info:
        Semantic analysis result for the kernel.
    args:
        Maps parameter names to values: NumPy 1-D arrays for pointer
        parameters, Python scalars for value parameters.
    ndrange:
        The launch geometry.
    """

    def __init__(self, info: KernelInfo, args: dict[str, Any], ndrange: NDRange):
        self.info = info
        self.ndrange = ndrange
        self.args: dict[str, Any] = {}
        for param in info.kernel.params:
            if param.name not in args:
                raise KernelRuntimeError(f"missing kernel argument {param.name!r}")
            value = args[param.name]
            if param.type.pointer:
                if not isinstance(value, np.ndarray):
                    raise KernelRuntimeError(
                        f"argument {param.name!r} must be a NumPy array"
                    )
                self.args[param.name] = value
            else:
                self.args[param.name] = (
                    int(value) if param.type.name in _INT_TYPE_NAMES else float(value)
                )
        self.local_array_specs = self._collect_local_arrays()

    # -- local (__local) array discovery ------------------------------------

    def _collect_local_arrays(self) -> dict[str, tuple[np.dtype, int]]:
        specs: dict[str, tuple[np.dtype, int]] = {}
        for node in ast.walk(self.info.kernel.body):
            if isinstance(node, ast.DeclStmt):
                for decl in node.decls:
                    if decl.type.address_space == "local" and decl.array_dims:
                        size = 1
                        for dim in decl.array_dims:
                            if not isinstance(dim, ast.IntLiteral):
                                raise KernelRuntimeError(
                                    "local array sizes must be literals"
                                )
                            size *= dim.value
                        dtype = (
                            np.float32 if decl.type.is_float else np.int64
                        )
                        specs[decl.name] = (np.dtype(dtype), size)
        return specs

    # -- group scheduling ------------------------------------------------------

    def run(self, group_ids: Optional[Iterable[tuple[int, ...]]] = None) -> None:
        """Execute the kernel for all (or the given) work-groups."""
        if group_ids is None:
            group_ids = self.ndrange.group_ids()
        for group_id in group_ids:
            self.run_group(group_id)

    def run_group(self, group_id: tuple[int, ...]) -> None:
        """Execute one work-group, honouring barriers if present."""
        started = time.perf_counter()
        self._run_group(group_id)
        execution_stats.record_run(
            self.info.kernel.name, "scalar",
            self.ndrange.work_items_per_group,
            time.perf_counter() - started,
        )

    def _run_group(self, group_id: tuple[int, ...]) -> None:
        group = WorkGroupContext(self, group_id)
        items = [
            WorkItemContext(group, local_id) for local_id in self.ndrange.local_ids()
        ]
        if not self.info.uses_barrier:
            for item in items:
                self._run_item_to_completion(item)
            return
        # Cooperative scheduling: each item is a generator yielding at
        # barriers.  All non-finished items must reach the same barrier.
        runners = [self._item_generator(item) for item in items]
        active = list(range(len(runners)))
        while active:
            arrived: list[int] = []
            finished: list[int] = []
            for index in active:
                try:
                    next(runners[index])
                    arrived.append(index)
                except StopIteration:
                    finished.append(index)
            if arrived and finished:
                # OpenCL requires barriers to be encountered uniformly by
                # all work-items of the group that are still executing; a
                # mix of finished and blocked items is how real code hangs.
                raise _BarrierDesync(
                    "work-items of a group diverged at a barrier"
                )
            active = arrived

    def _run_item_to_completion(self, item: WorkItemContext) -> None:
        for _ in self._item_generator(item):
            raise _BarrierDesync("barrier in kernel marked barrier-free")

    def _item_generator(self, item: WorkItemContext):
        for param in self.info.kernel.params:
            item.env[param.name] = self.args[param.name]
        for name, array in item.group.local_arrays.items():
            item.env[name] = array
        try:
            yield from self._exec_stmt(self.info.kernel.body, item)
        except _Return:
            pass

    # -- statements -------------------------------------------------------------

    def _exec_stmt(self, stmt: ast.Stmt, item: WorkItemContext):
        if isinstance(stmt, ast.Block):
            for inner in stmt.body:
                yield from self._exec_stmt(inner, item)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                if decl.type.address_space == "local":
                    continue  # already bound to the shared group array
                if decl.array_dims:
                    size = 1
                    for dim in decl.array_dims:
                        size *= int(self._eval(dim, item))
                    dtype = np.float64 if decl.type.is_float else np.int64
                    item.env[decl.name] = np.zeros(size, dtype=dtype)
                elif decl.init is not None:
                    value = self._eval(decl.init, item)
                    item.env[decl.name] = self._coerce(value, decl.type)
                else:
                    item.env[decl.name] = 0.0 if decl.type.is_float else 0
        elif isinstance(stmt, ast.ExprStmt):
            if self._is_barrier(stmt.expr):
                yield "barrier"
            else:
                self._eval(stmt.expr, item)
        elif isinstance(stmt, ast.If):
            if self._truthy(self._eval(stmt.cond, item)):
                yield from self._exec_stmt(stmt.then, item)
            elif stmt.otherwise is not None:
                yield from self._exec_stmt(stmt.otherwise, item)
        elif isinstance(stmt, ast.For):
            yield from self._exec_for(stmt, item)
        elif isinstance(stmt, ast.While):
            while self._truthy(self._eval(stmt.cond, item)):
                try:
                    yield from self._exec_stmt(stmt.body, item)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                try:
                    yield from self._exec_stmt(stmt.body, item)
                except _Break:
                    break
                except _Continue:
                    pass
                if not self._truthy(self._eval(stmt.cond, item)):
                    break
        elif isinstance(stmt, ast.Return):
            raise _Return(
                self._eval(stmt.value, item) if stmt.value is not None else None
            )
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        else:  # pragma: no cover - parser cannot produce other nodes
            raise KernelRuntimeError(f"unsupported statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.For, item: WorkItemContext):
        if stmt.init is not None:
            if isinstance(stmt.init, ast.DeclStmt):
                for _ in self._exec_stmt(stmt.init, item):
                    pass  # declarations cannot yield
            elif isinstance(stmt.init, ast.ExprStmt):
                self._eval(stmt.init.expr, item)
        while stmt.cond is None or self._truthy(self._eval(stmt.cond, item)):
            try:
                yield from self._exec_stmt(stmt.body, item)
            except _Break:
                break
            except _Continue:
                pass
            if stmt.step is not None:
                self._eval(stmt.step, item)

    @staticmethod
    def _is_barrier(expr: ast.Expr) -> bool:
        return isinstance(expr, ast.Call) and expr.name in ("barrier", "mem_fence")

    # -- expressions -------------------------------------------------------------

    def _truthy(self, value: Any) -> bool:
        return bool(value)

    def _coerce(self, value: Any, ctype: ast.CType) -> Any:
        if ctype.pointer:
            return value
        if ctype.is_float:
            return float(value)
        return int(value)

    def _eval(self, expr: ast.Expr, item: WorkItemContext) -> Any:
        kind = type(expr)
        if kind is ast.IntLiteral:
            return expr.value
        if kind is ast.FloatLiteral:
            return expr.value
        if kind is ast.Identifier:
            try:
                return item.env[expr.name]
            except KeyError:
                raise KernelRuntimeError(
                    f"unbound identifier {expr.name!r}"
                ) from None
        if kind is ast.BinaryOp:
            return self._eval_binary(expr, item)
        if kind is ast.UnaryOp:
            return self._eval_unary(expr, item)
        if kind is ast.PostfixOp:
            old = self._eval(expr.operand, item)
            delta = 1 if expr.op == "++" else -1
            self._store(expr.operand, old + delta, item)
            return old
        if kind is ast.Assignment:
            return self._eval_assignment(expr, item)
        if kind is ast.Conditional:
            if self._truthy(self._eval(expr.cond, item)):
                return self._eval(expr.then, item)
            return self._eval(expr.otherwise, item)
        if kind is ast.Index:
            ref = self._resolve_ref(expr, item)
            value = ref.array[ref.offset]
            return value.item() if isinstance(value, np.generic) else value
        if kind is ast.Cast:
            return self._coerce(self._eval(expr.operand, item), expr.type)
        if kind is ast.Call:
            return self._eval_call(expr, item)
        raise KernelRuntimeError(f"unsupported expression {kind.__name__}")

    def _eval_binary(self, expr: ast.BinaryOp, item: WorkItemContext) -> Any:
        op = expr.op
        if op == "&&":
            return int(
                self._truthy(self._eval(expr.left, item))
                and self._truthy(self._eval(expr.right, item))
            )
        if op == "||":
            return int(
                self._truthy(self._eval(expr.left, item))
                or self._truthy(self._eval(expr.right, item))
            )
        left = self._eval(expr.left, item)
        right = self._eval(expr.right, item)
        if op == "+" or op == "-":
            # Pointer arithmetic lands here: adding to a NumPy buffer would
            # silently produce an *element-wise* result, and ArrayRef has no
            # ``+`` at all, so both pointer shapes are detected after the
            # fact — keeping the scalar fast path free of isinstance checks.
            try:
                value = left + right if op == "+" else left - right
            except TypeError:
                return self._pointer_arith(op, left, right)
            if value.__class__ is np.ndarray:
                return self._pointer_arith(op, left, right)
            return value
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
        raise KernelRuntimeError(f"unsupported binary operator {op!r}")

    def _pointer_arith(self, op: str, left: Any, right: Any) -> Any:
        """C pointer arithmetic: ``ptr ± int`` offsets the pointer (the
        resulting :class:`ArrayRef` is bounds-checked when dereferenced, as
        in C, where merely *forming* a past-the-end pointer is allowed);
        ``ptr - ptr`` is an element difference within one buffer.  Anything
        else — and notably what NumPy would silently turn into element-wise
        arithmetic — is a kernel error.
        """

        def as_ref(value: Any) -> ArrayRef:
            return value if isinstance(value, ArrayRef) else ArrayRef(value, 0)

        left_ptr = isinstance(left, (np.ndarray, ArrayRef))
        right_ptr = isinstance(right, (np.ndarray, ArrayRef))
        if op == "-" and left_ptr and right_ptr:
            lref, rref = as_ref(left), as_ref(right)
            if lref.array is not rref.array:
                raise KernelRuntimeError(
                    "subtraction of pointers into different buffers"
                )
            return lref.offset - rref.offset
        if op in ("+", "-") and left_ptr and not right_ptr:
            ref = as_ref(left)
            delta = int(right)
            return ArrayRef(ref.array, ref.offset + (delta if op == "+" else -delta))
        if op == "+" and right_ptr and not left_ptr:
            ref = as_ref(right)
            return ArrayRef(ref.array, ref.offset + int(left))
        raise KernelRuntimeError(
            f"invalid pointer operand to binary {op!r}"
        )

    def _deref(self, ref: ArrayRef) -> ArrayRef:
        """Bounds-check a pointer before it is read or written through."""
        if not 0 <= ref.offset < ref.array.shape[0]:
            raise KernelRuntimeError(
                f"out-of-bounds pointer access: offset {ref.offset} into "
                f"buffer of {ref.array.shape[0]} elements"
            )
        return ref

    def _eval_unary(self, expr: ast.UnaryOp, item: WorkItemContext) -> Any:
        if expr.op in ("++", "--"):
            old = self._eval(expr.operand, item)
            new = old + (1 if expr.op == "++" else -1)
            self._store(expr.operand, new, item)
            return new
        operand = self._eval(expr.operand, item)
        if expr.op == "-":
            return -operand
        if expr.op == "!":
            return int(not self._truthy(operand))
        if expr.op == "~":
            return ~int(operand)
        if expr.op == "*":
            if isinstance(operand, np.ndarray):
                operand = ArrayRef(operand, 0)
            if isinstance(operand, ArrayRef):
                ref = self._deref(operand)
                value = ref.array[ref.offset]
                return value.item() if isinstance(value, np.generic) else value
            raise KernelRuntimeError("dereference of non-pointer value")
        if expr.op == "&":
            return self._resolve_ref(expr.operand, item)
        raise KernelRuntimeError(f"unsupported unary operator {expr.op!r}")

    _COMPOUND = {
        "+=": lambda a, b: a + b,
        "-=": lambda a, b: a - b,
        "*=": lambda a, b: a * b,
        "/=": c_div,
        "%=": c_mod,
        "&=": lambda a, b: int(a) & int(b),
        "|=": lambda a, b: int(a) | int(b),
        "^=": lambda a, b: int(a) ^ int(b),
        "<<=": lambda a, b: int(a) << int(b),
        ">>=": lambda a, b: int(a) >> int(b),
    }

    def _eval_assignment(self, expr: ast.Assignment, item: WorkItemContext) -> Any:
        value = self._eval(expr.value, item)
        if expr.op != "=":
            old = self._eval(expr.target, item)
            value = self._COMPOUND[expr.op](old, value)
        self._store(expr.target, value, item)
        return value

    def _store(self, target: ast.Expr, value: Any, item: WorkItemContext) -> None:
        if isinstance(target, ast.Identifier):
            current = item.env.get(target.name)
            if isinstance(current, float):
                value = float(value)
            elif isinstance(current, int) and not isinstance(value, (ArrayRef, np.ndarray)):
                ctype = self._ident_type(target.name)
                if ctype is not None and not ctype.is_float and not ctype.pointer:
                    value = int(value)
            item.env[target.name] = value
            return
        if isinstance(target, ast.Index):
            ref = self._resolve_ref(target, item)
            ref.array[ref.offset] = value
            return
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer = self._eval(target.operand, item)
            if isinstance(pointer, np.ndarray):
                pointer = ArrayRef(pointer, 0)
            if isinstance(pointer, ArrayRef):
                ref = self._deref(pointer)
                ref.array[ref.offset] = value
                return
        raise KernelRuntimeError("invalid assignment target")

    def _ident_type(self, name: str) -> Optional[ast.CType]:
        symbol = self.info.symbols.lookup(name)
        return symbol.type if symbol is not None else None

    def _resolve_ref(self, expr: ast.Index, item: WorkItemContext) -> ArrayRef:
        base = self._eval(expr.base, item)
        index = int(self._eval(expr.index, item))
        if isinstance(base, np.ndarray):
            if not 0 <= index < base.shape[0]:
                raise KernelRuntimeError(
                    f"out-of-bounds access: index {index} into buffer of "
                    f"{base.shape[0]} elements"
                )
            return ArrayRef(base, index)
        if isinstance(base, ArrayRef):
            offset = base.offset + index
            if not 0 <= offset < base.array.shape[0]:
                raise KernelRuntimeError("out-of-bounds pointer access")
            return ArrayRef(base.array, offset)
        raise KernelRuntimeError("subscript of non-array value")

    def _eval_call(self, expr: ast.Call, item: WorkItemContext) -> Any:
        name = expr.name
        if name in (
            "get_global_id", "get_local_id", "get_group_id", "get_global_size",
            "get_local_size", "get_num_groups", "get_global_offset",
        ):
            dim = int(self._eval(expr.args[0], item)) if expr.args else 0
            return item.query(name, dim)
        if name == "get_work_dim":
            return self.ndrange.work_dim
        if name in ("barrier", "mem_fence"):
            raise KernelRuntimeError(
                "barrier used in expression position; barriers must be "
                "standalone statements"
            )
        if name.startswith("atomic_"):
            return self._eval_atomic(name, expr, item)
        if name in MATH_IMPLS:
            args = [float(self._eval(a, item)) for a in expr.args]
            return MATH_IMPLS[name](*args)
        if name in INT_IMPLS:
            args = [self._eval(a, item) for a in expr.args]
            return INT_IMPLS[name](*args)
        if name in self.info.user_functions:
            return self._call_user_function(name, expr, item)
        raise KernelRuntimeError(f"call to unsupported function {name!r}")

    def _call_user_function(self, name: str, expr: ast.Call,
                            item: WorkItemContext) -> Any:
        """Execute a helper function in a fresh scope (no barriers inside)."""
        callee = self.info.user_functions[name]
        if callee.uses_barrier:
            raise KernelRuntimeError(
                f"helper function {name!r} contains a barrier; barriers are "
                "only supported at kernel scope"
            )
        values = [self._eval(a, item) for a in expr.args]
        saved_env = item.env
        saved_info = self.info
        item.env = {}
        for param, value in zip(callee.kernel.params, values):
            item.env[param.name] = (
                value if param.type.pointer
                else self._coerce(value, param.type)
            )
        self.info = callee
        try:
            for _ in self._exec_stmt(callee.kernel.body, item):
                raise KernelRuntimeError("barrier inside helper function")
            result = None
        except _Return as ret:
            result = ret.value
        finally:
            item.env = saved_env
            self.info = saved_info
        if result is None and callee.kernel.return_type.name != "void":
            raise KernelRuntimeError(
                f"helper function {name!r} ended without returning a value"
            )
        return result

    def _eval_atomic(self, name: str, expr: ast.Call, item: WorkItemContext) -> int:
        pointer = self._eval(expr.args[0], item)
        if isinstance(pointer, np.ndarray):
            pointer = ArrayRef(pointer, 0)
        if not isinstance(pointer, ArrayRef):
            raise KernelRuntimeError(f"{name} requires a pointer argument")
        pointer = self._deref(pointer)
        old = int(pointer.array[pointer.offset])
        if name == "atomic_inc":
            new = old + 1
        elif name == "atomic_dec":
            new = old - 1
        elif name == "atomic_add":
            new = old + int(self._eval(expr.args[1], item))
        elif name == "atomic_sub":
            new = old - int(self._eval(expr.args[1], item))
        elif name == "atomic_xchg":
            new = int(self._eval(expr.args[1], item))
        elif name == "atomic_min":
            new = min(old, int(self._eval(expr.args[1], item)))
        elif name == "atomic_max":
            new = max(old, int(self._eval(expr.args[1], item)))
        elif name == "atomic_cmpxchg":
            cmp = int(self._eval(expr.args[1], item))
            val = int(self._eval(expr.args[2], item))
            new = val if old == cmp else old
        else:
            raise KernelRuntimeError(f"unsupported atomic {name!r}")
        pointer.array[pointer.offset] = new
        return old


def execute_kernel(
    info_or_source: KernelInfo | str,
    args: dict[str, Any],
    ndrange: NDRange,
    group_ids: Optional[Iterable[tuple[int, ...]]] = None,
    kernel_name: str | None = None,
    backend: str | None = None,
) -> None:
    """Execute a kernel (from source text or a :class:`KernelInfo`).

    Buffers in ``args`` are mutated in place, like real OpenCL global
    memory.  ``group_ids`` restricts execution to a subset of work-groups
    — the primitive Dopia's dynamic scheduler (Algorithm 1) is built on.
    ``backend`` picks the execution strategy
    (``auto``/``jit``/``scalar``, default from
    ``DOPIA_BACKEND``); see :func:`repro.interp.make_executor`.
    """
    if isinstance(info_or_source, str):
        from ..frontend.parser import parse

        unit = parse(info_or_source)
        kernels = unit.kernels()
        if kernel_name is not None:
            kernel = unit.kernel(kernel_name)
        elif len(kernels) == 1:
            kernel = kernels[0]
        else:
            raise KernelRuntimeError(
                f"source defines {len(kernels)} kernels; pass kernel_name"
            )
        info = analyze_kernel(kernel, unit)
    else:
        info = info_or_source
    from .backend import make_executor

    make_executor(info, args, ndrange, backend=backend).run(group_ids)
