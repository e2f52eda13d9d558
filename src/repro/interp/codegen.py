"""JIT tier: trace-compile eligible kernels to NumPy programs.

This module lowers an eligible kernel AST plus one concrete launch (a
:class:`repro.analysis.verify.LaunchSpec`) to Python/NumPy *source*,
``exec``-compiles it once, and caches the compiled function per
(kernel, launch shape, buffer dtypes).  Every private variable becomes a
NumPy array over the work-items of a batch ("lanes").

Specialization model (KLARAPTOR-style per-launch-shape programs):

* every scalar kernel argument and the full ND-range geometry are
  compile-time constants folded into the generated source;
* ``get_global_id``/``get_local_id``/``get_group_id`` become ``int64``
  index arrays passed in per batch (:class:`repro.interp.backend.Lanes`,
  whose lane order — and therefore "last writer wins" — is identical to
  the scalar schedule);
* uniform control flow (loops and branches whose conditions do not vary
  across lanes) compiles to plain Python ``while``/``if`` around
  whole-array expressions — **no per-lane masks**;
* divergent control flow compiles Triton-style: one boolean mask per
  branch nest, with gathers clamped and scatters compressed under it.
  A lane-varying loop keeps a loop mask (``m = ctx.mask & cond``) and
  iterates while ``m.any()``; divergent ``break``/``continue`` clear
  their lanes from the loop mask and a divergent ``return`` clears them
  from a kernel-wide live mask.  For most registry kernels the only
  divergence is the boundary guard, so the mask materializes exactly on
  the ragged edge of the launch; SpMV and PageRank loop to a bound read
  from a buffer and run their row loops masked.

An interval analysis over single-assignment integers proves guards like
``if (i < n)`` true at compile time whenever the launch is exact
(``get_global_id(0)`` ranges over ``[offset, offset+gsize)``), which
erases both the guard and its mask.  The same intervals prove most
affine accesses in bounds, eliding the bounds check per access; when
that local proof fails, a cached OOB-clean verdict from
:func:`repro.analysis.verify.verify_launch_cached` elides the check for
the whole kernel.  ``unknown``/dirty verdicts keep the checks, and a
kernel with an address read from memory (SpMV's ``x[colidx[j]]``) never
asks: :func:`~repro.analysis.verify.oob_may_be_clean` says its verdict
cannot be clean.

Exactness contract: generated code computes in the oracle's precision
and through the same primitives (int64/float64 lanes, ``c_div``
truncation, ``math``-module transcendentals, loads widened like
``.item()``); :mod:`repro.interp.backend` documents the bit-identity
envelope against the scalar oracle.  Anything the compiler cannot lower
it refuses at compile time (:class:`JitUnsupported`) and the launch runs
on the oracle; any runtime surprise — a guard trip, a domain error, even
a compiler bug — restores the pre-run buffer snapshot and re-runs the
launch on the oracle, so behaviour can never regress, only speed.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from ..frontend import ast
from ..frontend.semantics import KernelInfo, WORK_ITEM_BUILTINS
from ..obs import tracer
from .backend import (
    INT_RESULT_MATH,
    LANE_INT,
    MATH_DOMAIN_CHECKS,
    MATH_ERRORS,
    MAX_LANES_PER_BATCH,
    NATIVE_MATH,
    WRAPPED_MATH,
    Lanes,
)
from .builtins import INT_IMPLS, MATH_IMPLS, c_div, c_mod
from .executor import _INT_TYPE_NAMES, KernelExecutor
from .ndrange import NDRange
from .stats import execution_stats

__all__ = [
    "CompiledKernel",
    "JitExecutor",
    "JitUnsupported",
    "compile_cached",
    "compile_kernel",
    "jit_cache_stats",
]


class JitUnsupported(Exception):
    """The kernel (or this launch of it) is outside the JIT subset.

    Raised — and negatively cached — at compile time; the caller runs
    the scalar oracle.  ``location`` points at the offending construct.
    """

    def __init__(self, why: str, location=None):
        super().__init__(why)
        self.location = location


class JitRuntimeGuard(Exception):
    """A runtime check in generated code tripped (OOB, shift range, ...).

    Never escapes :meth:`JitExecutor.run`: the executor restores the
    buffer snapshot and re-runs on the scalar oracle, which reproduces
    the exact behaviour (including its exception, if any).  ``location``
    is the ``"line:column"`` of the guarded construct.
    """

    def __init__(self, why: str, location: Optional[str] = None):
        super().__init__(why)
        self.location = location


#: Interval bounds beyond this are dropped: lane arithmetic runs in
#: int64, so proofs must stay well inside its range to stay sound.
_RANGE_LIMIT = 1 << 62

_WORK_ITEM_QUERIES = frozenset(WORK_ITEM_BUILTINS) - {"get_work_dim"}

#: Maps get_* query name -> (_Lanes attribute, generated parameter prefix).
_ID_ATTRS = {
    "get_global_id": ("global_", "_g"),
    "get_local_id": ("local", "_l"),
    "get_group_id": ("group", "_grp"),
}


# ---------------------------------------------------------------------------
# Runtime support library for generated code
# ---------------------------------------------------------------------------


def _widen(value: np.ndarray) -> Any:
    if value.dtype.kind == "f":
        return value if value.dtype == np.float64 else value.astype(np.float64)
    return value if value.dtype == np.int64 else value.astype(np.int64)


class _Runtime:
    """Helpers the generated source calls as ``rt.<name>(...)``.

    Every guard raises :class:`JitRuntimeGuard` (or a natural Python
    error), which the executor converts into a transparent oracle
    re-run — so these helpers only need to *detect* divergence from the
    oracle, never to reproduce its exact exception.  Each guard takes the
    source location ``at`` of its construct for the fallback record.
    """

    JitRuntimeGuard = JitRuntimeGuard

    @staticmethod
    def as_int(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return value if value.dtype == np.int64 else value.astype(np.int64)
        return int(value)

    @staticmethod
    def as_float(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return value if value.dtype == np.float64 \
                else value.astype(np.float64)
        return float(value)

    # -- memory --------------------------------------------------------------

    @staticmethod
    def load_u(base: np.ndarray, idx: Any, mask: Any, limit: Any,
               at: Optional[str]) -> Any:
        if mask is not None and not mask.any():
            return 0.0 if base.dtype.kind == "f" else 0
        if limit is not None and not 0 <= idx < limit:
            raise JitRuntimeGuard(f"uniform load index {idx} out of bounds",
                                  at)
        value = base[idx]
        return value.item() if isinstance(value, np.generic) else value

    @staticmethod
    def gather(base: np.ndarray, idx: Any, mask: Any, limit: Any,
               at: Optional[str]) -> Any:
        if not isinstance(idx, np.ndarray):
            return _Runtime.load_u(base, idx, mask, limit, at)
        if limit is not None:
            bad = (idx < 0) | (idx >= limit)
            if mask is not None:
                bad = bad & mask
            if bad.any():
                raise JitRuntimeGuard("gather index out of bounds", at)
        if mask is not None:
            idx = np.where(mask, idx, 0)
        return _widen(base[idx])

    @staticmethod
    def store_u(base: np.ndarray, idx: Any, value: Any, mask: Any,
                limit: Any, at: Optional[str]) -> None:
        if mask is not None and not mask.any():
            return
        if limit is not None and not 0 <= idx < limit:
            raise JitRuntimeGuard(f"uniform store index {idx} out of bounds",
                                  at)
        if isinstance(value, np.ndarray):
            selected = value if mask is None else value[mask]
            if selected.size:
                base[idx] = selected[-1]
        else:
            base[idx] = value

    @staticmethod
    def scatter(base: np.ndarray, idx: Any, value: Any, mask: Any,
                limit: Any, at: Optional[str]) -> None:
        if not isinstance(idx, np.ndarray):
            _Runtime.store_u(base, idx, value, mask, limit, at)
            return
        if limit is not None:
            bad = (idx < 0) | (idx >= limit)
            if mask is not None:
                bad = bad & mask
            if bad.any():
                raise JitRuntimeGuard("scatter index out of bounds", at)
        if mask is None:
            base[idx] = value
        elif isinstance(value, np.ndarray):
            base[idx[mask]] = value[mask]
        else:
            base[idx[mask]] = value

    # -- arithmetic guards ---------------------------------------------------

    @staticmethod
    def div(left: Any, right: Any, mask: Any, at: Optional[str]) -> Any:
        _Runtime._active_zero(right, mask, at)
        if _isf(left) or _isf(right):
            return np.divide(left, right)
        quotient = np.floor_divide(left, right)
        inexact = quotient * right != left
        negative = (np.less(left, 0)) != (np.less(right, 0))
        return quotient + (inexact & negative)

    @staticmethod
    def mod(left: Any, right: Any, mask: Any, at: Optional[str]) -> Any:
        _Runtime._active_zero(right, mask, at)
        if _isf(left) or _isf(right):
            return np.fmod(left, right)
        quotient = np.floor_divide(left, right)
        inexact = quotient * right != left
        negative = (np.less(left, 0)) != (np.less(right, 0))
        return left - (quotient + (inexact & negative)) * right

    @staticmethod
    def _active_zero(right: Any, mask: Any, at: Optional[str]) -> None:
        if isinstance(right, np.ndarray):
            zero = right == 0
            hit = zero if mask is None else (mask & zero)
            if hit.any():
                raise JitRuntimeGuard("division by zero on an active lane",
                                      at)
        elif right == 0:
            if mask is None or mask.any():
                raise JitRuntimeGuard("division by zero", at)

    @staticmethod
    def c_div(left: Any, right: Any, mask: Any, at: Optional[str]) -> Any:
        if mask is not None and not mask.any():
            return 0
        try:
            return c_div(left, right)
        except ZeroDivisionError:
            raise JitRuntimeGuard("uniform division by zero", at) from None

    @staticmethod
    def c_mod(left: Any, right: Any, mask: Any, at: Optional[str]) -> Any:
        if mask is not None and not mask.any():
            return 0
        try:
            return c_mod(left, right)
        except ZeroDivisionError:
            raise JitRuntimeGuard("uniform modulo by zero", at) from None

    @staticmethod
    def shift(op: str, left: Any, right: Any, mask: Any,
              at: Optional[str]) -> Any:
        amount = _Runtime.as_int(right)
        if isinstance(amount, np.ndarray):
            bad = (amount < 0) | (amount >= 64)
            hit = bad if mask is None else (mask & bad)
            if hit.any():
                raise JitRuntimeGuard("shift amount outside [0, 64)", at)
            fn = np.left_shift if op == "<<" else np.right_shift
            return fn(_Runtime.as_int(left), amount)
        if mask is not None and not mask.any():
            return 0
        if not 0 <= amount < 64:
            raise JitRuntimeGuard(f"shift amount {amount} outside [0, 64)",
                                  at)
        left = _Runtime.as_int(left)
        if isinstance(left, np.ndarray):
            fn = np.left_shift if op == "<<" else np.right_shift
            return fn(left, amount)
        return left << amount if op == "<<" else left >> amount

    # -- math builtins -------------------------------------------------------

    @staticmethod
    def math_u(name: str, mask: Any, at: Optional[str], *args: Any) -> Any:
        if mask is not None and not mask.any():
            return 0.0
        try:
            return MATH_IMPLS[name](*args)
        except MATH_ERRORS as exc:
            raise JitRuntimeGuard(f"math builtin {name!r}: {exc}",
                                  at) from exc

    @staticmethod
    def math(name: str, mask: Any, at: Optional[str], *args: Any) -> Any:
        args = tuple(_Runtime.as_float(a) for a in args)
        if mask is not None and not mask.any():
            width = next(
                (a.shape[0] for a in args if isinstance(a, np.ndarray)),
                mask.shape[0])
            dtype = np.int64 if name in INT_RESULT_MATH else np.float64
            return np.zeros(width, dtype=dtype)
        full = mask is None or bool(mask.all())
        packed = args if full else \
            tuple(a[mask] if isinstance(a, np.ndarray) else a for a in args)
        check = MATH_DOMAIN_CHECKS.get(name)
        if check is not None and bool(np.any(check(*packed))):
            raise JitRuntimeGuard(
                f"math builtin {name!r}: domain error on an active lane", at)
        try:
            if name in NATIVE_MATH:
                result = NATIVE_MATH[name](*packed)
            elif name in INT_RESULT_MATH:
                result = _Runtime.as_int(INT_RESULT_MATH[name](*packed))
            else:
                result = WRAPPED_MATH[name](*packed)
        except MATH_ERRORS as exc:
            raise JitRuntimeGuard(f"math builtin {name!r}: {exc}",
                                  at) from exc
        if not isinstance(result, np.ndarray):
            return result
        if full:
            return result
        out = np.zeros(mask.shape[0], dtype=result.dtype)
        out[mask] = result
        return out

    @staticmethod
    def int_u(name: str, mask: Any, *args: Any) -> Any:
        if mask is not None and not mask.any():
            return 0
        return INT_IMPLS[name](*args)

    @staticmethod
    def int_fn(name: str, *args: Any) -> Any:
        return LANE_INT[name](*args)


def _at(node: Any) -> str:
    """Generated-code literal for ``node``'s ``"line:column"`` (or None)."""
    location = getattr(node, "location", None)
    return repr(str(location)) if location is not None else "None"


def _isf(value: Any) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f"
    return isinstance(value, float)


# ---------------------------------------------------------------------------
# Compiler internals
# ---------------------------------------------------------------------------


@dataclass
class _Buf:
    """A buffer parameter specialized for this launch."""

    py: str
    extent: int
    kind: str            # 'i' or 'f'
    exact: bool          # dtype is already int64/float64: raw loads need no widen


@dataclass
class _Var:
    """A kernel variable bound in the compile-time environment."""

    py: str
    kind: str
    lane: bool
    depth: int                      # mask depth at declaration
    rng: Optional[tuple] = None     # trusted only for single-assignment ints
    const: Any = None
    buffer: Optional[_Buf] = None


@dataclass
class _V:
    """A compiled expression: code plus what we statically know about it."""

    code: str
    kind: str                       # 'i' or 'f'
    lane: bool
    const: Any = None               # compile-time Python value, when known
    rng: Optional[tuple] = None     # inclusive int interval, when provable
    buffer: Optional[_Buf] = None


@dataclass
class _CondV:
    """A compiled condition: bool-valued code, or a compile-time proof."""

    code: Optional[str]
    lane: bool
    proof: Optional[bool] = None


@dataclass
class _Ctx:
    """Divergence context: the current lane mask (a temp name) and depth.

    ``chain`` names every mask in scope, outermost first, ending with
    ``mask``: a divergent ``break``/``continue``/``return`` clears its
    lanes from a suffix of it.
    """

    mask: Optional[str]
    depth: int
    chain: tuple = ()

    def sub(self, mask: str) -> "_Ctx":
        return _Ctx(mask, self.depth + 1, self.chain + (mask,))


@dataclass
class _Loop:
    """An enclosing loop; ``mask``/``body`` are set when it runs masked."""

    kind: str
    depth: int                      # mask depth of the loop statement
    node_id: int
    mask: Optional[str] = None      # lanes still iterating
    body: Optional[str] = None      # lanes still in this iteration


#: Restart fact: the kernel body runs under a kernel-wide live mask.
_LIVE = "_live"


class _Restart(Exception):
    """Restart signal: these facts must hold from the start of the compile.

    A fact is a variable's generated name (it is lane-valued), the ``id``
    of a loop statement (it runs masked), or :data:`_LIVE`.
    """

    def __init__(self, facts: set):
        super().__init__("restart")
        self.facts = facts


@dataclass
class CompiledKernel:
    """One kernel specialized, lowered, and ``exec``-compiled for a launch."""

    kernel_name: str
    fn: Callable
    source: str
    key: tuple
    buffer_params: tuple           # kernel param names, call order
    id_spec: tuple                 # ((lanes attribute, dim, py name), ...)
    masked: bool                   # any per-lane mask in the generated code
    oob_elided_by_verdict: bool    # bounds checks dropped on the verifier's word
    verdicts: Optional[dict]       # verify verdicts consulted (None: not needed)
    compile_seconds: float = 0.0


_LOOP_FOR = "for"
_LOOP_WHILE = "while"
_LOOP_DO = "do"

_JUMPS = (ast.Break, ast.Continue, ast.Return)


class _Compiler:
    """Lowers one kernel AST + launch constants to Python source.

    One pass; if a variable assumed uniform turns out to receive a lane
    value, a loop assumed uniform turns out to need a mask, or a
    divergent ``return`` needs the kernel-wide live mask,
    :class:`_Restart` restarts the compile with that fact known up front
    (facts only accumulate, so this terminates).
    """

    def __init__(self, info: KernelInfo, ndrange: NDRange,
                 scalars: dict, buffers: dict, verdict_fn: Callable,
                 facts: frozenset):
        self.info = info
        self.ndrange = ndrange
        self.scalars = scalars
        self.buffers = buffers          # name -> np.ndarray
        self._verdict_fn = verdict_fn   # lazy: () -> verdicts dict
        self.facts = facts
        self.lines: list[str] = []
        self.indent = 1
        self._tmp_n = 0
        self._var_n = 0
        self.env: dict[str, _Var] = {}
        self.used_ids: set = set()      # (lanes attr, dim, py name)
        self.masked = False
        self.oob_elided_by_verdict = False
        self.verdicts: Optional[dict] = None
        self.loops: list[_Loop] = []
        self.reassigned = self._find_reassigned(info.kernel.body)

    # -- small helpers -------------------------------------------------------

    def _fail(self, why: str, node: Any = None) -> JitUnsupported:
        return JitUnsupported(why, getattr(node, "location", None))

    def _emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def _tmp(self, prefix: str = "_t") -> str:
        self._tmp_n += 1
        return f"{prefix}{self._tmp_n}"

    @staticmethod
    def _find_reassigned(body: ast.Stmt) -> frozenset:
        names = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Assignment) and \
                    isinstance(node.target, ast.Identifier):
                names.add(node.target.name)
            elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)) and \
                    node.op in ("++", "--") and \
                    isinstance(node.operand, ast.Identifier):
                names.add(node.operand.name)
        return frozenset(names)

    def _oob_clean(self) -> bool:
        if self.verdicts is None:
            self.verdicts = self._verdict_fn()
        return self.verdicts.get("oob") == "clean"

    # -- interval arithmetic -------------------------------------------------

    @staticmethod
    def _rng_ok(rng: Optional[tuple]) -> Optional[tuple]:
        if rng is None:
            return None
        lo, hi = rng
        if abs(lo) > _RANGE_LIMIT or abs(hi) > _RANGE_LIMIT:
            return None
        return rng

    def _rng_binop(self, op: str, left: _V, right: _V) -> Optional[tuple]:
        if left.kind != "i" or right.kind != "i":
            return None
        lr, rr = left.rng, right.rng
        if lr is None or rr is None:
            return None
        if op == "+":
            return self._rng_ok((lr[0] + rr[0], lr[1] + rr[1]))
        if op == "-":
            return self._rng_ok((lr[0] - rr[1], lr[1] - rr[0]))
        if op == "*":
            products = [a * b for a in lr for b in rr]
            return self._rng_ok((min(products), max(products)))
        if op == "%" and rr[0] == rr[1] and rr[0] > 0 and lr[0] >= 0:
            return (0, rr[0] - 1)
        if op == "/" and rr[0] == rr[1] and rr[0] > 0 and lr[0] >= 0:
            return (lr[0] // rr[0], lr[1] // rr[0])
        return None

    @staticmethod
    def _prove_cmp(op: str, left: _V, right: _V) -> Optional[bool]:
        lr, rr = left.rng, right.rng
        if lr is None or rr is None:
            return None
        l0, l1 = lr
        r0, r1 = rr
        if op == "<":
            return True if l1 < r0 else (False if l0 >= r1 else None)
        if op == "<=":
            return True if l1 <= r0 else (False if l0 > r1 else None)
        if op == ">":
            return True if l0 > r1 else (False if l1 <= r0 else None)
        if op == ">=":
            return True if l0 >= r1 else (False if l1 < r0 else None)
        if op == "==":
            if l0 == l1 == r0 == r1:
                return True
            return False if (l1 < r0 or l0 > r1) else None
        if op == "!=":
            if l1 < r0 or l0 > r1:
                return True
            return False if l0 == l1 == r0 == r1 else None
        return None

    # -- entry point ---------------------------------------------------------

    def compile(self) -> tuple[str, str]:
        """Return (function name, generated source)."""
        self._bind_params()
        if _LIVE in self.facts:
            self.masked = True
            self._emit(f"{_LIVE} = _np.ones(_n, dtype=bool)")
            ctx = _Ctx(_LIVE, 0, (_LIVE,))
        else:
            ctx = _Ctx(None, 0)
        before = len(self.lines)
        self._stmt(self.info.kernel.body, ctx)
        if len(self.lines) == before:
            self._emit("pass")
        fn_name = f"_dopia_jit_{self.info.kernel.name}"
        id_names = [py for (_a, _d, py) in sorted(self.used_ids)]
        buf_names = [self.env[n].py for n in self.info.buffer_params
                     if n in self.buffers]
        params = ["rt", "_np", "_n"] + buf_names + id_names
        header = [
            f"def {fn_name}({', '.join(params)}):",
        ]
        return fn_name, "\n".join(header + self.lines) + "\n"

    def _bind_params(self) -> None:
        for param in self.info.kernel.params:
            name = param.name
            if param.type.pointer:
                array = self.buffers.get(name)
                if array is None:
                    raise self._fail(f"buffer argument {name!r} is not an array")
                if array.ndim != 1:
                    raise self._fail(f"buffer {name!r} is not 1-D")
                if array.dtype.kind == "f":
                    kind, exact = "f", array.dtype == np.float64
                elif array.dtype.kind in "iu":
                    kind, exact = "i", array.dtype == np.int64
                else:
                    raise self._fail(
                        f"buffer {name!r} has unsupported dtype {array.dtype}")
                buf = _Buf(py=f"b_{name}", extent=int(array.shape[0]),
                           kind=kind, exact=exact)
                self.env[name] = _Var(py=buf.py, kind=kind, lane=True,
                                      depth=0, buffer=buf)
            else:
                value = self.scalars[name]
                kind = "i" if isinstance(value, int) else "f"
                rng = (value, value) if kind == "i" else None
                self.env[name] = _Var(py=f"s_{name}", kind=kind, lane=False,
                                      depth=0, rng=self._rng_ok(rng),
                                      const=value)

    # -- statements ----------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt, ctx: _Ctx) -> None:
        kind = type(stmt)
        if kind is ast.Block:
            saved = dict(self.env)
            try:
                for inner in stmt.body:
                    self._stmt(inner, ctx)
                    if isinstance(inner, _JUMPS):
                        break  # the rest of the block is unreachable
            finally:
                self.env = saved
            return
        if kind is ast.DeclStmt:
            self._stmt_decl(stmt, ctx)
            return
        if kind is ast.ExprStmt:
            self._expr_stmt(stmt.expr, ctx)
            return
        if kind is ast.If:
            self._stmt_if(stmt, ctx)
            return
        if kind is ast.For:
            self._stmt_for(stmt, ctx)
            return
        if kind is ast.While:
            self._loop(_LOOP_WHILE, stmt, ctx)
            return
        if kind is ast.DoWhile:
            self._loop(_LOOP_DO, stmt, ctx)
            return
        if kind is ast.Return:
            if ctx.depth == 0:
                self._emit("return")
                return
            # The returning lanes leave every enclosing loop too: each one
            # must run masked, or a loop only a return ends never stops.
            needed = {_LIVE} | {loop.node_id for loop in self.loops
                                if loop.mask is None}
            if not needed <= self.facts:
                raise _Restart(needed)
            self._retire(ctx, ctx.chain)
            return
        if kind is ast.Break or kind is ast.Continue:
            self._jump(stmt, ctx)
            return
        raise self._fail(f"unsupported statement {kind.__name__}", stmt)

    def _jump(self, stmt: ast.Stmt, ctx: _Ctx) -> None:
        """``break``/``continue``: a Python jump out of a uniform loop
        whose lanes all take it, else clear the lanes from the masks."""
        word = "break" if type(stmt) is ast.Break else "continue"
        if not self.loops:
            raise self._fail(f"{word} outside of a loop", stmt)
        loop = self.loops[-1]
        if loop.mask is None:
            # A for step or a do-while test would be skipped by a Python
            # continue; those loops, like divergent jumps, run masked.
            if ctx.depth == loop.depth and \
                    (word == "break" or loop.kind == _LOOP_WHILE):
                self._emit(word)
                return
            raise _Restart({loop.node_id})
        first = loop.mask if word == "break" else loop.body
        self._retire(ctx, ctx.chain[ctx.chain.index(first):])

    def _retire(self, ctx: _Ctx, masks: tuple) -> None:
        """Clear the lanes of ``ctx.mask`` from each mask in ``masks``.

        Masks are rebound, never updated in place: a mask may alias a
        branch condition that is still read afterwards.
        """
        gone = self._tmp("_x")
        self._emit(f"{gone} = {ctx.mask}")
        for mask in masks:
            self._emit(f"{mask} = {mask} & ~{gone}")

    def _stmt_decl(self, stmt: ast.DeclStmt, ctx: _Ctx) -> None:
        for decl in stmt.decls:
            if decl.type.pointer or decl.array_dims or \
                    decl.type.address_space == "local":
                raise self._fail(f"unsupported declaration {decl.name!r}", stmt)
            kind = "f" if decl.type.is_float else "i"
            self._var_n += 1
            py = f"v{self._var_n}_{decl.name}"
            if decl.init is not None:
                value = self._to_kind(self._expr(decl.init, ctx), kind)
            else:
                value = _V("0.0" if kind == "f" else "0", kind, lane=False,
                           const=0.0 if kind == "f" else 0,
                           rng=None if kind == "f" else (0, 0))
            lane = value.lane or (py in self.facts)
            trusted = decl.name not in self.reassigned
            if lane and not value.lane:
                # A promoted variable is an array from its declaration
                # on, so lane code never meets a Python scalar.
                self._emit(f"{py} = _np.full(_n, {value.code})")
            else:
                self._emit(f"{py} = {value.code}")
            self.env[decl.name] = _Var(
                py=py, kind=kind, lane=lane, depth=ctx.depth,
                rng=value.rng if (trusted and kind == "i") else None,
                const=value.const if (trusted and not lane) else None,
            )

    def _expr_stmt(self, expr: ast.Expr, ctx: _Ctx) -> None:
        kind = type(expr)
        if kind is ast.Assignment:
            self._assignment(expr, ctx)
            return
        if kind in (ast.UnaryOp, ast.PostfixOp) and expr.op in ("++", "--"):
            self._increment(expr, ctx)
            return
        # Anything else at statement level is evaluated for effect; the
        # JIT subset has no effectful pure expressions, so emitting the
        # value and discarding it preserves semantics (it can still trip
        # a runtime guard, exactly like the oracle would raise there).
        value = self._expr(expr, ctx)
        self._emit(f"{value.code}")

    # -- control flow --------------------------------------------------------

    def _suite(self, body: ast.Stmt, ctx: _Ctx) -> None:
        """Compile ``body`` as an indented Python suite (>= one line)."""
        self.indent += 1
        before = len(self.lines)
        try:
            self._stmt(body, ctx)
            if len(self.lines) == before:
                self._emit("pass")
        finally:
            self.indent -= 1

    def _stmt_if(self, stmt: ast.If, ctx: _Ctx) -> None:
        cond = self._cond(stmt.cond, ctx)
        if cond.proof is True:
            self._stmt(stmt.then, ctx)
            return
        if cond.proof is False:
            if stmt.otherwise is not None:
                self._stmt(stmt.otherwise, ctx)
            return
        if not cond.lane:
            self._emit(f"if {cond.code}:")
            self._suite(stmt.then, ctx)
            if stmt.otherwise is not None:
                self._emit("else:")
                self._suite(stmt.otherwise, ctx)
            return
        self.masked = True
        taken = self._tmp("_c")
        self._emit(f"{taken} = {cond.code}")
        then_mask = self._tmp("_m")
        if ctx.mask is None:
            self._emit(f"{then_mask} = {taken}")
        else:
            self._emit(f"{then_mask} = {ctx.mask} & {taken}")
        saved = dict(self.env)
        self._stmt(stmt.then, ctx.sub(then_mask))
        self.env = saved
        if stmt.otherwise is not None:
            else_mask = self._tmp("_m")
            if ctx.mask is None:
                self._emit(f"{else_mask} = ~{taken}")
            else:
                self._emit(f"{else_mask} = {ctx.mask} & ~{taken}")
            saved = dict(self.env)
            self._stmt(stmt.otherwise, ctx.sub(else_mask))
            self.env = saved

    def _static_rng(self, expr: ast.Expr) -> Optional[tuple]:
        """Interval of an expression over loop-invariant integers only."""
        if isinstance(expr, ast.IntLiteral):
            value = int(expr.value)
            return self._rng_ok((value, value))
        if isinstance(expr, ast.Identifier):
            var = self.env.get(expr.name)
            if var is not None and var.kind == "i" and not var.lane:
                return var.rng
            return None
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*"):
            left = self._static_rng(expr.left)
            right = self._static_rng(expr.right)
            if left is None or right is None:
                return None
            return self._rng_binop(expr.op,
                                   _V("", "i", False, rng=left),
                                   _V("", "i", False, rng=right))
        return None

    def _induction_range(self, stmt: ast.For) -> Optional[tuple]:
        """``(name, [lo, hi])`` for a canonical up-counting for loop.

        The interval holds at the top of every iteration — the condition
        is re-checked before the body and the counter only moves through
        the (positive) step — so it is sound for proofs *inside* the
        body, where the bounds-elision decisions are made.
        """
        init = stmt.init
        if not (isinstance(init, ast.DeclStmt) and len(init.decls) == 1):
            return None
        decl = init.decls[0]
        if decl.type.is_float or decl.type.pointer or decl.init is None:
            return None
        name = decl.name
        step = stmt.step
        if isinstance(step, (ast.UnaryOp, ast.PostfixOp)) and \
                step.op == "++" and \
                isinstance(step.operand, ast.Identifier) and \
                step.operand.name == name:
            pass
        elif isinstance(step, ast.Assignment) and step.op == "+=" and \
                isinstance(step.target, ast.Identifier) and \
                step.target.name == name:
            stride = self._static_rng(step.value)
            if stride is None or stride[0] < 1:
                return None
        else:
            return None
        cond = stmt.cond
        if not (isinstance(cond, ast.BinaryOp) and cond.op in ("<", "<=")
                and isinstance(cond.left, ast.Identifier)
                and cond.left.name == name):
            return None
        lo = self._static_rng(decl.init)
        hi = self._static_rng(cond.right)
        if lo is None or hi is None:
            return None
        for node in ast.walk(stmt.body):
            if isinstance(node, ast.Assignment) and \
                    isinstance(node.target, ast.Identifier) and \
                    node.target.name == name:
                return None
            if isinstance(node, (ast.UnaryOp, ast.PostfixOp)) and \
                    node.op in ("++", "--") and \
                    isinstance(node.operand, ast.Identifier) and \
                    node.operand.name == name:
                return None
        upper = hi[1] - 1 if cond.op == "<" else hi[1]
        return name, self._rng_ok((lo[0], upper))

    def _stmt_for(self, stmt: ast.For, ctx: _Ctx) -> None:
        saved = dict(self.env)
        try:
            if stmt.init is not None:
                if isinstance(stmt.init, ast.DeclStmt):
                    self._stmt_decl(stmt.init, ctx)
                elif isinstance(stmt.init, ast.ExprStmt):
                    self._expr_stmt(stmt.init.expr, ctx)
                else:
                    raise self._fail("unsupported for-loop initializer", stmt)
            self._loop(_LOOP_FOR, stmt, ctx)
        finally:
            self.env = saved

    def _loop(self, kind: str, stmt: Any, ctx: _Ctx) -> None:
        """Any loop, as ``while True:`` with the exit test inside.

        A uniform loop stays a Python loop around whole-array code.  A
        loop whose lanes leave at different iterations runs masked: the
        loop mask holds the lanes still iterating, the condition narrows
        it, ``break`` and ``return`` clear lanes from it, and the loop
        runs while any lane is left.  The body runs under a copy that
        ``continue`` also clears, so the step and a do-while test still
        see the continuing lanes.  Both run one mask level deeper, so
        assignments to outer variables merge through ``np.where``.
        """
        loop = _Loop(kind, ctx.depth, id(stmt))
        loop_ctx = body_ctx = ctx
        if loop.node_id in self.facts:
            self.masked = True
            loop.mask, loop.body = self._tmp("_lm"), self._tmp("_bm")
            self._emit(f"{loop.mask} = "
                       f"{ctx.mask or '_np.ones(_n, dtype=bool)'}")
            loop_ctx = ctx.sub(loop.mask)
            body_ctx = _Ctx(loop.body, loop_ctx.depth,
                            loop_ctx.chain + (loop.body,))
        self._emit("while True:")
        self.indent += 1
        before = len(self.lines)
        self.loops.append(loop)
        try:
            if kind != _LOOP_DO:
                self._loop_test(loop, stmt, loop_ctx)
            if kind == _LOOP_FOR and loop.mask is None:
                self._install_induction(stmt)
            if loop.mask is not None:
                self._emit(f"{loop.body} = {loop.mask}")
            self._stmt(stmt.body, body_ctx)
            if kind == _LOOP_FOR and stmt.step is not None:
                self._expr_stmt(stmt.step, loop_ctx)
            if kind == _LOOP_DO:
                self._loop_test(loop, stmt, loop_ctx)
            if len(self.lines) == before:
                self._emit("pass")  # loop forever, like the oracle would
        finally:
            self.loops.pop()
            self.indent -= 1

    def _loop_test(self, loop: _Loop, stmt: Any, ctx: _Ctx) -> None:
        """Leave the loop where ``stmt.cond`` fails: a lane-varying test
        narrows the loop mask (restarting the compile with the loop
        masked if it was assumed uniform)."""
        test = None if stmt.cond is None else self._cond(stmt.cond, ctx)
        if test is None or test.proof is True:
            pass
        elif test.proof is False:
            self._emit("break")
        elif not test.lane:
            self._emit(f"if not ({test.code}):")
            self._emit("    break")
        elif loop.mask is None:
            raise _Restart({loop.node_id})
        else:
            self._emit(f"{loop.mask} = {loop.mask} & {test.code}")
        if loop.mask is not None:
            self._emit(f"if not {loop.mask}.any():")
            self._emit("    break")

    def _install_induction(self, stmt: ast.For) -> None:
        """Give a canonical for loop's counter its interval in the body.

        Called *after* the condition is compiled, so the interval can
        never prove the loop's own exit test away.
        """
        induction = self._induction_range(stmt)
        if induction is None:
            return
        name, rng = induction
        var = self.env.get(name)
        if var is not None and var.kind == "i" and not var.lane \
                and rng is not None:
            self.env[name] = _Var(py=var.py, kind="i", lane=False,
                                  depth=var.depth, rng=rng)

    # -- assignments ---------------------------------------------------------

    def _assignment(self, node: ast.Assignment, ctx: _Ctx) -> None:
        target = node.target
        if isinstance(target, ast.Identifier):
            var = self._lookup(target)
            if var.buffer is not None:
                raise self._fail("pointer reassignment", node)
            value = self._expr(node.value, ctx)
            if node.op != "=":
                old = self._read_var(target.name, node)
                value = self._binop(node.op[:-1], old, value, ctx, node)
            self._assign_var(var, value, ctx)
            return
        if isinstance(target, ast.Index):
            idx = self._materialize(
                self._to_kind(self._expr(target.index, ctx), "i"))
            value = self._expr(node.value, ctx)
            if node.op != "=":
                old = self._load_indexed(target, idx, ctx)
                value = self._binop(node.op[:-1], old, value, ctx, node)
            self._store_indexed(target, idx, value, ctx)
            return
        raise self._fail("unsupported assignment target", node)

    def _increment(self, node: Any, ctx: _Ctx) -> None:
        delta = "1" if node.op == "++" else "-1"
        operand = node.operand
        if isinstance(operand, ast.Identifier):
            var = self._lookup(operand)
            old = self._read_var(operand.name, node)
            new = _V(f"({old.code} + {delta})", old.kind, old.lane)
            self._assign_var(var, new, ctx)
            return
        if isinstance(operand, ast.Index):
            idx = self._materialize(
                self._to_kind(self._expr(operand.index, ctx), "i"))
            old = self._load_indexed(operand, idx, ctx)
            new = _V(f"({old.code} + {delta})", old.kind, old.lane)
            self._store_indexed(operand, idx, new, ctx)
            return
        raise self._fail("unsupported increment target", node)

    def _assign_var(self, var: _Var, value: _V, ctx: _Ctx) -> None:
        value = self._to_kind(value, var.kind)
        if value.lane and not var.lane:
            raise _Restart({var.py})
        if ctx.depth > var.depth:
            if not var.lane:
                raise _Restart({var.py})
            self._emit(
                f"{var.py} = _np.where({ctx.mask}, {value.code}, {var.py})")
        else:
            self._emit(f"{var.py} = {value.code}")

    def _materialize(self, value: _V) -> _V:
        """Bind an expression to a temp so it can be used more than once."""
        if value.const is not None or value.code.isidentifier():
            return value
        tmp = self._tmp()
        self._emit(f"{tmp} = {value.code}")
        return _V(tmp, value.kind, value.lane, rng=value.rng)

    # -- memory --------------------------------------------------------------

    def _buffer_of(self, node: ast.Index) -> _Buf:
        if not isinstance(node.base, ast.Identifier):
            raise self._fail("subscript of a computed pointer", node)
        var = self._lookup(node.base)
        if var.buffer is None:
            raise self._fail("subscript of a non-buffer value", node)
        return var.buffer

    def _bounds_elided(self, idx: _V, buf: _Buf) -> bool:
        if idx.rng is not None and idx.rng[0] >= 0 and idx.rng[1] < buf.extent:
            return True
        if self._oob_clean():
            self.oob_elided_by_verdict = True
            return True
        return False

    def _load_expr(self, node: ast.Index, ctx: _Ctx) -> _V:
        idx = self._to_kind(self._expr(node.index, ctx), "i")
        return self._load_indexed(node, idx, ctx)

    def _load_indexed(self, node: ast.Index, idx: _V, ctx: _Ctx) -> _V:
        buf = self._buffer_of(node)
        elide = self._bounds_elided(idx, buf)
        limit = "None" if elide else str(buf.extent)
        mask = ctx.mask or "None"
        at = _at(node)
        if not idx.lane:
            code = f"rt.load_u({buf.py}, {idx.code}, {mask}, {limit}, {at})"
            return _V(code, buf.kind, lane=False)
        if ctx.mask is None and elide:
            raw = f"{buf.py}[{idx.code}]"
            if buf.exact:
                code = raw
            elif buf.kind == "f":
                code = f"rt.as_float({raw})"
            else:
                code = f"rt.as_int({raw})"
        else:
            code = f"rt.gather({buf.py}, {idx.code}, {mask}, {limit}, {at})"
        return _V(code, buf.kind, lane=True)

    def _store_indexed(self, node: ast.Index, idx: _V, value: _V,
                       ctx: _Ctx) -> None:
        buf = self._buffer_of(node)
        elide = self._bounds_elided(idx, buf)
        limit = "None" if elide else str(buf.extent)
        mask = ctx.mask or "None"
        at = _at(node)
        if not idx.lane:
            self._emit(f"rt.store_u({buf.py}, {idx.code}, {value.code}, "
                       f"{mask}, {limit}, {at})")
        elif ctx.mask is None and elide:
            # NumPy broadcasts a scalar value across the lane indices,
            # which matches the oracle (every lane stores the same value).
            self._emit(f"{buf.py}[{idx.code}] = {value.code}")
        else:
            self._emit(f"rt.scatter({buf.py}, {idx.code}, {value.code}, "
                       f"{mask}, {limit}, {at})")

    # -- expressions ---------------------------------------------------------

    def _lookup(self, node: ast.Identifier) -> _Var:
        var = self.env.get(node.name)
        if var is None:
            raise self._fail(f"unknown identifier {node.name!r}", node)
        return var

    def _read_var(self, name: str, node: Any = None) -> _V:
        var = self.env[name]
        if var.buffer is not None:
            return _V(var.py, var.kind, lane=True, buffer=var.buffer)
        if var.const is not None:
            return self._const_v(var.const)
        return _V(var.py, var.kind, var.lane, rng=var.rng)

    def _const_v(self, value: Any) -> _V:
        if isinstance(value, bool):
            value = int(value)
        kind = "i" if isinstance(value, int) else "f"
        rng = self._rng_ok((value, value)) if kind == "i" else None
        return _V(f"({value!r})", kind, lane=False, const=value, rng=rng)

    def _expr(self, expr: ast.Expr, ctx: _Ctx) -> _V:
        kind = type(expr)
        if kind is ast.IntLiteral:
            return self._const_v(int(expr.value))
        if kind is ast.FloatLiteral:
            return self._const_v(float(expr.value))
        if kind is ast.Identifier:
            self._lookup(expr)
            return self._read_var(expr.name, expr)
        if kind is ast.BinaryOp:
            if expr.op in ("&&", "||"):
                return self._cond_value(expr, ctx)
            left = self._expr(expr.left, ctx)
            right = self._expr(expr.right, ctx)
            return self._binop(expr.op, left, right, ctx, expr)
        if kind is ast.UnaryOp:
            return self._unary(expr, ctx)
        if kind is ast.Index:
            return self._load_expr(expr, ctx)
        if kind is ast.Cast:
            if expr.type.pointer:
                raise self._fail("pointer cast", expr)
            return self._to_kind(self._expr(expr.operand, ctx),
                                 "f" if expr.type.is_float else "i")
        if kind is ast.Conditional:
            return self._conditional(expr, ctx)
        if kind is ast.Call:
            return self._call(expr, ctx)
        if kind in (ast.Assignment, ast.PostfixOp):
            raise self._fail(
                f"{kind.__name__} inside an expression", expr)
        raise self._fail(f"unsupported expression {kind.__name__}", expr)

    def _unary(self, expr: ast.UnaryOp, ctx: _Ctx) -> _V:
        if expr.op in ("++", "--"):
            raise self._fail("pre-increment inside an expression", expr)
        if expr.op == "!":
            cond = self._cond(expr.operand, ctx)
            if cond.proof is not None:
                return self._const_v(int(not cond.proof))
            if cond.lane:
                return _V(f"(~{cond.code}).astype(_np.int64)", "i", True)
            return _V(f"(0 if {cond.code} else 1)", "i", False)
        operand = self._expr(expr.operand, ctx)
        if expr.op == "-":
            if operand.const is not None:
                return self._const_v(-operand.const)
            rng = None
            if operand.rng is not None:
                rng = self._rng_ok((-operand.rng[1], -operand.rng[0]))
            return _V(f"(-{operand.code})", operand.kind, operand.lane,
                      rng=rng)
        if expr.op == "~":
            operand = self._to_kind(operand, "i")
            if operand.const is not None:
                return self._const_v(~operand.const)
            return _V(f"(~{operand.code})", "i", operand.lane)
        raise self._fail(f"unsupported unary operator {expr.op!r}", expr)

    def _to_kind(self, value: _V, kind: str) -> _V:
        if value.kind == kind:
            return value
        if value.const is not None:
            return self._const_v(
                int(value.const) if kind == "i" else float(value.const))
        if kind == "i":
            code = f"rt.as_int({value.code})" if value.lane \
                else f"int({value.code})"
        else:
            code = f"rt.as_float({value.code})" if value.lane \
                else f"float({value.code})"
        return _V(code, kind, value.lane)

    # -- binary operators ----------------------------------------------------

    _FOLD_OPS: dict = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": c_div,
        "%": c_mod,
        "==": lambda a, b: int(a == b),
        "!=": lambda a, b: int(a != b),
        "<": lambda a, b: int(a < b),
        ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b),
        ">=": lambda a, b: int(a >= b),
        "<<": lambda a, b: int(a) << int(b),
        ">>": lambda a, b: int(a) >> int(b),
        "&": lambda a, b: int(a) & int(b),
        "|": lambda a, b: int(a) | int(b),
        "^": lambda a, b: int(a) ^ int(b),
    }

    def _binop(self, op: str, left: _V, right: _V, ctx: _Ctx,
               node: Any) -> _V:
        if left.const is not None and right.const is not None \
                and op in self._FOLD_OPS:
            try:
                return self._const_v(self._FOLD_OPS[op](left.const,
                                                        right.const))
            except Exception:
                pass  # fold would raise: emit the runtime form instead
        lane = left.lane or right.lane
        fkind = "f" if "f" in (left.kind, right.kind) else "i"
        mask = ctx.mask or "None"
        at = _at(node)
        if op in ("+", "-", "*"):
            return _V(f"({left.code} {op} {right.code})", fkind, lane,
                      rng=self._rng_binop(op, left, right))
        if op == "/":
            if lane:
                return _V(f"rt.div({left.code}, {right.code}, {mask}, {at})",
                          fkind, True)
            if ctx.mask is None:
                code = f"({left.code} / {right.code})" if fkind == "f" \
                    else f"rt.c_div({left.code}, {right.code}, None, {at})"
                # float path: plain Python division is exactly c_div's
                # float branch; int path keeps C truncation.
                return _V(code, fkind, False)
            return _V(f"rt.c_div({left.code}, {right.code}, {mask}, {at})",
                      fkind, False)
        if op == "%":
            if lane:
                return _V(f"rt.mod({left.code}, {right.code}, {mask}, {at})",
                          fkind, True)
            return _V(f"rt.c_mod({left.code}, {right.code}, {mask}, {at})",
                      fkind, False)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            cond = self._cmp_cond(op, left, right)
            return self._cond_to_value(cond)
        if op in ("<<", ">>"):
            if not lane and ctx.mask is None:
                return _V(f"rt.shift({op!r}, {left.code}, {right.code}, "
                          f"None, {at})", "i", False)
            return _V(f"rt.shift({op!r}, {left.code}, {right.code}, {mask}, "
                      f"{at})", "i", lane)
        if op in ("&", "|", "^"):
            lefti = self._to_kind(left, "i")
            righti = self._to_kind(right, "i")
            if lane:
                return _V(f"({lefti.code} {op} {righti.code})", "i", True)
            return _V(f"(int({lefti.code}) {op} int({righti.code}))", "i",
                      False)
        raise self._fail(f"unsupported binary operator {op!r}", node)

    # -- conditions ----------------------------------------------------------

    def _cmp_cond(self, op: str, left: _V, right: _V) -> _CondV:
        if left.const is not None and right.const is not None:
            return _CondV(None, False,
                          proof=bool(self._FOLD_OPS[op](left.const,
                                                        right.const)))
        proof = None
        if left.kind == "i" and right.kind == "i":
            proof = self._prove_cmp(op, left, right)
        if proof is not None:
            return _CondV(None, False, proof=proof)
        lane = left.lane or right.lane
        return _CondV(f"({left.code} {op} {right.code})", lane)

    def _cond(self, expr: ast.Expr, ctx: _Ctx) -> _CondV:
        kind = type(expr)
        if kind is ast.BinaryOp and expr.op in \
                ("==", "!=", "<", ">", "<=", ">="):
            left = self._expr(expr.left, ctx)
            right = self._expr(expr.right, ctx)
            return self._cmp_cond(expr.op, left, right)
        if kind is ast.BinaryOp and expr.op in ("&&", "||"):
            return self._logical_cond(expr, ctx)
        if kind is ast.UnaryOp and expr.op == "!":
            inner = self._cond(expr.operand, ctx)
            if inner.proof is not None:
                return _CondV(None, False, proof=not inner.proof)
            if inner.lane:
                return _CondV(f"(~{inner.code})", True)
            return _CondV(f"(not {inner.code})", False)
        value = self._expr(expr, ctx)
        if value.const is not None:
            return _CondV(None, False, proof=bool(value.const))
        if value.kind == "i" and value.rng is not None:
            proof = self._prove_cmp("!=", value, self._const_v(0))
            if proof is not None:
                return _CondV(None, False, proof=proof)
        if value.lane:
            return _CondV(f"({value.code} != 0)", True)
        return _CondV(f"({value.code} != 0)", False)

    def _logical_cond(self, expr: ast.BinaryOp, ctx: _Ctx) -> _CondV:
        is_and = expr.op == "&&"
        left = self._cond(expr.left, ctx)
        if left.proof is not None:
            if left.proof != is_and:
                # && with proven-false left, || with proven-true left.
                return _CondV(None, False, proof=left.proof)
            return self._cond(expr.right, ctx)
        if not left.lane:
            # A uniform runtime left with a possibly-lane right needs
            # runtime short-circuit across the uniform/lane boundary;
            # the oracle handles that case.
            right = self._cond(expr.right, ctx)
            if right.lane:
                raise self._fail(
                    "logical operator mixing a uniform runtime condition "
                    "with lane operands", expr)
            if right.proof is not None:
                if right.proof != is_and:
                    # Right side decides, but the left must still be
                    # evaluated (it is pure in the JIT subset): safe to
                    # reduce to the constant.
                    return _CondV(None, False, proof=right.proof)
                return left
            joiner = "and" if is_and else "or"
            return _CondV(f"({left.code} {joiner} {right.code})", False)
        taken = self._tmp("_c")
        self._emit(f"{taken} = {left.code}")
        sub = self._tmp("_m")
        self.masked = True
        base = ctx.mask
        lead = taken if is_and else f"~{taken}"
        if base is None:
            self._emit(f"{sub} = {lead}")
        else:
            self._emit(f"{sub} = {base} & {lead}")
        right = self._cond(expr.right, ctx.sub(sub))
        if right.proof is not None:
            if right.proof == is_and:
                # && with proven-true right / || with proven-false right:
                # the left side alone decides.
                return _CondV(taken, True)
            return _CondV(None, False, proof=right.proof)
        joiner = "&" if is_and else "|"
        return _CondV(f"({taken} {joiner} {right.code})", True)

    def _cond_to_value(self, cond: _CondV) -> _V:
        if cond.proof is not None:
            return self._const_v(int(cond.proof))
        if cond.lane:
            return _V(f"({cond.code}).astype(_np.int64)", "i", True,
                      rng=(0, 1))
        return _V(f"(1 if {cond.code} else 0)", "i", False, rng=(0, 1))

    def _cond_value(self, expr: ast.Expr, ctx: _Ctx) -> _V:
        return self._cond_to_value(self._cond(expr, ctx))

    def _conditional(self, expr: ast.Conditional, ctx: _Ctx) -> _V:
        cond = self._cond(expr.cond, ctx)
        if cond.proof is not None:
            branch = expr.then if cond.proof else expr.otherwise
            return self._expr(branch, ctx)
        if not cond.lane:
            then_v = self._expr(expr.then, ctx)
            else_v = self._expr(expr.otherwise, ctx)
            if then_v.kind != else_v.kind:
                raise self._fail(
                    "ternary with mixed int/float branch types", expr)
            return _V(f"(({then_v.code}) if {cond.code} else "
                      f"({else_v.code}))", then_v.kind,
                      then_v.lane or else_v.lane)
        self.masked = True
        taken = self._tmp("_c")
        self._emit(f"{taken} = {cond.code}")
        then_mask = self._tmp("_m")
        else_mask = self._tmp("_m")
        if ctx.mask is None:
            self._emit(f"{then_mask} = {taken}")
            self._emit(f"{else_mask} = ~{taken}")
        else:
            self._emit(f"{then_mask} = {ctx.mask} & {taken}")
            self._emit(f"{else_mask} = {ctx.mask} & ~{taken}")
        then_v = self._expr(expr.then, ctx.sub(then_mask))
        else_v = self._expr(expr.otherwise, ctx.sub(else_mask))
        if then_v.kind != else_v.kind:
            raise self._fail("ternary with mixed int/float branch types",
                             expr)
        return _V(f"_np.where({taken}, {then_v.code}, {else_v.code})",
                  then_v.kind, True)

    # -- calls ---------------------------------------------------------------

    def _call(self, expr: ast.Call, ctx: _Ctx) -> _V:
        name = expr.name
        if name == "get_work_dim":
            return self._const_v(self.ndrange.work_dim)
        if name in _WORK_ITEM_QUERIES:
            return self._work_item_query(name, expr, ctx)
        if name in MATH_IMPLS:
            return self._math_call(name, expr, ctx)
        if name in INT_IMPLS:
            return self._int_call(name, expr, ctx)
        if name in self.info.user_functions:
            raise self._fail(f"call to helper function {name!r}", expr)
        raise self._fail(f"call to unsupported function {name!r}", expr)

    def _work_item_query(self, name: str, expr: ast.Call, ctx: _Ctx) -> _V:
        if expr.args:
            dim_v = self._expr(expr.args[0], ctx)
            if dim_v.const is None:
                raise self._fail(
                    f"{name} with a non-constant dimension argument", expr)
            dim = int(dim_v.const)
        else:
            dim = 0
        nd = self.ndrange
        if name in _ID_ATTRS:
            if dim >= nd.work_dim:
                return self._const_v(0)
            attr, prefix = _ID_ATTRS[name]
            py = f"{prefix}{dim}"
            self.used_ids.add((attr, dim, py))
            if name == "get_global_id":
                lo = nd.offset[dim]
                hi = lo + nd.global_size[dim] - 1
            elif name == "get_local_id":
                lo, hi = 0, nd.local_size[dim] - 1
            else:
                lo, hi = 0, nd.num_groups[dim] - 1
            return _V(py, "i", True, rng=self._rng_ok((lo, hi)))
        if name == "get_global_size":
            return self._const_v(
                nd.global_size[dim] if dim < nd.work_dim else 1)
        if name == "get_local_size":
            return self._const_v(
                nd.local_size[dim] if dim < nd.work_dim else 1)
        if name == "get_num_groups":
            return self._const_v(
                nd.num_groups[dim] if dim < nd.work_dim else 1)
        if name == "get_global_offset":
            return self._const_v(nd.offset[dim] if dim < nd.work_dim else 0)
        raise self._fail(f"unknown work-item query {name}", expr)

    def _math_call(self, name: str, expr: ast.Call, ctx: _Ctx) -> _V:
        args = [self._to_kind(self._expr(a, ctx), "f") for a in expr.args]
        kind = "i" if name in INT_RESULT_MATH else "f"
        if all(a.const is not None for a in args) and ctx.mask is None:
            try:
                return self._const_v(MATH_IMPLS[name](
                    *[a.const for a in args]))
            except Exception:
                pass  # would raise at runtime: emit the guarded form
        codes = ", ".join(a.code for a in args)
        mask = ctx.mask or "None"
        at = _at(expr)
        if any(a.lane for a in args):
            return _V(f"rt.math({name!r}, {mask}, {at}, {codes})", kind, True)
        return _V(f"rt.math_u({name!r}, {mask}, {at}, {codes})", kind, False)

    def _int_call(self, name: str, expr: ast.Call, ctx: _Ctx) -> _V:
        args = [self._expr(a, ctx) for a in expr.args]
        kind = "f" if any(a.kind == "f" for a in args) else "i"
        if all(a.const is not None for a in args) and ctx.mask is None:
            try:
                return self._const_v(INT_IMPLS[name](
                    *[a.const for a in args]))
            except Exception:
                pass
        codes = ", ".join(a.code for a in args)
        if any(a.lane for a in args):
            return _V(f"rt.int_fn({name!r}, {codes})", kind, True)
        mask = ctx.mask or "None"
        return _V(f"rt.int_u({name!r}, {mask}, {codes})", kind, False)


# ---------------------------------------------------------------------------
# Compilation entry points and the launch-keyed cache
# ---------------------------------------------------------------------------


_MAX_RESTARTS = 64


def compile_kernel(info: KernelInfo, args: dict[str, Any],
                   ndrange: NDRange) -> CompiledKernel:
    """Lower + ``exec``-compile one kernel for one launch (uncached).

    Raises :class:`JitUnsupported` when the kernel or launch is outside
    the JIT subset; the caller should use the scalar oracle.
    """
    scalars, buffers, key = _specialize(info, args, ndrange)
    verdict_state: dict = {}

    def verdicts() -> dict:
        if "v" not in verdict_state:
            from ..analysis.verify import (LaunchSpec, oob_may_be_clean,
                                           verify_launch_cached)

            if not oob_may_be_clean(info):
                verdict_state["v"] = {}
                return verdict_state["v"]
            launch = LaunchSpec.from_args(
                ndrange, {**scalars,
                          **{n: b for n, b in buffers.items()}})
            report = verify_launch_cached(info, launch)
            verdict_state["v"] = dict(report.verdicts)
        return verdict_state["v"]

    facts: frozenset = frozenset()
    for _ in range(_MAX_RESTARTS):
        compiler = _Compiler(info, ndrange, scalars, buffers, verdicts,
                             facts)
        try:
            fn_name, source = compiler.compile()
        except _Restart as signal:
            facts = facts | signal.facts
            continue
        break
    else:  # pragma: no cover - monotone promotion cannot cycle this long
        raise JitUnsupported("laneness analysis did not converge")

    namespace: dict = {}
    exec(compile(source, f"<dopia-jit:{info.kernel.name}>", "exec"),
         namespace)
    id_spec = tuple(sorted(compiler.used_ids))
    buffer_params = tuple(n for n in info.buffer_params if n in buffers)
    return CompiledKernel(
        kernel_name=info.kernel.name,
        fn=namespace[fn_name],
        source=source,
        key=key,
        buffer_params=buffer_params,
        id_spec=id_spec,
        masked=compiler.masked,
        oob_elided_by_verdict=compiler.oob_elided_by_verdict,
        verdicts=compiler.verdicts,
    )


def _specialize(info: KernelInfo, args: dict[str, Any],
                ndrange: NDRange) -> tuple[dict, dict, tuple]:
    """Split args into folded scalars and buffers; build the cache key."""
    scalars: dict[str, Any] = {}
    buffers: dict[str, np.ndarray] = {}
    for param in info.kernel.params:
        name = param.name
        if name not in args:
            raise JitUnsupported(f"missing kernel argument {name!r}")
        value = args[name]
        if param.type.pointer:
            if not isinstance(value, np.ndarray):
                raise JitUnsupported(
                    f"buffer argument {name!r} is not an ndarray")
            buffers[name] = value
        else:
            try:
                scalars[name] = int(value) \
                    if param.type.name in _INT_TYPE_NAMES else float(value)
            except (TypeError, ValueError) as exc:
                raise JitUnsupported(
                    f"scalar argument {name!r} is not numeric") from exc
    nd = ndrange
    key = (
        tuple(nd.global_size), tuple(nd.local_size), tuple(nd.offset),
        tuple(sorted(scalars.items())),
        tuple((name, int(arr.shape[0]) if arr.ndim else 0, arr.dtype.str)
              for name, arr in sorted(buffers.items())),
    )
    return scalars, buffers, key


#: Per-KernelInfo program cache, mirroring ``verify._LAUNCH_CACHE``:
#: ``id(info) -> (weakref to the info, {launch key -> program or error})``.
#: The weakref finalizer evicts entries when the info is collected, and a
#: stale id (a new object reusing a dead id) is detected by the ref check.
_JIT_CACHE: dict[int, tuple] = {}
_jit_cache_lock = threading.Lock()

#: Per-kernel cap on cached programs (distinct launch shapes).
_MAX_CACHED_PROGRAMS = 128


def compile_cached(info: KernelInfo, args: dict[str, Any],
                   ndrange: NDRange) -> CompiledKernel:
    """Cached :func:`compile_kernel`, keyed on (launch shape, dtypes).

    Scalar arguments are folded into the generated code, so they are part
    of the key; so are buffer extents and dtypes, because lowering
    specializes widening and bounds constants on both.  Negative results
    (:class:`JitUnsupported`) are cached too, so repeated launches of an
    ineligible kernel pay for the analysis once.  The cache keeps a
    traceback-free copy and every raise is a fresh exception: re-raising
    one cached instance would chain each caller's stack onto its
    ``__traceback__`` and keep those frames alive with the cache.
    """
    name = info.kernel.name
    _scalars, _buffers, key = _specialize(info, args, ndrange)
    ident = id(info)
    with _jit_cache_lock:
        entry = _JIT_CACHE.get(ident)
        if entry is not None and entry[0]() is info:
            hit = entry[1].get(key)
            if hit is not None:
                execution_stats.record_jit_cache_hit(name)
                if isinstance(hit, JitUnsupported):
                    raise JitUnsupported(str(hit), hit.location)
                return hit
    started = time.perf_counter()
    try:
        result: Any = compile_kernel(info, args, ndrange)
    except JitUnsupported as exc:
        result = JitUnsupported(str(exc), exc.location)
    except Exception as exc:  # defensive: a compiler bug must never
        # break a launch — degrade to the scalar oracle instead.
        result = JitUnsupported(f"internal jit-compiler error: {exc!r}")
    elapsed = time.perf_counter() - started
    execution_stats.record_jit_compile(name, elapsed)
    if isinstance(result, CompiledKernel):
        result.compile_seconds = elapsed
    with _jit_cache_lock:
        entry = _JIT_CACHE.get(ident)
        if entry is None or entry[0]() is not info:
            programs: dict = {}
            try:
                ref = weakref.ref(
                    info, lambda _r, i=ident: _JIT_CACHE.pop(i, None))
            except TypeError:  # pragma: no cover - non-weakrefable info
                ref = lambda: info  # noqa: E731
            entry = (ref, programs)
            _JIT_CACHE[ident] = entry
        programs = entry[1]
        if len(programs) >= _MAX_CACHED_PROGRAMS:
            programs.pop(next(iter(programs)))
        programs[key] = result
    if isinstance(result, JitUnsupported):
        raise JitUnsupported(str(result), result.location)
    return result


def jit_cache_stats() -> dict:
    """Introspection for tests and ``dopia backends``: cache occupancy."""
    with _jit_cache_lock:
        kernels = 0
        programs = 0
        for entry in _JIT_CACHE.values():
            if entry[0]() is not None:
                kernels += 1
                programs += len(entry[1])
        return {"kernels": kernels, "programs": programs}


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class JitExecutor:
    """Drop-in executor running a :class:`CompiledKernel`.

    Construction builds the scalar oracle, which validates the arguments
    and is the fallback: ``run`` snapshots the output buffers and
    executes the compiled program per batch; *any* runtime exception
    restores the snapshot and re-runs the launch on the oracle, so even
    a compiler bug can only cost speed, never correctness — a genuine
    kernel error is then re-raised by the oracle with its exact message
    and partial-store semantics.
    """

    def __init__(self, info: KernelInfo, args: dict[str, Any],
                 ndrange: NDRange, compiled: CompiledKernel):
        self.info = info
        self.ndrange = ndrange
        self.compiled = compiled
        self.scalar = KernelExecutor(info, args, ndrange)
        self.args = self.scalar.args
        self.used_fallback = False

    def run(self, group_ids: Optional[Iterable[tuple[int, ...]]] = None) -> None:
        groups = list(group_ids if group_ids is not None else
                      self.ndrange.group_ids())
        if not groups:
            return
        ck = self.compiled
        buffers = {
            name: self.args[name]
            for name in self.info.buffer_params
            if isinstance(self.args.get(name), np.ndarray)
        }
        snapshot = {name: array.copy() for name, array in buffers.items()}
        buffer_args = [self.args[name] for name in ck.buffer_params]
        started = time.perf_counter()
        try:
            per_group = self.ndrange.work_items_per_group
            batch = max(1, MAX_LANES_PER_BATCH // max(1, per_group))
            with np.errstate(all="ignore"):
                for start in range(0, len(groups), batch):
                    lanes = Lanes(self.ndrange, groups[start:start + batch])
                    ids = [getattr(lanes, attr)[dim]
                           for (attr, dim, _py) in ck.id_spec]
                    ck.fn(_Runtime, np, lanes.count, *buffer_args, *ids)
        except Exception as exc:
            for name, saved in snapshot.items():
                buffers[name][...] = saved
            self.used_fallback = True
            execution_stats.record_fallback(
                self.info.kernel.name, f"jit runtime: {exc}",
                getattr(exc, "location", None))
            if tracer.enabled:
                tracer.instant("backend.fallback", "backend",
                               kernel=self.info.kernel.name, tier="jit",
                               reason=str(exc))
                tracer.counter("backend.jit_fallbacks")
            self.scalar.run(groups)
            return
        execution_stats.record_run(
            self.info.kernel.name, "jit",
            len(groups) * self.ndrange.work_items_per_group,
            time.perf_counter() - started,
        )

    def run_group(self, group_id: tuple[int, ...]) -> None:
        self.run([group_id])
