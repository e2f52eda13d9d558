"""Semantic analysis for parsed kernels.

The pass builds a symbol table for a kernel (parameters, locals, ``__local``
arrays), infers an :class:`repro.frontend.ast.CType` for every expression,
and validates that only supported OpenCL builtins are called.  The results
feed both the static feature extraction (which needs to know whether an
arithmetic operation is integer or floating point — Table 1's
``#arith_int`` / ``#arith_float`` split) and the interpreter (which needs
to know buffer element types).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import SemanticError

#: OpenCL work-item builtins: name -> (number of args, returns size_t).
WORK_ITEM_BUILTINS = {
    "get_global_id": 1,
    "get_local_id": 1,
    "get_group_id": 1,
    "get_global_size": 1,
    "get_local_size": 1,
    "get_num_groups": 1,
    "get_global_offset": 1,
    "get_work_dim": 0,
}

#: Synchronisation / atomic builtins: name -> number of args.
SYNC_BUILTINS = {
    "barrier": 1,
    "mem_fence": 1,
    "atomic_inc": 1,
    "atomic_dec": 1,
    "atomic_add": 2,
    "atomic_sub": 2,
    "atomic_xchg": 2,
    "atomic_min": 2,
    "atomic_max": 2,
    "atomic_cmpxchg": 3,
}

#: Math builtins treated as floating-point "special" operations by the
#: feature extractor (the paper counts special float ops in #arith_float).
MATH_BUILTINS = {
    "sqrt": 1, "rsqrt": 1, "exp": 1, "exp2": 1, "log": 1, "log2": 1,
    "sin": 1, "cos": 1, "tan": 1, "fabs": 1, "floor": 1, "ceil": 1,
    "pow": 2, "fmax": 2, "fmin": 2, "fmod": 2, "hypot": 2, "mad": 3,
    "fma": 3, "clamp": 3,
}

#: Integer builtins.
INT_BUILTINS = {"abs": 1, "min": 2, "max": 2, "mul24": 2, "mad24": 3}

ALL_BUILTINS = (
    set(WORK_ITEM_BUILTINS) | set(SYNC_BUILTINS) | set(MATH_BUILTINS) | set(INT_BUILTINS)
)

_SIZE_T = ast.CType("size_t")
_INT = ast.CType("int")
_FLOAT = ast.CType("float")
_BOOL = ast.CType("bool")


@dataclass
class Symbol:
    """A named entity visible inside the kernel body."""

    name: str
    type: ast.CType
    is_param: bool = False
    is_array: bool = False
    array_dims: tuple[int, ...] = ()


@dataclass
class SymbolTable:
    """A flat map of the kernel's visible names.

    OpenCL-C kernels in this subset use block scoping, but no paper kernel
    shadows a name, so a flat table with scope push/pop for duplicate
    detection is sufficient and keeps lookups O(1) for the interpreter.
    """

    symbols: dict[str, Symbol] = field(default_factory=dict)

    def define(self, symbol: Symbol) -> None:
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        return self.symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.symbols


@dataclass
class KernelInfo:
    """The result of semantic analysis for one kernel.

    ``user_functions`` maps names of non-kernel helper functions (from the
    same translation unit) that the kernel may call.

    Attributes
    ----------
    kernel:
        The analysed function definition.
    symbols:
        Symbol table covering parameters and every declaration in the body.
    buffer_params:
        Names of pointer parameters (the kernel's global buffers), in
        declaration order — this is the host-side argument interface.
    scalar_params:
        Names of value parameters, in declaration order.
    expr_types:
        Inferred type for every expression node (by ``id``).
    uses_barrier / uses_atomics:
        Whether the kernel body calls synchronisation builtins; the
        interpreter selects its (cheaper) barrier-free execution strategy
        when possible.
    """

    kernel: ast.FunctionDef
    symbols: SymbolTable
    buffer_params: list[str]
    scalar_params: list[str]
    expr_types: dict[int, ast.CType]
    uses_barrier: bool = False
    uses_atomics: bool = False
    user_functions: dict[str, "KernelInfo"] = field(default_factory=dict)
    #: Products of later analyses derived from this info alone (the
    #: access model and its read/write summary), built on first use by
    #: :mod:`repro.analysis.accessmodel`.  Living on the info, they die
    #: with it; they are not part of its value and are not pickled.
    analysis_memo: dict = field(default_factory=dict, init=False,
                                compare=False, repr=False)

    def type_of(self, expr: ast.Expr) -> ast.CType:
        """The inferred type of ``expr`` (falls back to ``int``)."""
        return self.expr_types.get(id(expr), _INT)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "analysis_memo": {}}


class _Analyzer(ast.NodeVisitor):
    """Walks a kernel body, populating a :class:`KernelInfo`."""

    def __init__(self, kernel: ast.FunctionDef,
                 user_functions: dict[str, "KernelInfo"] | None = None):
        self.kernel = kernel
        self.symbols = SymbolTable()
        self.expr_types: dict[int, ast.CType] = {}
        self.uses_barrier = False
        self.uses_atomics = False
        self.user_functions = user_functions or {}

    def analyze(self) -> KernelInfo:
        buffer_params: list[str] = []
        scalar_params: list[str] = []
        for param in self.kernel.params:
            self.symbols.define(Symbol(param.name, param.type, is_param=True))
            (buffer_params if param.type.pointer else scalar_params).append(param.name)
        self.visit(self.kernel.body)
        return KernelInfo(
            kernel=self.kernel,
            symbols=self.symbols,
            buffer_params=buffer_params,
            scalar_params=scalar_params,
            expr_types=self.expr_types,
            uses_barrier=self.uses_barrier,
            uses_atomics=self.uses_atomics,
            user_functions=self.user_functions,
        )

    # -- statements -----------------------------------------------------------

    def visit_DeclStmt(self, node: ast.DeclStmt) -> None:
        for decl in node.decls:
            dims: list[int] = []
            for dim in decl.array_dims:
                if not isinstance(dim, ast.IntLiteral):
                    raise SemanticError(
                        f"array dimension of {decl.name!r} must be a constant",
                        decl.location,
                    )
                dims.append(dim.value)
            self.symbols.define(
                Symbol(
                    decl.name,
                    decl.type,
                    is_array=bool(dims) or decl.type.pointer,
                    array_dims=tuple(dims),
                )
            )
            if decl.init is not None:
                self.visit(decl.init)

    # -- expressions ------------------------------------------------------------

    def _set(self, node: ast.Expr, ctype: ast.CType) -> ast.CType:
        self.expr_types[id(node)] = ctype
        return ctype

    def visit_IntLiteral(self, node: ast.IntLiteral) -> ast.CType:
        return self._set(node, _INT)

    def visit_FloatLiteral(self, node: ast.FloatLiteral) -> ast.CType:
        return self._set(node, _FLOAT)

    def visit_Identifier(self, node: ast.Identifier) -> ast.CType:
        symbol = self.symbols.lookup(node.name)
        if symbol is None:
            raise SemanticError(f"use of undeclared identifier {node.name!r}", node.location)
        return self._set(node, symbol.type)

    def visit_BinaryOp(self, node: ast.BinaryOp) -> ast.CType:
        left = self.visit(node.left)
        right = self.visit(node.right)
        if node.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return self._set(node, _BOOL)
        if node.op == ",":
            return self._set(node, right)
        # usual arithmetic conversions, collapsed: float wins over int
        result = left if left.is_float else right if right.is_float else left
        if result.pointer:
            # pointer arithmetic yields a pointer of the same element type
            return self._set(node, result)
        return self._set(node, ast.CType(result.name))

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.CType:
        operand = self.visit(node.operand)
        if node.op == "!":
            return self._set(node, _BOOL)
        if node.op == "*":
            if not operand.pointer:
                raise SemanticError("dereference of non-pointer", node.location)
            return self._set(node, ast.CType(operand.name, address_space=operand.address_space))
        if node.op == "&":
            return self._set(
                node,
                ast.CType(operand.name, pointer=True, address_space=operand.address_space),
            )
        return self._set(node, operand)

    def visit_PostfixOp(self, node: ast.PostfixOp) -> ast.CType:
        return self._set(node, self.visit(node.operand))

    def visit_Assignment(self, node: ast.Assignment) -> ast.CType:
        target = self.visit(node.target)
        self.visit(node.value)
        if not isinstance(node.target, (ast.Identifier, ast.Index, ast.UnaryOp)):
            raise SemanticError("assignment target is not an lvalue", node.location)
        return self._set(node, target)

    def visit_Conditional(self, node: ast.Conditional) -> ast.CType:
        self.visit(node.cond)
        then = self.visit(node.then)
        otherwise = self.visit(node.otherwise)
        result = then if then.is_float else otherwise
        return self._set(node, result)

    def visit_Index(self, node: ast.Index) -> ast.CType:
        base = self.visit(node.base)
        self.visit(node.index)
        if not base.pointer and not self._is_array(node.base):
            raise SemanticError("subscript of non-array value", node.location)
        return self._set(node, ast.CType(base.name, address_space=base.address_space))

    def _is_array(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Identifier):
            symbol = self.symbols.lookup(expr.name)
            return symbol is not None and symbol.is_array
        return isinstance(expr, ast.Index)

    def visit_Cast(self, node: ast.Cast) -> ast.CType:
        self.visit(node.operand)
        return self._set(node, node.type)

    def visit_Call(self, node: ast.Call) -> ast.CType:
        for arg in node.args:
            self.visit(arg)
        name = node.name
        if name in WORK_ITEM_BUILTINS:
            expected = WORK_ITEM_BUILTINS[name]
            if len(node.args) != expected:
                raise SemanticError(
                    f"{name} expects {expected} argument(s), got {len(node.args)}",
                    node.location,
                )
            return self._set(node, _SIZE_T)
        if name in SYNC_BUILTINS:
            if name == "barrier":
                self.uses_barrier = True
            else:
                self.uses_atomics = True
            return self._set(node, _INT)
        if name in MATH_BUILTINS:
            return self._set(node, _FLOAT)
        if name in INT_BUILTINS:
            return self._set(node, _INT)
        if name in self.user_functions:
            callee = self.user_functions[name]
            expected = len(callee.kernel.params)
            if len(node.args) != expected:
                raise SemanticError(
                    f"{name} expects {expected} argument(s), got {len(node.args)}",
                    node.location,
                )
            if callee.uses_barrier:
                self.uses_barrier = True
            if callee.uses_atomics:
                self.uses_atomics = True
            return self._set(node, callee.kernel.return_type)
        raise SemanticError(f"call to unsupported function {name!r}", node.location)


def analyze_kernel(
    kernel: ast.FunctionDef,
    unit: ast.TranslationUnit | None = None,
) -> KernelInfo:
    """Run semantic analysis over ``kernel`` and return its :class:`KernelInfo`.

    If ``unit`` is given, its non-kernel functions become callable helpers;
    they are analysed first (in declaration order — forward references and
    recursion are not part of the supported subset).
    """
    helpers: dict[str, KernelInfo] = {}
    if unit is not None:
        for function in unit.functions:
            if function.is_kernel or function.name == kernel.name:
                continue
            helpers[function.name] = _Analyzer(function, dict(helpers)).analyze()
    return _Analyzer(kernel, helpers).analyze()
