"""Guard-aware access model for the static kernel verifier.

:mod:`repro.analysis.scan` walks a kernel once to *count* things; this
module walks it once to *prove* things.  The walk produces an
:class:`AccessModel`: every buffer access with its affine address form,
the stack of control-flow guards it sits under, the loops enclosing it
(including recognised atomic-worklist *claim loops* from the
``gpu_malleable`` / ``cpu_codegen`` rewrites), its barrier phase, and the
declared extents of ``__local`` / private arrays.  The race, OOB and
barrier passes in :mod:`repro.analysis.verify` consume the model.

Soundness conventions
---------------------
Anything the walker cannot express exactly is *demoted*, never guessed:

* accesses inside ``while`` / ``do-while`` bodies, through non-identifier
  roots, or via pointers are marked ``unanalyzable``;
* variables that carry values across loop iterations (read-before-write
  in the body) or are assigned divergently across ``if`` branches are
  re-bound to :meth:`AffineForm.tainted`;
* composite guard negations that cannot be split into comparisons are
  kept only as concrete-evaluation trees (no box tightening).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..frontend import ast
from ..frontend.semantics import (
    KernelInfo,
    SYNC_BUILTINS,
    WORK_ITEM_BUILTINS,
)
from .accessclass import (
    AffineEvaluator,
    AffineForm,
    DivModRegistry,
    IndexVar,
    loop_var,
)

#: Rank for worklist-claim variables: slower than any loop (<= 0), faster
#: than any work-item id (>= 100), so classification is unaffected.
CLAIM_RANK = 50


def claim_var(name: str, serial: int) -> IndexVar:
    return IndexVar(f"claim{serial}:{name}", CLAIM_RANK)


# ---------------------------------------------------------------------------
# Guard trees: exact concrete evaluation of arbitrary conditions
# ---------------------------------------------------------------------------
#
# A guard tree mirrors the condition expression with affine-form leaves
# snapshotted at walk time (forward substitution applied), so a witness
# assignment of index variables can be checked *exactly* — including the
# non-affine ``lid % mod < alloc`` participation guard of the malleable
# rewrite.  Tree nodes are tuples:
#
#   ("leaf", AffineForm) | ("mod"|"div", l, r) | ("cmp", op, l, r)
#   ("and"|"or", l, r)   | ("not", x)

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _c_div(a: int, b: int) -> Optional[int]:
    if b == 0:
        return None
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> Optional[int]:
    d = _c_div(a, b)
    return None if d is None else a - b * d


@dataclass(frozen=True)
class Guard:
    """One control-flow predicate enclosing an access.

    ``tree`` evaluates the original condition concretely; when the
    condition is a single comparison of affine operands, ``form``/``op``
    give the polarity-normalised constraint ``form op 0`` used for box
    tightening.  ``expect`` is the branch polarity of ``tree``.
    """

    tree: tuple
    expect: bool
    form: Optional[AffineForm]
    op: Optional[str]
    id_dependent: bool
    data_dependent: bool
    location: Any = None


@dataclass(frozen=True)
class ClaimLoop:
    """A recognised atomic-worklist claim loop (Figure 5-7 rewrites).

    ``space`` is the worklist's address space: ``"local"`` claims are
    unique per work-group (gpu_malleable), ``"global"`` claims are unique
    across the whole launch (cpu_codegen).
    """

    var: IndexVar
    worklist: str
    space: str
    bound: AffineForm
    location: Any = None


@dataclass(frozen=True)
class LoopInfo:
    """One ``for`` loop: its iteration-count variable and symbolic range.

    The bound variable counts *iterations from zero*; the induction
    variable's affine form is ``var * step + start``, so witness values
    for ``var`` are always achievable (no step-divisibility concerns).
    """

    var: IndexVar
    start: Optional[AffineForm]
    bound: Optional[AffineForm]
    step: Optional[int]
    op: Optional[str]          # iv OP bound, normalised: < <= > >=
    irregular: bool
    has_break: bool
    claim: Optional[ClaimLoop] = None


@dataclass
class Access:
    """One static buffer-access site with its full proof context."""

    buffer: str
    space: str                  # "global" | "local" | "private"
    is_store: bool
    atomic: bool
    form: AffineForm
    guards: tuple[Guard, ...]
    loops: tuple[LoopInfo, ...]
    phase: int
    location: Any
    unanalyzable: bool = False
    #: For plain ``=`` stores: the affine form of the stored value, when it
    #: could be evaluated.  Lets the race pass recognise idempotent
    #: write/write pairs (every racing item stores the same value).
    value: Optional[AffineForm] = None


@dataclass
class BarrierSite:
    location: Any
    guards: tuple[Guard, ...]
    loops: tuple[LoopInfo, ...]
    divergent: bool
    reasons: tuple[str, ...]


@dataclass
class AccessModel:
    """Everything the verifier passes need, from one AST walk.

    The model is memoised on its :class:`KernelInfo` and holds no
    reference back to it, so an info nobody else holds is freed at once
    by reference counting, without waiting for the cycle collector.
    """

    kernel: str
    accesses: list[Access] = field(default_factory=list)
    barriers: list[BarrierSite] = field(default_factory=list)
    claim_loops: list[ClaimLoop] = field(default_factory=list)
    local_extents: dict[str, Optional[int]] = field(default_factory=dict)
    private_extents: dict[str, Optional[int]] = field(default_factory=dict)
    #: True when every barrier sits at top level (no guards, no loops):
    #: barrier phases then partition accesses and the race pass may treat
    #: different-phase local pairs as synchronised.
    phases_valid: bool = True
    deref_store: bool = False
    #: interned quotient/remainder variables for ``/``/``%`` of index
    #: expressions; the verifier turns each into an exact defining
    #: equation (``base == K*q + r, 0 <= r < K``) at specialization time
    divmod: DivModRegistry = field(default_factory=DivModRegistry)

    def sync_rank_vars(self, form: AffineForm) -> list[IndexVar]:
        """Variables of ``form`` at or above :data:`CLAIM_RANK`, seeing
        *through* derived quotient/remainder variables to their bases."""
        out = []
        for var, coeff in form.vars.items():
            if coeff.is_zero:
                continue
            for base in self.divmod.base_vars(var):
                if base.rank >= CLAIM_RANK:
                    out.append(base)
        return out


_ATOMIC_BUILTINS = frozenset(
    {"atomic_inc", "atomic_dec", "atomic_add", "atomic_sub"}
)


class _ModelWalker:
    """Single walk of a kernel body building the :class:`AccessModel`."""

    def __init__(
        self,
        info: KernelInfo,
        model: AccessModel,
        call_depth: int = 0,
        loop_serial=None,
    ):
        self.info = info
        self.model = model
        self.env: dict[str, AffineForm] = {}
        self.evaluator = AffineEvaluator(info, self.env, divmod=model.divmod)
        self.guard_stack: list[Guard] = []
        self.loop_stack: list[LoopInfo] = []
        self.buffer_alias: dict[str, Optional[tuple[str, str]]] = {}
        self.in_while = 0
        self._call_depth = call_depth
        self._loop_serial = loop_serial or itertools.count()

    def run(self) -> AccessModel:
        self._walk_block_body([self.info.kernel.body])
        return self.model

    # -- name resolution -----------------------------------------------------

    def _root_of(self, expr: ast.Expr) -> Optional[ast.Identifier]:
        base = expr
        while isinstance(base, ast.Index):
            base = base.base
        return base if isinstance(base, ast.Identifier) else None

    def _space_of(self, name: str) -> Optional[tuple[str, str]]:
        """(space, canonical buffer name) for an access root, or None."""
        if name in self.buffer_alias:
            return self.buffer_alias[name]
        if name in self.model.local_extents:
            return ("local", name)
        if name in self.model.private_extents:
            return ("private", name)
        symbol = self.info.symbols.lookup(name)
        if symbol is not None and symbol.type.pointer:
            space = symbol.type.address_space
            if space in ("global", "constant"):
                return ("global", name)
            if space == "local":
                return ("local", name)
        return None

    # -- guard construction -----------------------------------------------------

    def _guard_tree(self, expr: ast.Expr) -> tuple:
        if isinstance(expr, ast.BinaryOp):
            if expr.op in _CMP_OPS:
                return ("cmp", expr.op, self._guard_tree(expr.left),
                        self._guard_tree(expr.right))
            if expr.op == "&&":
                return ("and", self._guard_tree(expr.left),
                        self._guard_tree(expr.right))
            if expr.op == "||":
                return ("or", self._guard_tree(expr.left),
                        self._guard_tree(expr.right))
            if expr.op == "%":
                return ("mod", self._guard_tree(expr.left),
                        self._guard_tree(expr.right))
            if expr.op == "/":
                return ("div", self._guard_tree(expr.left),
                        self._guard_tree(expr.right))
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            return ("not", self._guard_tree(expr.operand))
        return ("leaf", self.evaluator.eval(expr))

    def _cond_flags(self, cond: ast.Expr) -> tuple[bool, bool]:
        """(id_dependent, data_dependent): does the condition vary across
        work-items / with loaded data?  Uniform-loop counters (rank < 50)
        do not count as divergent."""
        id_dep = False
        data_dep = False
        for node in ast.walk(cond):
            if isinstance(node, ast.Index):
                data_dep = True
            elif isinstance(node, ast.Call) and node.name in WORK_ITEM_BUILTINS:
                if node.name in ("get_global_id", "get_local_id",
                                 "get_group_id"):
                    id_dep = True
            elif isinstance(node, ast.Identifier):
                form = self.env.get(node.name)
                if form is not None:
                    if form.indirect:
                        data_dep = True
                    if self.model.sync_rank_vars(form):
                        id_dep = True
                    if form.unknown_base:
                        data_dep = True
        return id_dep, data_dep

    def _make_guards(self, cond: ast.Expr, expect: bool) -> list[Guard]:
        """Split a branch condition into per-conjunct guards."""
        if isinstance(cond, ast.BinaryOp):
            if cond.op == "&&" and expect:
                return (self._make_guards(cond.left, True)
                        + self._make_guards(cond.right, True))
            if cond.op == "||" and not expect:
                # !(a || b) == !a && !b
                return (self._make_guards(cond.left, False)
                        + self._make_guards(cond.right, False))
        if isinstance(cond, ast.UnaryOp) and cond.op == "!":
            return self._make_guards(cond.operand, not expect)

        tree = self._guard_tree(cond)
        form = None
        op = None
        if tree[0] == "cmp" and tree[2][0] == "leaf" and tree[3][0] == "leaf":
            left, right = tree[2][1], tree[3][1]
            diff = left - right
            if not (diff.indirect or diff.nonaffine or diff.unknown_base):
                form = diff
                op = tree[1] if expect else _NEGATED[tree[1]]
        id_dep, data_dep = self._cond_flags(cond)
        return [Guard(tree=tree, expect=expect, form=form, op=op,
                      id_dependent=id_dep, data_dependent=data_dep,
                      location=cond.location)]

    # -- access recording -----------------------------------------------------

    def _record_access(self, expr: ast.Index, is_store: bool,
                       atomic: bool = False,
                       value: Optional[AffineForm] = None) -> None:
        root = self._root_of(expr)
        resolved = self._space_of(root.name) if root is not None else None
        if resolved is None:
            return
        space, buffer = resolved
        form = self._address_form(expr)
        self.model.accesses.append(
            Access(
                buffer=buffer,
                space=space,
                is_store=is_store,
                atomic=atomic,
                form=form,
                guards=tuple(self.guard_stack),
                loops=tuple(self.loop_stack),
                phase=self._phase,
                location=expr.location,
                unanalyzable=self.in_while > 0 or self._call_depth >= 4,
                value=value,
            )
        )

    def _address_form(self, expr: ast.Index) -> AffineForm:
        indices: list[ast.Expr] = []
        base: ast.Expr = expr
        while isinstance(base, ast.Index):
            indices.append(base.index)
            base = base.base
        indices.reverse()
        if len(indices) > 1:
            # Multi-dimensional chains have per-level extents the verifier
            # cannot bound: outside the envelope.
            return AffineForm.tainted()
        return self.evaluator.eval(indices[0])

    @property
    def _phase(self) -> int:
        return self.model.__dict__.setdefault("_phase_counter", 0)

    def _bump_phase(self) -> None:
        self.model.__dict__["_phase_counter"] = self._phase + 1

    # -- expression scanning ----------------------------------------------------

    def _scan_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.Identifier)):
            return
        if isinstance(expr, ast.Assignment):
            self._scan_assignment(expr)
            return
        if isinstance(expr, ast.Index):
            self._scan_expr(expr.index)
            if isinstance(expr.base, ast.Index):
                self._scan_index_chain(expr.base)
            self._record_access(expr, is_store=False)
            return
        if isinstance(expr, ast.BinaryOp):
            self._scan_expr(expr.left)
            self._scan_expr(expr.right)
            return
        if isinstance(expr, ast.UnaryOp):
            self._scan_expr(expr.operand)
            if expr.op in ("++", "--"):
                self._update_env_incdec(expr.operand, expr.op)
            return
        if isinstance(expr, ast.PostfixOp):
            self._scan_expr(expr.operand)
            self._update_env_incdec(expr.operand, expr.op)
            return
        if isinstance(expr, ast.Conditional):
            self._scan_expr(expr.cond)
            self._scan_expr(expr.then)
            self._scan_expr(expr.otherwise)
            return
        if isinstance(expr, ast.Cast):
            self._scan_expr(expr.operand)
            return
        if isinstance(expr, ast.Call):
            self._scan_call(expr)
            return

    def _scan_call(self, expr: ast.Call) -> None:
        if expr.name == "barrier":
            self._record_barrier(expr)
            return
        if expr.name in _ATOMIC_BUILTINS and expr.args:
            target = expr.args[0]
            if isinstance(target, ast.Index):
                self._scan_expr(target.index)
                self._record_access(target, is_store=True, atomic=True)
            elif isinstance(target, ast.Identifier):
                root = self._space_of(target.name)
                if root is not None:
                    space, buffer = root
                    self.model.accesses.append(
                        Access(buffer=buffer, space=space, is_store=True,
                               atomic=True, form=AffineForm.literal(0),
                               guards=tuple(self.guard_stack),
                               loops=tuple(self.loop_stack),
                               phase=self._phase, location=expr.location)
                    )
            for arg in expr.args[1:]:
                self._scan_expr(arg)
            return
        for arg in expr.args:
            self._scan_expr(arg)
        if expr.name in SYNC_BUILTINS or expr.name in WORK_ITEM_BUILTINS:
            return
        if expr.name in self.info.user_functions:
            self._scan_user_call(expr)

    def _record_barrier(self, expr: ast.Call) -> None:
        reasons: list[str] = []
        for guard in self.guard_stack:
            if guard.id_dependent:
                reasons.append("work-item-dependent condition")
            elif guard.data_dependent:
                reasons.append("data-dependent condition")
        for loop in self.loop_stack:
            bound = loop.bound
            if loop.irregular or bound is None:
                reasons.append("loop with irregular trip count")
            elif bound.indirect or bound.unknown_base \
                    or self.model.sync_rank_vars(bound):
                reasons.append("loop with work-item-dependent trip count")
        divergent = bool(reasons)
        self.model.barriers.append(
            BarrierSite(
                location=expr.location,
                guards=tuple(self.guard_stack),
                loops=tuple(self.loop_stack),
                divergent=divergent,
                reasons=tuple(dict.fromkeys(reasons)),
            )
        )
        if self.guard_stack or self.loop_stack:
            self.model.phases_valid = False
        else:
            self._bump_phase()

    def _scan_user_call(self, expr: ast.Call) -> None:
        if self._call_depth >= 4:
            return
        callee = self.info.user_functions[expr.name]
        sub = _ModelWalker(callee, self.model, self._call_depth + 1,
                           loop_serial=self._loop_serial)
        sub.guard_stack = self.guard_stack
        sub.loop_stack = self.loop_stack
        sub.in_while = self.in_while
        for param, arg in zip(callee.kernel.params, expr.args):
            if param.type.pointer:
                root = arg if isinstance(arg, ast.Identifier) else None
                sub.buffer_alias[param.name] = (
                    self._space_of(root.name) if root is not None else None
                )
            else:
                sub.env[param.name] = self.evaluator.eval(arg)
        sub._walk_stmt(callee.kernel.body)

    def _scan_index_chain(self, expr: ast.Expr) -> None:
        while isinstance(expr, ast.Index):
            self._scan_expr(expr.index)
            expr = expr.base

    def _scan_assignment(self, expr: ast.Assignment) -> None:
        self._scan_expr(expr.value)
        target = expr.target
        if isinstance(target, ast.Index):
            self._scan_expr(target.index)
            if isinstance(target.base, ast.Index):
                self._scan_index_chain(target.base)
            if expr.op != "=":
                self._record_access(target, is_store=False)
                self._record_access(target, is_store=True)
            else:
                self._record_access(target, is_store=True,
                                    value=self.evaluator.eval(expr.value))
        elif isinstance(target, ast.Identifier):
            self._update_env_assign(target.name, expr)
        elif isinstance(target, ast.UnaryOp) and target.op == "*":
            self._scan_expr(target.operand)
            self.model.deref_store = True

    def _update_env_assign(self, name: str, expr: ast.Assignment) -> None:
        value = self.evaluator.eval(expr.value)
        if expr.op == "=":
            self.env[name] = value
        elif expr.op == "+=":
            self.env[name] = self.env.get(name, AffineForm.opaque()) + value
        elif expr.op == "-=":
            self.env[name] = self.env.get(name, AffineForm.opaque()) - value
        else:
            self.env[name] = AffineForm.tainted(indirect=value.indirect)

    def _update_env_incdec(self, operand: ast.Expr, op: str) -> None:
        if isinstance(operand, ast.Identifier):
            delta = AffineForm.literal(1 if op == "++" else -1)
            self.env[operand.name] = (
                self.env.get(operand.name, AffineForm.opaque()) + delta
            )

    # -- statement walking -----------------------------------------------------

    def _walk_stmt(self, stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._walk_block_body(stmt.body)
        elif isinstance(stmt, ast.DeclStmt):
            self._walk_decls(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._scan_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._walk_if(stmt)
        elif isinstance(stmt, ast.For):
            self._walk_for(stmt)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            self._walk_while(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value)

    def _walk_block_body(self, body) -> None:
        """Walk a statement list, turning early-return guards into negated
        guards over the remaining statements."""
        pushed = 0
        try:
            for stmt in body:
                if isinstance(stmt, ast.Return):
                    self._walk_stmt(stmt)
                    return  # everything after an unconditional return is dead
                if (isinstance(stmt, ast.If) and stmt.otherwise is None
                        and self._then_returns(stmt.then)):
                    self._scan_expr(stmt.cond)
                    guards = self._make_guards(stmt.cond, True)
                    self.guard_stack.extend(guards)
                    try:
                        self._walk_stmt(stmt.then)
                    finally:
                        del self.guard_stack[len(self.guard_stack) - len(guards):]
                    negated = self._make_guards(stmt.cond, False)
                    self.guard_stack.extend(negated)
                    pushed += len(negated)
                    continue
                self._walk_stmt(stmt)
        finally:
            if pushed:
                del self.guard_stack[len(self.guard_stack) - pushed:]

    @staticmethod
    def _then_returns(stmt) -> bool:
        if isinstance(stmt, ast.Return):
            return True
        if isinstance(stmt, ast.Block) and stmt.body:
            return isinstance(stmt.body[-1], ast.Return)
        return False

    def _walk_decls(self, stmt: ast.DeclStmt) -> None:
        for decl in stmt.decls:
            if decl.array_dims:
                extent = self._array_extent(decl.array_dims)
                if decl.type.address_space == "local":
                    self.model.local_extents[decl.name] = extent
                else:
                    self.model.private_extents[decl.name] = extent
                continue
            if decl.init is not None:
                self._scan_expr(decl.init)
                self.env[decl.name] = self.evaluator.eval(decl.init)
            else:
                self.env[decl.name] = AffineForm.opaque()

    def _array_extent(self, dims) -> Optional[int]:
        total = 1
        for dim in dims:
            form = self.evaluator.eval(dim)
            literal = form.const.literal if not form.has_vars else None
            if (literal is None or form.indirect or form.nonaffine
                    or literal <= 0):
                return None
            total *= literal
        return total

    def _walk_if(self, stmt: ast.If) -> None:
        self._scan_expr(stmt.cond)
        before = dict(self.env)

        guards = self._make_guards(stmt.cond, True)
        self.guard_stack.extend(guards)
        try:
            self._walk_stmt(stmt.then)
        finally:
            del self.guard_stack[len(self.guard_stack) - len(guards):]
        after_then = dict(self.env)

        self.env.clear()
        self.env.update(before)
        if stmt.otherwise is not None:
            negated = self._make_guards(stmt.cond, False)
            self.guard_stack.extend(negated)
            try:
                self._walk_stmt(stmt.otherwise)
            finally:
                del self.guard_stack[len(self.guard_stack) - len(negated):]
        after_else = dict(self.env)

        # Merge: keep bindings both paths agree on, taint the rest.
        merged: dict[str, AffineForm] = {}
        for name in set(after_then) | set(after_else):
            a, b = after_then.get(name), after_else.get(name)
            if a is not None and b is not None and a == b:
                merged[name] = a
            else:
                merged[name] = AffineForm.tainted()
        self.env.clear()
        self.env.update(merged)

    # -- loops ---------------------------------------------------------------

    def _detect_claim(self, stmt: ast.For) -> Optional[tuple[str, ast.Expr]]:
        """Recognise ``for (int iv = atomic_inc(W); iv < bound;
        iv = atomic_inc(W))`` and return (iv name, worklist root name,
        bound expr) — the claim-loop shape both rewrites emit."""

        def _claim_call(expr) -> Optional[str]:
            if (isinstance(expr, ast.Call) and expr.name == "atomic_inc"
                    and len(expr.args) == 1):
                root = self._root_of(expr.args[0])
                return root.name if root is not None else None
            return None

        init = stmt.init
        if not (isinstance(init, ast.DeclStmt) and len(init.decls) == 1):
            return None
        decl = init.decls[0]
        wl = _claim_call(decl.init)
        if wl is None:
            return None
        step = stmt.step
        if not (isinstance(step, ast.Assignment) and step.op == "="
                and isinstance(step.target, ast.Identifier)
                and step.target.name == decl.name
                and _claim_call(step.value) == wl):
            return None
        cond = stmt.cond
        if not (isinstance(cond, ast.BinaryOp) and cond.op == "<"
                and isinstance(cond.left, ast.Identifier)
                and cond.left.name == decl.name):
            return None
        return decl.name, wl, cond.right

    def _walk_for(self, stmt: ast.For) -> None:
        claim = self._detect_claim(stmt)
        if claim is not None:
            self._walk_claim_loop(stmt, *claim)
            return

        if stmt.init is not None:
            if isinstance(stmt.init, ast.DeclStmt):
                for decl in stmt.init.decls:
                    if decl.init is not None:
                        self._scan_expr(decl.init)
            elif isinstance(stmt.init, ast.ExprStmt):
                self._scan_expr(stmt.init.expr)
        iv, start = self._extract_iv(stmt)
        step = self._extract_step(stmt, iv) if iv is not None else None
        bound, op = (self._extract_bound(stmt, iv) if iv is not None
                     else (None, None))
        irregular = (
            iv is None or step is None or bound is None or op is None
            or bound.indirect or bound.nonaffine or bound.unknown_base
            or (start is not None
                and (start.indirect or start.nonaffine or start.unknown_base))
        )
        serial = next(self._loop_serial)
        var = loop_var(iv or f"anon{serial}", len(self.loop_stack) + 1, serial)
        loop = LoopInfo(
            var=var, start=start, bound=bound, step=step, op=op,
            irregular=irregular, has_break=self._has_break(stmt.body),
        )
        saved = self.env.get(iv) if iv is not None else None
        if iv is not None:
            iv_form = AffineForm.variable(var) * AffineForm.literal(step or 1)
            if start is not None and not irregular:
                iv_form = iv_form + start
            elif start is not None:
                iv_form = AffineForm(vars=dict(iv_form.vars),
                                     const=iv_form.const, unknown_base=True)
            self.env[iv] = iv_form
        self._taint_loop_carried(stmt.body, exclude=iv)
        self.loop_stack.append(loop)
        try:
            if stmt.cond is not None:
                self._scan_expr(stmt.cond)
            if stmt.step is not None:
                self._scan_expr(stmt.step)
            if iv is not None:
                # Scanning cond/step may have advanced the induction
                # variable's binding (e.g. `j++`); the body sees iteration 0.
                self.env[iv] = iv_form
            self._walk_stmt(stmt.body)
        finally:
            self.loop_stack.pop()
            self._taint_written(stmt.body, exclude=iv)
            if iv is not None:
                if saved is not None:
                    self.env[iv] = saved
                else:
                    self.env.pop(iv, None)

    def _walk_claim_loop(self, stmt: ast.For, iv: str, worklist: str,
                         bound_expr: ast.Expr) -> None:
        resolved = self._space_of(worklist)
        space = resolved[0] if resolved is not None else "local"
        if resolved is not None:
            # the claim itself is an atomic RMW on the worklist
            self.model.accesses.append(
                Access(buffer=resolved[1], space=space, is_store=True,
                       atomic=True, form=AffineForm.literal(0),
                       guards=tuple(self.guard_stack),
                       loops=tuple(self.loop_stack),
                       phase=self._phase, location=stmt.location)
            )
        serial = next(self._loop_serial)
        var = claim_var(iv, serial)
        bound = self.evaluator.eval(bound_expr)
        claim = ClaimLoop(var=var, worklist=worklist, space=space,
                          bound=bound, location=stmt.location)
        self.model.claim_loops.append(claim)
        loop = LoopInfo(var=var, start=AffineForm.literal(0), bound=bound,
                        step=1, op="<", irregular=False,
                        has_break=self._has_break(stmt.body), claim=claim)
        saved = self.env.get(iv)
        self.env[iv] = AffineForm.variable(var)
        self._taint_loop_carried(stmt.body, exclude=iv)
        self.loop_stack.append(loop)
        try:
            self._walk_stmt(stmt.body)
        finally:
            self.loop_stack.pop()
            self._taint_written(stmt.body, exclude=iv)
            if saved is not None:
                self.env[iv] = saved
            else:
                self.env.pop(iv, None)

    def _walk_while(self, stmt) -> None:
        self._scan_expr(stmt.cond)
        self._taint_loop_carried(stmt.body, exclude=None)
        serial = next(self._loop_serial)
        loop = LoopInfo(var=loop_var(f"while{serial}",
                                     len(self.loop_stack) + 1, serial),
                        start=None, bound=None, step=None, op=None,
                        irregular=True, has_break=True)
        self.loop_stack.append(loop)
        self.in_while += 1
        try:
            self._walk_stmt(stmt.body)
        finally:
            self.in_while -= 1
            self.loop_stack.pop()
            self._taint_written(stmt.body, exclude=None)

    # -- loop-carried-value hygiene ---------------------------------------------

    def _written_names(self, body) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Assignment):
                if isinstance(node.target, ast.Identifier):
                    names.add(node.target.name)
            elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)):
                if node.op in ("++", "--") and isinstance(
                        node.operand, ast.Identifier):
                    names.add(node.operand.name)
        return names

    def _taint_loop_carried(self, body, exclude: Optional[str]) -> None:
        """Before walking a loop body: variables whose body assignment reads
        their own prior value (accumulators) carry state across iterations
        the single symbolic walk cannot express — taint them."""
        written = self._written_names(body)
        written.discard(exclude)
        if not written:
            return
        reads: set[str] = set()
        for node in ast.walk(body):
            if isinstance(node, ast.Assignment):
                if (isinstance(node.target, ast.Identifier)
                        and node.op != "="):
                    reads.add(node.target.name)
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Identifier):
                        reads.add(sub.name)
            elif isinstance(node, (ast.UnaryOp, ast.PostfixOp)):
                if node.op in ("++", "--") and isinstance(
                        node.operand, ast.Identifier):
                    reads.add(node.operand.name)
        for name in written & reads:
            self.env[name] = AffineForm.tainted()

    def _taint_written(self, body, exclude: Optional[str]) -> None:
        """After a loop: bindings made inside reflect one symbolic iteration,
        not the loop's final state — taint them for post-loop uses."""
        for name in self._written_names(body) - {exclude}:
            if name in self.env:
                self.env[name] = AffineForm.tainted()

    def _extract_iv(self, stmt: ast.For):
        init = stmt.init
        if isinstance(init, ast.DeclStmt) and len(init.decls) == 1:
            decl = init.decls[0]
            start = (self.evaluator.eval(decl.init)
                     if decl.init is not None else AffineForm.literal(0))
            return decl.name, start
        if isinstance(init, ast.ExprStmt) and isinstance(init.expr,
                                                         ast.Assignment):
            target = init.expr.target
            if isinstance(target, ast.Identifier) and init.expr.op == "=":
                return target.name, self.evaluator.eval(init.expr.value)
        return None, None

    def _extract_step(self, stmt: ast.For, iv: str) -> Optional[int]:
        step = stmt.step
        if step is None:
            return None
        if isinstance(step, (ast.PostfixOp, ast.UnaryOp)) and step.op in (
                "++", "--"):
            operand = step.operand
            if isinstance(operand, ast.Identifier) and operand.name == iv:
                return 1 if step.op == "++" else -1
        if isinstance(step, ast.Assignment) and isinstance(
                step.target, ast.Identifier) and step.target.name == iv:
            delta = None
            if step.op in ("+=", "-="):
                form = self.evaluator.eval(step.value)
                delta = form.const.literal if not form.has_vars else None
                if delta is not None and step.op == "-=":
                    delta = -delta
            elif step.op == "=" and isinstance(step.value, ast.BinaryOp):
                value = step.value
                if (value.op in ("+", "-")
                        and isinstance(value.left, ast.Identifier)
                        and value.left.name == iv):
                    form = self.evaluator.eval(value.right)
                    delta = form.const.literal if not form.has_vars else None
                    if delta is not None and value.op == "-":
                        delta = -delta
            if delta:
                return delta
        return None

    def _extract_bound(self, stmt: ast.For, iv: str):
        """(bound form, op) with op normalised to ``iv OP bound``."""
        cond = stmt.cond
        if not isinstance(cond, ast.BinaryOp) or cond.op not in (
                "<", "<=", ">", ">="):
            return None, None
        left_is_iv = (isinstance(cond.left, ast.Identifier)
                      and cond.left.name == iv)
        right_is_iv = (isinstance(cond.right, ast.Identifier)
                       and cond.right.name == iv)
        if left_is_iv:
            return self.evaluator.eval(cond.right), cond.op
        if right_is_iv:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            return self.evaluator.eval(cond.left), flipped[cond.op]
        return None, None

    @staticmethod
    def _has_break(body) -> bool:
        for node in ast.walk(body):
            if isinstance(node, (ast.Break, ast.Continue)):
                return True
            if isinstance(node, ast.Return):
                return True
        return False


def build_access_model(info: KernelInfo) -> AccessModel:
    """Build (and memoise on the KernelInfo) the access model for a kernel."""
    model = info.analysis_memo.get("access_model")
    if model is None:
        model = AccessModel(kernel=info.kernel.name)
        _ModelWalker(info, model).run()
        # a racing thread's model wins if it landed first: one per info
        model = info.analysis_memo.setdefault("access_model", model)
    return model


@dataclass(frozen=True)
class LaunchRWSummary:
    """Which *global* buffer parameters a launch reads and writes.

    This is the launch-level face of the access model, consumed by the
    serving layer's hazard matcher (:mod:`repro.serve.graph`): a kernel
    conflicts with an in-flight one iff their read/write sets touch
    overlapping buffers.  ``exact`` is False when the walker saw a
    pointer-deref store it could not attribute to a named buffer — the
    summary then conservatively claims every buffer parameter as both
    read and written, which can only over-order, never miss a hazard.
    """

    reads: frozenset[str]
    writes: frozenset[str]
    exact: bool = True


def launch_rw_summary(info: KernelInfo) -> LaunchRWSummary:
    """Summarise (and memoise) a kernel's global-buffer read/write sets.

    Soundness follows the walker's demotion rules: unanalyzable accesses
    still carry their buffer name, so they classify correctly; atomics
    are read-modify-write and land in both sets; only an unattributable
    pointer-deref store (``model.deref_store``) forces the all-buffers
    fallback.  A declared buffer parameter the kernel never touches
    (e.g. FDTD2's unused ``ey``) appears in neither set.
    """
    summary = info.analysis_memo.get("rw_summary")
    if summary is not None:
        return summary
    model = build_access_model(info)
    params = frozenset(info.buffer_params)
    if model.deref_store:
        summary = LaunchRWSummary(reads=params, writes=params, exact=False)
    else:
        reads = set()
        writes = set()
        for access in model.accesses:
            if access.space != "global" or access.buffer not in params:
                continue
            if access.is_store or access.atomic:
                writes.add(access.buffer)
            if not access.is_store or access.atomic:
                reads.add(access.buffer)
        summary = LaunchRWSummary(reads=frozenset(reads),
                                  writes=frozenset(writes))
    return info.analysis_memo.setdefault("rw_summary", summary)
