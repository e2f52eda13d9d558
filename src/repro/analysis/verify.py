"""Static kernel verifier: data races, out-of-bounds accesses, barrier
divergence, vectorizer eligibility (structured diagnostics).

Four passes over the :class:`~repro.analysis.accessmodel.AccessModel`:

``races``
    For every pair of accesses to one buffer (at least one a non-atomic
    store), decide whether two *distinct* work-items can touch the same
    element.  Address forms are resolved to integer-coefficient linear
    terms over work-item ids (``gid`` expanded to ``lid + L*grp + off``),
    worklist-claim counters and per-access loop counters; equality of the
    two addresses is a single linear Diophantine equation solved exactly
    by :mod:`repro.analysis.linsolve` under box constraints, with
    distinctness imposed by case analysis: (a) some group-id delta is
    non-zero, (b) all group deltas are zero and some local-id delta is
    non-zero (worklist claims from the same worklist must then differ
    too: within one group, atomic claims are handed out uniquely), or
    (c) for addresses independent of the executing item, two different
    claims from a shared worklist (an adversarial scheduler may hand them
    to two different items).  SAT verdicts are only reported after the
    witness passes every guard of both accesses *concretely* (including
    non-affine participation guards such as ``lid % mod < alloc``);
    otherwise the pair is demoted to "unknown".

``oob``
    Per-access interval analysis of the resolved address against the
    buffer extent, boxes tightened by single-variable affine guards.  A
    violation is reported only when a guard-satisfying corner witness
    exists.

``barriers``
    ``barrier()`` under work-item- or data-dependent control flow.

``vectorize``
    Converts the vector backend's silent ``VectorizeFallback`` reason
    into a located INFO diagnostic.

Soundness envelope: indirect (``A[B[i]]``), non-affine (``%``, ``/`` by
variables), unknown-base (data-dependent loop starts), multi-dimensional
index chains, ``while`` bodies and budget-exhausted solves all demote to
"unknown" — never to "clean", never to a diagnostic.

The ``DOPIA_VERIFY`` policy flag (``off`` | ``warn`` | ``raise``) gates
what the build/launch wiring does with a report; ``off`` (default) keeps
the hot path untouched.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Mapping, Optional
import weakref

from ..frontend.semantics import KernelInfo
from ..obs import tracer
from .accessclass import (
    AffineForm,
    Coeff,
    DivModDef,
    IndexVar,
    group_id_var,
    local_id_var,
)
from .accessmodel import (
    CLAIM_RANK,
    Access,
    AccessModel,
    Guard,
    LoopInfo,
    _c_div,
    _c_mod,
    build_access_model,
)
from .diagnostics import Diagnostic, VerifyReport
from .linsolve import (
    UNKNOWN as SOLVE_UNKNOWN,
    Constraint,
    Verdict,
    solve_system,
    solve_with_nonzero,
)

POLICY_ENV = "DOPIA_VERIFY"
POLICIES = ("off", "warn", "raise")

#: Cap on reported race diagnostics per kernel (the rest are identical in
#: kind; the payload notes the truncation).
MAX_RACE_DIAGNOSTICS = 16


class VerifyError(RuntimeError):
    """Raised by the ``raise`` policy when a launch has ERROR diagnostics."""

    def __init__(self, report: VerifyReport):
        self.report = report
        first = report.errors[0] if report.errors else None
        detail = first.render() if first else "verification failed"
        super().__init__(
            f"{report.kernel}: {len(report.errors)} verification error(s); "
            f"first: {detail}"
        )


def current_policy() -> str:
    value = os.environ.get(POLICY_ENV, "off").strip().lower()
    return value if value in POLICIES else "off"


def apply_policy(
    report: VerifyReport,
    policy: Optional[str] = None,
    stream=None,
) -> None:
    """Enforce the verification policy on a launch report."""
    policy = policy if policy is not None else current_policy()
    if policy == "off":
        return
    if report.actionable:
        print(report.render(), file=stream if stream is not None else sys.stderr)
    if policy == "raise" and report.errors:
        raise VerifyError(report)


# ---------------------------------------------------------------------------
# Launch specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaunchSpec:
    """Concrete launch context: geometry + integer scalars + buffer extents
    (in elements)."""

    ndrange: Any
    scalars: tuple[tuple[str, Any], ...]
    extents: tuple[tuple[str, int], ...]

    @staticmethod
    def build(ndrange: Any, scalars: Mapping[str, Any],
              extents: Mapping[str, int]) -> "LaunchSpec":
        return LaunchSpec(
            ndrange=ndrange,
            scalars=tuple(sorted(scalars.items())),
            extents=tuple(sorted((k, int(v)) for k, v in extents.items())),
        )

    @staticmethod
    def from_args(ndrange: Any, args: Mapping[str, Any]) -> "LaunchSpec":
        """Split bound kernel arguments into scalars and buffer extents."""
        scalars: dict[str, Any] = {}
        extents: dict[str, int] = {}
        for name, value in args.items():
            size = getattr(value, "size", None)
            if size is not None and getattr(value, "ndim", 1) >= 1:
                extents[name] = int(size)
            elif isinstance(value, (int, float)):
                scalars[name] = value
        return LaunchSpec.build(ndrange, scalars, extents)

    def cache_key(self) -> tuple:
        nd = self.ndrange
        return (
            tuple(nd.global_size), tuple(nd.local_size), tuple(nd.offset),
            self.scalars, self.extents,
        )


def _dim(seq, d: int, default: int) -> int:
    try:
        return int(seq[d])
    except (IndexError, TypeError):
        return default


def _ceildiv(p: int, q: int) -> int:
    return -((-p) // q)


# ---------------------------------------------------------------------------
# Specialization: resolve affine forms to integer terms + boxes
# ---------------------------------------------------------------------------


@dataclass
class _ResGuard:
    """An affine guard resolved to ``const + sum(terms) OP 0``."""

    terms: dict[IndexVar, int]
    const: int
    op: str

    def holds(self, values: Mapping[IndexVar, int]) -> Optional[bool]:
        total = self.const
        for var, coeff in self.terms.items():
            if var not in values:
                return None
            total += coeff * values[var]
        return {
            "<": total < 0, "<=": total <= 0, ">": total > 0,
            ">=": total >= 0, "==": total == 0, "!=": total != 0,
        }[self.op]


@dataclass
class _SpecDivMod:
    """One derived q/r pair resolved for a launch: the defining equation
    ``base_terms + base_const == k*quot + rem`` with ``0 <= rem < k``."""

    quot: IndexVar
    rem: IndexVar
    base_terms: dict[IndexVar, int]
    base_const: int
    k: int


@dataclass
class _SpecAccess:
    """One access specialised for a launch: integer terms, boxes, guards."""

    access: Access
    terms: dict[IndexVar, int]
    const: int
    boxes: dict[IndexVar, tuple[int, int]]
    res_guards: list[_ResGuard]
    raw_guards: list[Guard]
    dead: bool
    space: str  # var space used: "gid" or "split"
    #: defining equations for every derived quotient/remainder variable
    #: the address or guards mention (resolved in ``space``)
    divmods: list[_SpecDivMod] = None

    def box(self, var: IndexVar) -> Optional[tuple[int, int]]:
        return self.boxes.get(var)


class _Specializer:
    def __init__(self, model: AccessModel, launch: LaunchSpec):
        self.model = model
        self.launch = launch
        nd = launch.ndrange
        self.work_dim = int(nd.work_dim)
        self.gsize = tuple(_dim(nd.global_size, d, 1) for d in range(3))
        self.lsize = tuple(_dim(nd.local_size, d, 1) for d in range(3))
        self.offset = tuple(_dim(nd.offset, d, 0) for d in range(3))
        self.ngroups = tuple(
            max(self.gsize[d] // max(self.lsize[d], 1), 1) for d in range(3)
        )
        self.extents = dict(launch.extents)
        env: dict[str, int] = {}
        for name, value in launch.scalars:
            if isinstance(value, bool):
                env[name] = int(value)
            elif isinstance(value, int):
                env[name] = value
            elif isinstance(value, float) and float(value).is_integer():
                env[name] = int(value)
        for d in range(3):
            env[f"<get_global_size:{d}>"] = self.gsize[d]
            env[f"<get_local_size:{d}>"] = self.lsize[d]
            env[f"<get_num_groups:{d}>"] = self.ngroups[d]
            env[f"<get_global_offset:{d}>"] = self.offset[d]
        env["<get_work_dim:0>"] = self.work_dim
        self.env = env
        #: solver-effort accounting, exported as ``verify.*`` counters
        self.solver_nodes = 0
        self.budget_exhausted = 0

    def note_solve(self, verdict: Verdict) -> None:
        self.solver_nodes += verdict.nodes
        if verdict.status == SOLVE_UNKNOWN:
            self.budget_exhausted += 1

    # -- integer resolution ----------------------------------------------------

    def coeff_int(self, coeff: Coeff) -> Optional[int]:
        total = 0
        for monomial, weight in coeff.terms:
            value = weight
            for symbol in monomial:
                if symbol not in self.env:
                    return None
                value *= self.env[symbol]
            total += value
        return total

    def resolve_form(
        self, form: AffineForm, space: str
    ) -> Optional[tuple[dict[IndexVar, int], int]]:
        if form.indirect or form.nonaffine or form.unknown_base:
            return None
        const = self.coeff_int(form.const)
        if const is None:
            return None
        terms: dict[IndexVar, int] = {}
        for var, coeff in form.vars.items():
            c = self.coeff_int(coeff)
            if c is None:
                return None
            if c == 0:
                continue
            if space == "split" and 200 <= var.rank < 300:
                d = var.rank - 200
                terms[local_id_var(d)] = terms.get(local_id_var(d), 0) + c
                terms[group_id_var(d)] = (
                    terms.get(group_id_var(d), 0) + c * self.lsize[d]
                )
                const += c * self.offset[d]
            else:
                terms[var] = terms.get(var, 0) + c
        return {v: c for v, c in terms.items() if c}, const

    # -- boxes -----------------------------------------------------------------

    def natural_box(
        self, var: IndexVar, loop_map: Mapping[IndexVar, LoopInfo]
    ) -> Optional[tuple[int, int]]:
        if var in loop_map:
            n = self.loop_iterations(loop_map[var])
            return None if n is None else (0, n - 1)
        rank = var.rank
        if 100 <= rank < 200:
            d = rank - 100
            return (0, self.lsize[d] - 1)
        if 200 <= rank < 300:
            d = rank - 200
            return (self.offset[d], self.offset[d] + self.gsize[d] - 1)
        if 300 <= rank < 400:
            d = rank - 300
            return (0, self.ngroups[d] - 1)
        definition = self.model.divmod.defs.get(var)
        if definition is not None:
            return self._divmod_box(var, definition, loop_map)
        return None

    def _divmod_box(
        self, var: IndexVar, definition: DivModDef,
        loop_map: Mapping[IndexVar, LoopInfo],
    ) -> Optional[tuple[int, int]]:
        """Box a derived quotient/remainder variable from its base's range.

        Sound only when the divisor resolves to a positive integer and the
        base is provably non-negative (C's truncating ``/``/``%`` and the
        floor-division encoding agree exactly there); anything else stays
        unboxed and the access demotes to "unknown" as before.
        """
        k = self.coeff_int(definition.divisor)
        if k is None or k <= 0:
            return None
        base_box = self.form_box(definition.base, loop_map)
        if base_box is None or base_box[0] < 0:
            return None
        if var == definition.quot:
            return (base_box[0] // k, base_box[1] // k)
        return (0, min(k - 1, base_box[1]))

    def form_box(
        self, form: AffineForm, loop_map: Mapping[IndexVar, LoopInfo]
    ) -> Optional[tuple[int, int]]:
        """The achievable interval of an affine form (space-independent:
        a gid's range equals its lid/grp expansion's range)."""
        resolved = self.resolve_form(form, "gid")
        if resolved is None:
            return None
        terms, const = resolved
        lo = hi = const
        for var, coeff in terms.items():
            box = self.natural_box(var, loop_map)
            if box is None:
                return None
            a, b = coeff * box[0], coeff * box[1]
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi

    def _expand_divmod(
        self, needed: set[IndexVar], loop_map: Mapping[IndexVar, LoopInfo],
    ) -> list[DivModDef]:
        """Close ``needed`` over derived-variable definitions: every q/r
        variable pulls in its partner and its base's variables (chained
        decompositions recurse).  Returns the active definitions."""
        defs = self.model.divmod.defs
        active: dict[IndexVar, DivModDef] = {}
        frontier = list(needed)
        while frontier:
            var = frontier.pop()
            definition = defs.get(var)
            if definition is None or definition.quot in active:
                continue
            active[definition.quot] = definition
            more = [definition.quot, definition.rem]
            more.extend(v for v, c in definition.base.vars.items()
                        if not c.is_zero)
            for new in more:
                if new not in needed:
                    needed.add(new)
                    frontier.append(new)
        return [active[key] for key in sorted(active, key=lambda v: v.name)]

    def _form_const(self, form: Optional[AffineForm]) -> Optional[int]:
        if form is None or form.has_vars or form.indirect or form.nonaffine:
            return None
        return self.coeff_int(form.const)

    def loop_iterations(self, loop: LoopInfo) -> Optional[int]:
        if loop.irregular or loop.step in (None, 0) or loop.op is None:
            return None
        start = self._form_const(loop.start)
        bound = self._form_const(loop.bound)
        if start is None or bound is None:
            return None
        step, op = loop.step, loop.op
        if step > 0 and op in ("<", "<="):
            span = bound - start
            if op == "<":
                return max(_ceildiv(span, step), 0)
            return max(span // step + 1, 0)
        if step < 0 and op in (">", ">="):
            span = start - bound
            if op == ">":
                return max(_ceildiv(span, -step), 0)
            return max(span // -step + 1, 0)
        return None

    # -- per-access specialisation ----------------------------------------------

    def specialize(self, access: Access, space: str) -> Optional[_SpecAccess]:
        if _address_opaque(access):
            return None
        resolved = self.resolve_form(access.form, space)
        if resolved is None:
            return None
        terms, const = resolved
        loop_map = {loop.var: loop for loop in access.loops}

        res_guards: list[_ResGuard] = []
        raw_guards: list[Guard] = []
        guard_vars: set[IndexVar] = set()
        for guard in access.guards:
            rg = None
            if guard.form is not None and guard.op is not None:
                r = self.resolve_form(guard.form, space)
                if r is not None:
                    rg = _ResGuard(terms=r[0], const=r[1], op=guard.op)
            if rg is None:
                raw_guards.append(guard)
            else:
                res_guards.append(rg)
                guard_vars.update(rg.terms)

        needed = set(terms) | guard_vars
        for d in range(self.work_dim):
            needed.add(local_id_var(d))
            needed.add(group_id_var(d))
        active_defs = self._expand_divmod(needed, loop_map)
        boxes: dict[IndexVar, tuple[int, int]] = {}
        ok_guards: list[_ResGuard] = []
        for var in needed:
            box = self.natural_box(var, loop_map)
            if box is None:
                if var in terms:
                    return None  # address depends on an unbounded variable
                # guard-only unbounded variable: keep those guards concrete
                continue
            boxes[var] = box

        dead = False
        for rg in res_guards:
            live = [v for v in rg.terms if rg.terms[v]]
            if any(v not in boxes for v in live):
                continue  # cannot tighten; still checked on witnesses
            if not live:
                if rg.holds({}) is False:
                    dead = True
                ok_guards.append(rg)
                continue
            if len(live) == 1:
                var = live[0]
                new = _tighten(boxes[var], rg.terms[var], rg.const, rg.op)
                if new is None:
                    dead = True
                else:
                    boxes[var] = new
            ok_guards.append(rg)
        for box in boxes.values():
            if box[0] > box[1]:
                dead = True

        divmods: list[_SpecDivMod] = []
        for definition in active_defs:
            if definition.quot not in boxes:
                continue  # unboxable pair: handled as an unbounded variable
            k = self.coeff_int(definition.divisor)
            base = self.resolve_form(definition.base, space)
            if k is None or k <= 0 or base is None:
                continue
            divmods.append(_SpecDivMod(
                quot=definition.quot, rem=definition.rem,
                base_terms=base[0], base_const=base[1], k=k,
            ))

        return _SpecAccess(
            access=access, terms=terms, const=const, boxes=boxes,
            res_guards=ok_guards, raw_guards=raw_guards, dead=dead,
            space=space, divmods=divmods,
        )

    # -- concrete guard-tree evaluation -----------------------------------------

    def eval_tree(self, tree: tuple, values: Mapping[IndexVar, int],
                  space: str) -> Optional[int]:
        kind = tree[0]
        if kind == "leaf":
            r = self.resolve_form(tree[1], space)
            if r is None:
                return None
            terms, const = r
            total = const
            for var, coeff in terms.items():
                if var not in values:
                    return None
                total += coeff * values[var]
            return total
        if kind in ("mod", "div"):
            left = self.eval_tree(tree[1], values, space)
            right = self.eval_tree(tree[2], values, space)
            if left is None or right is None:
                return None
            return (_c_mod if kind == "mod" else _c_div)(left, right)
        if kind == "cmp":
            left = self.eval_tree(tree[2], values, space)
            right = self.eval_tree(tree[3], values, space)
            if left is None or right is None:
                return None
            return int({
                "<": left < right, "<=": left <= right, ">": left > right,
                ">=": left >= right, "==": left == right, "!=": left != right,
            }[tree[1]])
        if kind == "and":
            left = self.eval_tree(tree[1], values, space)
            right = self.eval_tree(tree[2], values, space)
            if left is None or right is None:
                return None
            return int(bool(left) and bool(right))
        if kind == "or":
            left = self.eval_tree(tree[1], values, space)
            right = self.eval_tree(tree[2], values, space)
            if left is None or right is None:
                return None
            return int(bool(left) or bool(right))
        if kind == "not":
            inner = self.eval_tree(tree[1], values, space)
            return None if inner is None else int(not inner)
        return None

    def guards_hold(self, spec: _SpecAccess,
                    values: Mapping[IndexVar, int]) -> Optional[bool]:
        for rg in spec.res_guards:
            result = rg.holds(values)
            if result is None:
                return None
            if result is False:
                return False
        for guard in spec.raw_guards:
            result = self.eval_tree(guard.tree, values, spec.space)
            if result is None:
                return None
            if bool(result) != guard.expect:
                return False
        return True


def _tighten(box: tuple[int, int], a: int, c: int,
             op: str) -> Optional[tuple[int, int]]:
    """Intersect ``box`` with ``a*v + c OP 0``; None means empty."""
    lo, hi = box

    def le(bound: int) -> None:  # a*v <= bound
        nonlocal lo, hi
        if a > 0:
            hi = min(hi, bound // a)
        else:
            lo = max(lo, _ceildiv(bound, a))

    def ge(bound: int) -> None:  # a*v >= bound
        nonlocal lo, hi
        if a > 0:
            lo = max(lo, _ceildiv(bound, a))
        else:
            hi = min(hi, bound // a)

    if op == "<":
        le(-c - 1)
    elif op == "<=":
        le(-c)
    elif op == ">":
        ge(-c + 1)
    elif op == ">=":
        ge(-c)
    elif op == "==":
        if (-c) % a:
            return None
        le(-c)
        ge(-c)
    elif op == "!=" and (-c) % a == 0:
        # An excluded value only shrinks the box when it sits on an edge
        # (interior holes are not representable as an interval).
        v = (-c) // a
        if lo == hi == v:
            return None
        if v == lo:
            lo += 1
        elif v == hi:
            hi -= 1
    return None if lo > hi else (lo, hi)


# ---------------------------------------------------------------------------
# Race pass
# ---------------------------------------------------------------------------


def _is_sync_var(var: IndexVar) -> bool:
    return var.rank >= CLAIM_RANK


@dataclass
class _PairEquation:
    terms: dict[str, int]
    constant: int
    bounds: dict[str, tuple[int, int]]
    sync_vars: list[IndexVar]
    #: side constraints solved alongside the address equation: each side's
    #: q/r defining equations and its resolved affine guards
    constraints: list[Constraint]


def _assemble_pair(spec_a: _SpecAccess, spec_b: _SpecAccess,
                   work_dim: int) -> Optional[_PairEquation]:
    """Build ``addr_A - addr_B == 0`` in shared/delta/per-side variables."""
    sync: set[IndexVar] = set()
    for spec in (spec_a, spec_b):
        sync.update(v for v in spec.terms if _is_sync_var(v))
        for rg in spec.res_guards:
            sync.update(v for v in rg.terms if _is_sync_var(v))
        for dm in spec.divmods:
            sync.update(v for v in dm.base_terms if _is_sync_var(v))
    for d in range(work_dim):
        sync.add(local_id_var(d))
        sync.add(group_id_var(d))

    terms: dict[str, int] = {}
    bounds: dict[str, tuple[int, int]] = {}
    constant = spec_a.const - spec_b.const

    for var in sync:
        box_a = spec_a.box(var) or spec_b.box(var)
        box_b = spec_b.box(var) or spec_a.box(var)
        if box_a is None or box_b is None:
            return None
        ca = spec_a.terms.get(var, 0)
        cb = spec_b.terms.get(var, 0)
        s_name, d_name = f"s:{var.name}", f"d:{var.name}"
        if ca - cb:
            terms[s_name] = ca - cb
        if cb:
            terms[d_name] = terms.get(d_name, 0) - cb
        bounds[s_name] = box_a
        bounds[d_name] = (box_b[0] - box_a[1], box_b[1] - box_a[0])

    def translate(side: str, spec: _SpecAccess,
                  src: Mapping[IndexVar, int]) -> Optional[dict[str, int]]:
        """Rename one side's IndexVar terms into the shared/delta/per-side
        solver namespace (side B sees shared + delta for sync vars)."""
        out: dict[str, int] = {}
        for var, coeff in src.items():
            if not coeff:
                continue
            if var in sync:
                out[f"s:{var.name}"] = out.get(f"s:{var.name}", 0) + coeff
                if side == "B":
                    out[f"d:{var.name}"] = (
                        out.get(f"d:{var.name}", 0) + coeff)
            else:
                name = f"{side}:{var.name}"
                box = spec.box(var)
                if box is None:
                    return None
                out[name] = out.get(name, 0) + coeff
                bounds.setdefault(name, box)
        return out

    constraints: list[Constraint] = []
    for side, spec in (("A", spec_a), ("B", spec_b)):
        sign = 1 if side == "A" else -1
        for var, coeff in spec.terms.items():
            if _is_sync_var(var):
                continue
            box = spec.box(var)
            if box is None:
                return None
            name = f"{side}:{var.name}"
            terms[name] = terms.get(name, 0) + sign * coeff
            bounds[name] = box
        for dm in spec.divmods:
            base = translate(side, spec, dm.base_terms)
            if base is None:
                return None
            for var, delta in ((dm.quot, -dm.k), (dm.rem, -1)):
                box = spec.box(var)
                if box is None:
                    return None
                name = f"{side}:{var.name}"
                base[name] = base.get(name, 0) + delta
                bounds.setdefault(name, box)
            constraints.append(Constraint(base, dm.base_const, "=="))
        for rg in spec.res_guards:
            translated = translate(side, spec, rg.terms)
            if translated is None:
                continue  # unboxed guard var: checked concretely on witnesses
            constraints.append(Constraint(translated, rg.const, rg.op))

    return _PairEquation(terms=terms, constant=constant, bounds=bounds,
                         sync_vars=sorted(sync, key=lambda v: v.name),
                         constraints=constraints)


def _shared_claims(spec_a: _SpecAccess, spec_b: _SpecAccess):
    claims_a = {loop.claim.var: loop.claim for loop in spec_a.access.loops
                if loop.claim is not None}
    out = []
    for loop in spec_b.access.loops:
        if loop.claim is not None and loop.claim.var in claims_a:
            out.append(loop.claim)
    return out


def _race_subproblems(eq: _PairEquation, spec_a: _SpecAccess,
                      spec_b: _SpecAccess, work_dim: int,
                      cross_group_only: bool, space: str):
    """Yield (label, nonzero, extra_nonzero, pins, claim_based)."""
    grp_deltas = [f"d:{group_id_var(d).name}" for d in range(work_dim)]
    lid_deltas = [f"d:{local_id_var(d).name}" for d in range(work_dim)]
    shared = _shared_claims(spec_a, spec_b)
    global_claims = [f"d:{c.var.name}" for c in shared if c.space == "global"]
    local_claims = [f"d:{c.var.name}" for c in shared if c.space == "local"]

    if space != "local":
        # __local arrays are per-group: items of distinct groups touch
        # distinct instances, so the cross-group case only exists for
        # __global buffers.
        yield ("distinct-groups", grp_deltas, global_claims, {}, False)
    if cross_group_only:
        return
    same_group_pins = {name: (0, 0) for name in grp_deltas}
    yield ("same-group-distinct-items", lid_deltas,
           global_claims + local_claims, same_group_pins, False)

    # Claim-reassignment case: only valid when the address does not depend
    # on which item executes (no local-id coefficient on either side).
    lid_vars = {local_id_var(d) for d in range(work_dim)}
    if any(spec.terms.get(v) for spec in (spec_a, spec_b) for v in lid_vars):
        return
    claim_pins = dict(same_group_pins)
    claim_pins.update({name: (0, 0) for name in lid_deltas})
    for claim in shared:
        name = f"d:{claim.var.name}"
        others = [f"d:{c.var.name}" for c in shared if c.var != claim.var]
        yield (f"distinct-claims:{claim.worklist}", [name], others,
               claim_pins, True)


def _side_values(eq: _PairEquation, witness: Mapping[str, int],
                 spec: _SpecAccess, side: str) -> dict[IndexVar, int]:
    values: dict[IndexVar, int] = {}
    for var in eq.sync_vars:
        base = witness.get(f"s:{var.name}")
        if base is None:
            continue
        if side == "A":
            values[var] = base
        else:
            values[var] = base + witness.get(f"d:{var.name}", 0)
    for loop in spec.access.loops:
        name = f"{side}:{loop.var.name}"
        if name in witness:
            values[loop.var] = witness[name]
    for key, value in witness.items():
        if key.startswith(f"{side}:"):
            # guard-only loop variables
            for var in list(spec.boxes):
                if key == f"{side}:{var.name}":
                    values.setdefault(var, value)
    return values


def _gid_of(values: Mapping[IndexVar, int], spec_ctx: _Specializer) -> tuple:
    out = []
    for d in range(spec_ctx.work_dim):
        lid = values.get(local_id_var(d), 0)
        grp = values.get(group_id_var(d), 0)
        out.append(spec_ctx.offset[d] + grp * spec_ctx.lsize[d] + lid)
    return tuple(out)


def _validate_witness(
    ctx: _Specializer,
    eq: _PairEquation,
    witness: Mapping[str, int],
    spec_a: _SpecAccess,
    spec_b: _SpecAccess,
    claim_based: bool,
) -> Optional[tuple[dict, dict]]:
    """Check a SAT witness concretely; returns per-side values or None."""
    if any(loop.has_break for spec in (spec_a, spec_b)
           for loop in spec.access.loops):
        return None
    # The equation leaves zero-coefficient shared variables at their box
    # floor; re-choose each so both sides land inside their per-side boxes
    # (the delta stays as witnessed, so the solution is unchanged).
    witness = dict(witness)
    for var in eq.sync_vars:
        s_name = f"s:{var.name}"
        if eq.terms.get(s_name, 0) or any(
                c.terms.get(s_name, 0) for c in eq.constraints):
            continue
        box_a = spec_a.box(var)
        box_b = spec_b.box(var)
        if box_a is None or box_b is None:
            continue
        delta = witness.get(f"d:{var.name}", 0)
        lo = max(box_a[0], box_b[0] - delta)
        hi = min(box_a[1], box_b[1] - delta)
        if lo > hi:
            return None
        witness[s_name] = min(max(witness.get(s_name, lo), lo), hi)
    values_a = _side_values(eq, witness, spec_a, "A")
    values_b = _side_values(eq, witness, spec_b, "B")
    # Per-side boxes for shared variables (the delta-box relaxation).
    for values, spec in ((values_a, spec_a), (values_b, spec_b)):
        for var, value in values.items():
            box = spec.box(var)
            if box is not None and not (box[0] <= value <= box[1]):
                return None
    # Derived q/r values must agree with their defining div/mod concretely
    # (a safety net over the solver's encoding; also rejects witnesses
    # where a base would be negative and C truncation diverges from it).
    for values, spec in ((values_a, spec_a), (values_b, spec_b)):
        for dm in spec.divmods:
            base = dm.base_const
            for var, coeff in dm.base_terms.items():
                if var not in values:
                    return None
                base += coeff * values[var]
            quot, rem = values.get(dm.quot), values.get(dm.rem)
            if quot is None or rem is None or base < 0 \
                    or quot != base // dm.k or rem != base % dm.k:
                return None
    if ctx.guards_hold(spec_a, values_a) is not True:
        return None
    if ctx.guards_hold(spec_b, values_b) is not True:
        return None
    if claim_based and not _claim_split_feasible(ctx, spec_a, spec_b,
                                                 values_a, values_b):
        return None
    return dict(values_a), dict(values_b)


def _claim_split_feasible(ctx: _Specializer, spec_a: _SpecAccess,
                          spec_b: _SpecAccess, values_a, values_b) -> bool:
    """Can the two witnessed claims land on two *different* work-items?"""
    shared = _shared_claims(spec_a, spec_b)
    if any(c.space == "global" for c in shared):
        total = 1
        for d in range(ctx.work_dim):
            total *= ctx.gsize[d]
        return total >= 2
    # local worklist: count local ids that can participate in the drain
    lid_vars = [local_id_var(d) for d in range(ctx.work_dim)]
    boxes = []
    total = 1
    for var in lid_vars:
        box = spec_a.box(var) or (0, 0)
        boxes.append(box)
        total *= box[1] - box[0] + 1
    if total > 4096:
        return False  # enumeration too large: caller demotes to unknown
    candidates: list[set] = [set(), set()]
    for index, (spec, values) in enumerate(
            ((spec_a, values_a), (spec_b, values_b))):
        def enumerate_dim(d: int, current: dict) -> None:
            if d == len(lid_vars):
                probe = dict(values)
                probe.update(current)
                if ctx.guards_hold(spec, probe) is True:
                    candidates[index].add(
                        tuple(current[v] for v in lid_vars))
                return
            lo, hi = boxes[d]
            for value in range(lo, hi + 1):
                current[lid_vars[d]] = value
                enumerate_dim(d + 1, current)
        enumerate_dim(0, {})
    if not candidates[0] or not candidates[1]:
        return False
    return len(candidates[0] | candidates[1]) >= 2


def _run_race_pass(
    model: AccessModel, ctx: _Specializer
) -> tuple[list[Diagnostic], str]:
    diagnostics: list[Diagnostic] = []
    unknown = False
    truncated = False

    groups: dict[tuple[str, str], list[Access]] = {}
    for access in model.accesses:
        if access.space in ("global", "local"):
            groups.setdefault((access.space, access.buffer), []).append(access)

    spec_cache: dict[int, Optional[_SpecAccess]] = {}

    def spec_of(access: Access) -> Optional[_SpecAccess]:
        key = id(access)
        if key not in spec_cache:
            spec_cache[key] = ctx.specialize(access, "split")
        return spec_cache[key]

    seen_sites: set[tuple] = set()
    for (space, buffer), accesses in sorted(groups.items()):
        stores = [a for a in accesses if a.is_store and not a.atomic]
        if not stores:
            continue
        plain = [a for a in accesses if not a.atomic]
        if any(spec_of(a) is None for a in plain):
            unknown = True
        for i, a in enumerate(plain):
            for b in plain[i:]:
                if not (a.is_store or b.is_store):
                    continue
                spec_a, spec_b = spec_of(a), spec_of(b)
                if spec_a is None or spec_b is None:
                    continue
                if spec_a.dead or spec_b.dead:
                    continue
                cross_group_only = False
                if model.phases_valid and a.phase != b.phase:
                    if space == "local":
                        continue  # separated by a barrier within the group
                    cross_group_only = True
                result = _race_pair(ctx, model, space, buffer, a, b,
                                    spec_a, spec_b, cross_group_only)
                if result == "unknown":
                    unknown = True
                elif isinstance(result, Diagnostic):
                    site = (result.code, buffer, result.line,
                            result.payload.get("other_line"))
                    if site not in seen_sites:
                        seen_sites.add(site)
                        if len(diagnostics) >= MAX_RACE_DIAGNOSTICS:
                            truncated = True
                        else:
                            diagnostics.append(result)
    if truncated and diagnostics:
        last = diagnostics[-1]
        payload = dict(last.payload)
        payload["truncated"] = True
        diagnostics[-1] = Diagnostic(
            code=last.code, severity=last.severity, kernel=last.kernel,
            message=last.message, line=last.line, column=last.column,
            payload=payload,
        )
    if diagnostics:
        return diagnostics, "diagnosed"
    return diagnostics, "unknown" if unknown else "clean"


def _idempotent_pair(ctx: _Specializer, a: Access, b: Access) -> bool:
    """Both sides are plain stores of one provably identical, work-item-
    invariant value (e.g. the transform preamble's ``worklist[0] = 0``):
    every interleaving leaves the same memory state, so the overlap is
    benign and not reported."""
    if not (a.is_store and b.is_store):
        return False
    if a.value is None or b.value is None:
        return False
    ra = ctx.resolve_form(a.value, "split")
    rb = ctx.resolve_form(b.value, "split")
    if ra is None or rb is None:
        return False
    return not ra[0] and not rb[0] and ra[1] == rb[1]


def _race_pair(ctx, model, space, buffer, a, b, spec_a, spec_b,
               cross_group_only):
    if _idempotent_pair(ctx, a, b):
        return "unsat"
    eq = _assemble_pair(spec_a, spec_b, ctx.work_dim)
    if eq is None:
        return "unknown"
    saw_unknown = False
    for label, nonzero, extra, pins, claim_based in _race_subproblems(
            eq, spec_a, spec_b, ctx.work_dim, cross_group_only, space):
        bounds = dict(eq.bounds)
        ok = True
        for name, box in pins.items():
            if name in bounds:
                lo = max(bounds[name][0], box[0])
                hi = min(bounds[name][1], box[1])
                if lo > hi:
                    ok = False
                    break
                bounds[name] = (lo, hi)
            else:
                bounds[name] = box
        if not ok:
            continue
        nonzero = [n for n in nonzero if n in bounds]
        extra = [n for n in extra if n in bounds]
        if not nonzero:
            continue
        verdict: Verdict = solve_with_nonzero(
            eq.terms, eq.constant, bounds, nonzero, extra,
            extra=eq.constraints)
        ctx.note_solve(verdict)
        if verdict.is_unsat:
            continue
        if verdict.status != "sat":
            saw_unknown = True
            continue
        validated = _validate_witness(ctx, eq, verdict.witness, spec_a,
                                      spec_b, claim_based)
        if validated is None:
            saw_unknown = True
            continue
        values_a, values_b = validated
        addr = spec_a.const + sum(
            c * values_a.get(v, 0) for v, c in spec_a.terms.items())
        gid_a, gid_b = _gid_of(values_a, ctx), _gid_of(values_b, ctx)
        kind = ("write/write" if a.is_store and b.is_store else "write/read")
        code = "RACE002" if space == "local" else "RACE001"
        store = a if a.is_store else b
        other = b if store is a else a
        message = (
            f"{kind} race on {'__local ' if space == 'local' else ''}"
            f"{buffer}[{addr}]: work-item gid={list(gid_a)} "
            f"(line {_line(a)}) and work-item gid={list(gid_b)} "
            f"(line {_line(b)}) are unordered"
        )
        return Diagnostic.at(
            code, model.kernel, message, location=store.location,
            buffer=buffer, element=addr, kind=kind, case=label,
            witness_a={"gid": list(gid_a)}, witness_b={"gid": list(gid_b)},
            other_line=_line(other),
        )
    return "unknown" if saw_unknown else "unsat"


def _line(access: Access) -> int:
    location = access.location
    return getattr(location, "line", 0) if location is not None else 0


# ---------------------------------------------------------------------------
# OOB pass
# ---------------------------------------------------------------------------


def _address_opaque(access: Access) -> bool:
    """Whether no launch resolves the access's address to integers: it
    is read from memory (``x[col[j]]``), non-affine or unanalyzable, so
    the specialized passes can only call it ``unknown``."""
    form = access.form
    return (access.unanalyzable or form.indirect or form.nonaffine
            or form.unknown_base)


def oob_may_be_clean(info: KernelInfo) -> bool:
    """Whether some launch's OOB verdict can be ``clean``: not while an
    access has an opaque address (:func:`_address_opaque`), which the
    OOB pass calls ``unknown`` at every geometry."""
    return not any(_address_opaque(access)
                   for access in build_access_model(info).accesses)


def _run_oob_pass(
    model: AccessModel, ctx: _Specializer
) -> tuple[list[Diagnostic], str]:
    diagnostics: list[Diagnostic] = []
    unknown = False
    seen: set[tuple] = set()
    for access in model.accesses:
        extent = _extent_of(model, ctx, access)
        if extent is None:
            unknown = True
            continue
        result = _oob_access(ctx, model, access, extent)
        if result == "unknown":
            unknown = True
        elif isinstance(result, Diagnostic):
            site = (result.code, access.buffer, result.line, result.column)
            if site not in seen:
                seen.add(site)
                diagnostics.append(result)
    if diagnostics:
        return diagnostics, "diagnosed"
    return diagnostics, "unknown" if unknown else "clean"


def _extent_of(model, ctx, access) -> Optional[int]:
    if access.space == "global":
        return ctx.extents.get(access.buffer)
    if access.space == "local":
        return model.local_extents.get(access.buffer)
    return model.private_extents.get(access.buffer)


def _oob_access(ctx: _Specializer, model: AccessModel, access: Access,
                extent: int):
    mixed = _mixes_gid_and_split(access.form)
    space = "split" if mixed else "gid"
    spec = ctx.specialize(access, space)
    if spec is None:
        return "unknown"
    if spec.dead:
        return "in-bounds"
    result = _oob_interval(ctx, model, access, spec, extent)
    if result == "unknown":
        # The per-variable interval test is blind to correlations (derived
        # q/r pairs, multi-variable guards); decide exactly instead.
        return _oob_solver(ctx, model, access, spec, extent)
    return result


def _oob_interval(ctx: _Specializer, model: AccessModel, access: Access,
                  spec: _SpecAccess, extent: int):
    lo = hi = spec.const
    for var, coeff in spec.terms.items():
        box = spec.box(var)
        if box is None:
            return "unknown"
        a, b = coeff * box[0], coeff * box[1]
        lo += min(a, b)
        hi += max(a, b)
    if 0 <= lo and hi < extent:
        return "in-bounds"

    for overflow in (True, False):
        if overflow and hi < extent:
            continue
        if not overflow and lo >= 0:
            continue
        witness: dict[IndexVar, int] = {}
        for var, box in spec.boxes.items():
            coeff = spec.terms.get(var, 0)
            if (coeff > 0) == overflow and coeff != 0:
                witness[var] = box[1]
            else:
                witness[var] = box[0]
        index = spec.const + sum(
            c * witness[v] for v, c in spec.terms.items())
        if (overflow and index < extent) or (not overflow and index >= 0):
            return "unknown"
        if any(loop.has_break for loop in access.loops):
            return "unknown"
        if ctx.guards_hold(spec, witness) is not True:
            return "unknown"
        code = "OOB002" if access.space in ("local", "private") else "OOB001"
        gid = _gid_of_any(witness, ctx, spec.space)
        op = "store to" if access.is_store else "load from"
        message = (
            f"out-of-bounds {op} {access.buffer}[{index}] "
            f"({extent} elements) by work-item gid={list(gid)}"
        )
        return Diagnostic.at(
            code, model.kernel, message, location=access.location,
            buffer=access.buffer, index=index, extent=extent,
            witness={"gid": list(gid)}, is_store=access.is_store,
        )
    return "unknown"


def _oob_solver(ctx: _Specializer, model: AccessModel, access: Access,
                spec: _SpecAccess, extent: int):
    """Exact OOB decision via the constraint solver.

    The interval/corner analysis treats each variable independently, so it
    cannot see that a derived quotient and remainder are *correlated*
    through their defining equation, nor that a multi-variable guard caps
    the reachable addresses of a padded launch.  This path solves
    ``addr >= extent`` / ``addr <= -1`` under the full constraint system
    (defining equations plus resolved guards) instead.
    """
    bounds = {var.name: box for var, box in spec.boxes.items()}
    by_name = {var.name: var for var in spec.boxes}

    def translate(src: Mapping[IndexVar, int]) -> Optional[dict[str, int]]:
        out: dict[str, int] = {}
        for var, coeff in src.items():
            if not coeff:
                continue
            if var.name not in bounds:
                return None
            out[var.name] = out.get(var.name, 0) + coeff
        return out

    system: list[Constraint] = []
    for dm in spec.divmods:
        base = translate(dm.base_terms)
        if base is None or dm.quot.name not in bounds:
            return "unknown"
        base[dm.quot.name] = base.get(dm.quot.name, 0) - dm.k
        base[dm.rem.name] = base.get(dm.rem.name, 0) - 1
        system.append(Constraint(base, dm.base_const, "=="))
    for rg in spec.res_guards:
        translated = translate(rg.terms)
        if translated is not None:
            system.append(Constraint(translated, rg.const, rg.op))
    addr = translate(spec.terms)
    if addr is None:
        return "unknown"

    saw_unknown = False
    for label, probe in (
        ("overflow", Constraint(addr, spec.const - extent, ">=")),
        ("underflow", Constraint(addr, spec.const + 1, "<=")),
    ):
        verdict = solve_system([probe, *system], bounds)
        ctx.note_solve(verdict)
        if verdict.is_unsat:
            continue
        if not verdict.is_sat:
            saw_unknown = True
            continue
        values = {by_name[name]: value
                  for name, value in verdict.witness.items()
                  if name in by_name}
        index = spec.const + sum(
            c * values.get(v, 0) for v, c in spec.terms.items())
        if any(loop.has_break for loop in access.loops):
            saw_unknown = True
            continue
        if ctx.guards_hold(spec, values) is not True:
            saw_unknown = True
            continue
        code = "OOB002" if access.space in ("local", "private") else "OOB001"
        gid = _gid_of_any(values, ctx, spec.space)
        op = "store to" if access.is_store else "load from"
        message = (
            f"out-of-bounds {op} {access.buffer}[{index}] "
            f"({extent} elements) by work-item gid={list(gid)}"
        )
        return Diagnostic.at(
            code, model.kernel, message, location=access.location,
            buffer=access.buffer, index=index, extent=extent,
            witness={"gid": list(gid)}, is_store=access.is_store,
        )
    return "unknown" if saw_unknown else "in-bounds"


def _mixes_gid_and_split(form: AffineForm) -> bool:
    has_gid = any(200 <= v.rank < 300 and not c.is_zero
                  for v, c in form.vars.items())
    has_split = any((100 <= v.rank < 200 or v.rank >= 300
                     or v.rank == CLAIM_RANK) and not c.is_zero
                    for v, c in form.vars.items())
    return has_gid and has_split


def _gid_of_any(values: Mapping[IndexVar, int], ctx: _Specializer,
                space: str) -> tuple:
    if space == "split":
        return _gid_of(values, ctx)
    from .accessclass import global_id_var
    return tuple(
        values.get(global_id_var(d), ctx.offset[d])
        for d in range(ctx.work_dim)
    )


# ---------------------------------------------------------------------------
# Static passes (no launch required)
# ---------------------------------------------------------------------------


def _run_barrier_pass(model: AccessModel) -> tuple[list[Diagnostic], str]:
    diagnostics = []
    for site in model.barriers:
        if not site.divergent:
            continue
        reasons = ", ".join(site.reasons)
        diagnostics.append(Diagnostic.at(
            "BAR001", model.kernel,
            f"barrier() under divergent control flow ({reasons}): "
            f"work-items may not all reach it",
            location=site.location, reasons=list(site.reasons),
        ))
    return diagnostics, "diagnosed" if diagnostics else "clean"


def _plain_const(coeff: Coeff) -> bool:
    """True when a Coeff involves only literals and scalar parameters."""
    return all(
        not symbol.startswith("<")
        for monomial, _ in coeff.terms for symbol in monomial
    )


def _run_static_race_pass(model: AccessModel) -> list[Diagnostic]:
    """RACE010: stores whose address cannot depend on the work-item id."""
    diagnostics = []
    seen: set[int] = set()
    for access in model.accesses:
        if (not access.is_store or access.atomic or access.unanalyzable
                or access.space not in ("global", "local")):
            continue
        form = access.form
        if form.indirect or form.nonaffine or form.unknown_base:
            continue
        if any(v.rank >= CLAIM_RANK and not c.is_zero
               for v, c in form.vars.items()):
            continue
        if not _plain_const(form.const) or not all(
                _plain_const(c) for c in form.vars.values()):
            continue
        if any(g.id_dependent or g.data_dependent for g in access.guards):
            continue
        if any(loop.irregular or loop.claim is not None
               for loop in access.loops):
            continue
        if any(loop.bound is not None and (
                loop.bound.indirect or any(
                    v.rank >= CLAIM_RANK and not c.is_zero
                    for v, c in loop.bound.vars.items()))
               for loop in access.loops):
            continue
        line = _line(access)
        if line in seen:
            continue
        seen.add(line)
        diagnostics.append(Diagnostic.at(
            "RACE010", model.kernel,
            f"store to {access.buffer} does not depend on the work-item "
            f"id: every work-item writes the same address sequence",
            location=access.location, buffer=access.buffer,
        ))
    return diagnostics


def _run_vectorize_pass(info: KernelInfo) -> tuple[list[Diagnostic], str]:
    from ..interp.backend import check_vectorizable  # lazy: avoids cycle

    eligibility = check_vectorizable(info)
    if eligibility.eligible:
        return [], "eligible"
    location = getattr(eligibility, "location", None)
    reason = eligibility.reason or "unsupported construct"
    return [Diagnostic.at(
        "VEC001", info.kernel.name,
        f"ineligible for the vectorized backend: {reason}",
        location=location, reason=reason,
    )], "ineligible"


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def verify_kernel(info: KernelInfo) -> VerifyReport:
    """Build-time verification: barrier divergence, id-invariant stores,
    vectorizer eligibility.  No launch geometry needed."""
    model = build_access_model(info)
    report = VerifyReport(kernel=model.kernel)
    bar_diags, bar_verdict = _run_barrier_pass(model)
    report.extend(bar_diags)
    report.verdicts["barriers"] = bar_verdict
    static_races = _run_static_race_pass(model)
    report.extend(static_races)
    if static_races:
        report.verdicts["races"] = "diagnosed"
    vec_diags, vec_verdict = _run_vectorize_pass(info)
    report.extend(vec_diags)
    report.verdicts["vectorize"] = vec_verdict
    return report


def verify_launch(info: KernelInfo, launch: LaunchSpec) -> VerifyReport:
    """Launch-time verification: all static passes plus the specialized
    race and OOB analyses for this geometry / these arguments."""
    model = build_access_model(info)
    ctx = _Specializer(model, launch)
    report = VerifyReport(kernel=model.kernel)

    bar_diags, bar_verdict = _run_barrier_pass(model)
    report.extend(bar_diags)
    report.verdicts["barriers"] = bar_verdict

    race_diags, race_verdict = _run_race_pass(model, ctx)
    report.extend(race_diags)
    report.verdicts["races"] = race_verdict

    # RACE010 is subsumed by a definite specialized verdict at the same site.
    if race_verdict == "unknown":
        race_lines = {d.line for d in race_diags}
        report.extend(d for d in _run_static_race_pass(model)
                      if d.line not in race_lines)

    oob_diags, oob_verdict = _run_oob_pass(model, ctx)
    report.extend(oob_diags)
    report.verdicts["oob"] = oob_verdict

    vec_diags, vec_verdict = _run_vectorize_pass(info)
    report.extend(vec_diags)
    report.verdicts["vectorize"] = vec_verdict

    if tracer.enabled:
        # Solver-effort metrics: how hard the envelope is being pushed in
        # production ("dopia stats" aggregates these counters).
        tracer.counter("verify.solver_nodes", float(ctx.solver_nodes))
        if ctx.budget_exhausted:
            tracer.counter("verify.solver_budget_exhausted",
                           float(ctx.budget_exhausted))
        for name in ("races", "oob"):
            if report.verdicts.get(name) == "unknown":
                tracer.counter(f"verify.solver_unknown_total.{name}")
    return report


#: ``id(info) -> (weakref to info, {launch cache_key -> report})``.
#: Keyed by identity because :class:`KernelInfo` is unhashable; the weakref
#: both guards against id reuse and evicts the entry when the info dies.
_LAUNCH_CACHE: dict[int, tuple["weakref.ref", dict]] = {}
_CACHE_LOCK = threading.Lock()
_MAX_CACHED_LAUNCHES = 128


def verify_launch_cached(info: KernelInfo, launch: LaunchSpec) -> VerifyReport:
    """Memoised :func:`verify_launch` for hot launch paths (serve/runtime):
    repeated launches of one kernel with identical geometry and argument
    shapes verify once."""
    key = launch.cache_key()
    ident = id(info)
    with _CACHE_LOCK:
        entry = _LAUNCH_CACHE.get(ident)
        if entry is not None and entry[0]() is info and key in entry[1]:
            return entry[1][key]
    report = verify_launch(info, launch)
    with _CACHE_LOCK:
        entry = _LAUNCH_CACHE.get(ident)
        if entry is None or entry[0]() is not info:
            try:
                # no lock in the callback: dict.pop is atomic under the GIL,
                # and taking _CACHE_LOCK from a GC callback could deadlock
                ref = weakref.ref(
                    info, lambda _r, i=ident: _LAUNCH_CACHE.pop(i, None))
            except TypeError:  # pragma: no cover - non-weakrefable info
                return report
            entry = (ref, {})
            _LAUNCH_CACHE[ident] = entry
        per_info = entry[1]
        if len(per_info) >= _MAX_CACHED_LAUNCHES:
            per_info.clear()
        per_info[key] = report
    return report
