"""Reference constraint search: the branch-and-prune ``solve_system``
that the propagating search in :mod:`repro.analysis.linsolve` replaced,
kept verbatim.

Every node tests each constraint against the *original* boxes of the
unassigned variables (interval and gcd-congruence tests) and narrows only
the branch variable, one constraint at a time.  The propagating solver
must return the same status and witness wherever this one is decisive,
in no more nodes; ``tests/analysis/test_linsolve_reference.py`` compares
the two.
"""

from __future__ import annotations

from math import ceil, floor, gcd
from typing import Optional, Sequence

from repro.analysis.linsolve import (
    DEFAULT_NODE_BUDGET,
    SAT,
    UNKNOWN,
    UNSAT,
    Constraint,
    Verdict,
)


def _term_interval(coeff: int, lo: int, hi: int) -> tuple[int, int]:
    a, b = coeff * lo, coeff * hi
    return (a, b) if a <= b else (b, a)


class _CState:
    """Per-constraint search state against the global variable order."""

    __slots__ = ("op", "coeffs", "rest_lo", "rest_hi", "rest_gcd")

    def __init__(self, constraint: Constraint,
                 order: dict[str, int], n: int):
        self.op = constraint.op
        # coeffs[i] = coefficient of the i-th order variable (0 if absent)
        self.coeffs = [0] * n
        for name, coeff in constraint.terms.items():
            if coeff:
                self.coeffs[order[name]] = coeff

    def finish(self, boxes: list[tuple[int, int]], n: int) -> None:
        self.rest_lo = [0] * (n + 1)
        self.rest_hi = [0] * (n + 1)
        self.rest_gcd = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            coeff = self.coeffs[i]
            t_lo = t_hi = 0
            if coeff:
                t_lo, t_hi = _term_interval(coeff, *boxes[i])
            self.rest_lo[i] = self.rest_lo[i + 1] + t_lo
            self.rest_hi[i] = self.rest_hi[i + 1] + t_hi
            self.rest_gcd[i] = gcd(abs(coeff), self.rest_gcd[i + 1])

    def feasible(self, i: int, residual: int) -> bool:
        """May constraint still hold given terms ``i..`` are unassigned?"""
        lo = residual + self.rest_lo[i]
        hi = residual + self.rest_hi[i]
        if self.op == "==":
            if not (lo <= 0 <= hi):
                return False
            g = self.rest_gcd[i]
            return not (g and residual % g != 0)
        if self.op == "!=":
            return not (lo == hi == 0)
        if self.op == "<":
            return lo < 0
        if self.op == "<=":
            return lo <= 0
        if self.op == ">":
            return hi > 0
        return hi >= 0

    def narrow(self, i: int, residual: int,
               v_lo: int, v_hi: int) -> tuple[int, int]:
        """Tighten the branch variable's candidate interval at node ``i``."""
        coeff = self.coeffs[i]
        if not coeff or self.op == "!=":
            return v_lo, v_hi
        # coeff*v must satisfy the constraint once the best/worst case of
        # the remaining terms i+1.. is accounted for.
        if self.op == "==":
            lo_t = -residual - self.rest_hi[i + 1]
            hi_t = -residual - self.rest_lo[i + 1]
        elif self.op in ("<", "<="):
            lo_t = None
            hi_t = -residual - self.rest_lo[i + 1]
            if self.op == "<":
                hi_t -= 1
        else:  # ">", ">="
            lo_t = -residual - self.rest_hi[i + 1]
            if self.op == ">":
                lo_t += 1
            hi_t = None
        if coeff > 0:
            if lo_t is not None:
                v_lo = max(v_lo, ceil(lo_t / coeff))
            if hi_t is not None:
                v_hi = min(v_hi, floor(hi_t / coeff))
        else:
            if hi_t is not None:
                v_lo = max(v_lo, ceil(hi_t / coeff))
            if lo_t is not None:
                v_hi = min(v_hi, floor(lo_t / coeff))
        return v_lo, v_hi


def solve_system(
    constraints: Sequence[Constraint],
    bounds: dict[str, tuple[int, int]],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Decide a conjunction of linear constraints over inclusive boxes.

    ``bounds`` must cover every variable appearing in any constraint;
    variables bound in ``bounds`` but absent from every constraint take
    their lower bound in the witness.
    """
    for name, (lo, hi) in bounds.items():
        if lo > hi:
            return Verdict(UNSAT)

    # Global variable order: first appearance across constraints, then a
    # stable sort by largest |coefficient| anywhere in the system (its
    # candidate interval is narrowest).
    first_seen: dict[str, int] = {}
    max_coeff: dict[str, int] = {}
    live_constraints: list[Constraint] = []
    for constraint in constraints:
        has_terms = False
        for name, coeff in constraint.terms.items():
            if coeff == 0:
                continue
            has_terms = True
            if name not in bounds:
                raise ValueError(f"unbounded variable {name!r}")
            first_seen.setdefault(name, len(first_seen))
            max_coeff[name] = max(max_coeff.get(name, 0), abs(coeff))
        if has_terms:
            live_constraints.append(constraint)
        elif not constraint.holds(constraint.const):
            return Verdict(UNSAT)

    names = sorted(first_seen, key=lambda v: first_seen[v])
    names.sort(key=lambda v: -max_coeff[v])
    order = {name: i for i, name in enumerate(names)}
    n = len(names)
    boxes = [bounds[name] for name in names]

    states = [_CState(c, order, n) for c in live_constraints]
    for state in states:
        state.finish(boxes, n)
    residual0 = [c.const for c in live_constraints]

    budget = [node_budget]
    assignment: dict[str, int] = {}

    def search(i: int, residuals: list[int]) -> Optional[str]:
        if budget[0] <= 0:
            return UNKNOWN
        budget[0] -= 1
        for state, residual in zip(states, residuals):
            if not state.feasible(i, residual):
                return None
        if i == n:
            return SAT
        name = names[i]
        v_lo, v_hi = boxes[i]
        for state, residual in zip(states, residuals):
            v_lo, v_hi = state.narrow(i, residual, v_lo, v_hi)
            if v_lo > v_hi:
                return None
        for v in range(v_lo, v_hi + 1):
            assignment[name] = v
            nxt = [residual + state.coeffs[i] * v
                   for state, residual in zip(states, residuals)]
            result = search(i + 1, nxt)
            if result is not None:
                return result
            del assignment[name]
        return None

    result = search(0, residual0)
    nodes = node_budget - budget[0]
    if result == UNKNOWN:
        return Verdict(UNKNOWN, nodes=nodes)
    if result == SAT:
        witness = dict(assignment)
        for name, (lo, hi) in bounds.items():
            witness.setdefault(name, lo)
        return Verdict(SAT, witness, nodes=nodes)
    return Verdict(UNSAT, nodes=nodes)
