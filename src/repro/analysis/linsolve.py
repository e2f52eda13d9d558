"""Bounded integer linear-constraint solver for the race/OOB verifier.

The race detector reduces "can two distinct work-items touch the same
address?" to satisfiability of a system of linear constraints

    ``sum_i a_i * x_i + c  OP  0``        with OP in {==, !=, <, <=, >, >=}

over box-constrained integer variables (id deltas, per-access loop
counters, and the quotient/remainder variables that model the ``/``/``%``
id decompositions generated schedulers emit: ``q = id / K, r = id % K``
becomes the exact system ``id - K*q - r == 0, 0 <= r <= K-1``).  This
module decides such systems *exactly* within a node budget, returning

* ``SAT`` with a concrete witness assignment,
* ``UNSAT`` (a proof: no assignment exists inside the boxes), or
* ``UNKNOWN`` when the search exceeds its budget (never wrong, only
  incomplete — callers must treat it as "outside the envelope").

The search assigns variables in a fixed order (largest |coefficient|
across the system first, ties by first appearance) and enumerates each
one's values in ascending order.  At every node it *propagates* bounds
over all unassigned variables and all constraints until nothing changes
(or, on a cycle of inequalities that shrinks the boxes by one value per
round, until a per-node visit budget runs out), as CP solvers do: each
constraint's achievable interval, computed from the current boxes, must
reach zero, and it narrows every variable's box to the values that can
still satisfy it; equalities also take the gcd congruence test (the gcd
of the unfixed coefficients must divide the fixed part), and a ``!=``
with one unfixed variable trims its forbidden value off a box edge.  A
box that shrinks re-queues the constraints that mention it at the back
of a first-in, first-out queue, and the visit budget covers at least one
visit per constraint, so every constraint queued at a node is checked
there before any is revisited.  This is
what closes the verifier's 2-D race queries in a handful of nodes: once
``id == K*q + r`` with ``0 <= r < K`` holds on both sides of an address
equation, the boxes of the quotient and remainder deltas, and with them
a worklist-claim delta, collapse without enumerating the loop counters.

Propagation only removes values that no solution inside the current
boxes takes, and the variable order and ascending enumeration are those
of a plain branch-and-prune search over the same boxes.  So the first
solution reached is the first solution in that order, the one a weaker
pruning would reach too: witnesses do not depend on how strong the
pruning is, and stronger pruning only removes nodes.

``Verdict.nodes`` reports how many search nodes a decision consumed (one
per assignment tried, each fully propagated), so callers can export
solver effort (and budget exhaustion) as metrics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Search nodes before giving up (an exact budget, not a timeout).
DEFAULT_NODE_BUDGET = 50_000

#: Comparison operators a constraint may carry (all against zero).
OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Row visits one node's propagation may spend, per constraint, before it
#: stops short of a fixpoint.  Bounds propagation over a cycle of
#: inequalities (``x < y``, ``y < x``) shrinks the boxes by one per round,
#: so an uncapped fixpoint would cost as much as the boxes are wide;
#: stopping early is always sound, only less pruning.
_PROPAGATION_ROUNDS = 16


@dataclass(frozen=True)
class Constraint:
    """``sum(terms[v] * v) + const  op  0`` over the shared boxes."""

    terms: dict[str, int]
    const: int
    op: str = "=="

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown constraint operator {self.op!r}")

    def holds(self, total: int) -> bool:
        if self.op == "==":
            return total == 0
        if self.op == "!=":
            return total != 0
        if self.op == "<":
            return total < 0
        if self.op == "<=":
            return total <= 0
        if self.op == ">":
            return total > 0
        return total >= 0


@dataclass(frozen=True)
class Verdict:
    """Solver outcome; ``witness`` maps variable name -> value when SAT.

    ``nodes`` counts search nodes consumed, each one an assignment tried
    and propagated (cumulative across case splits for the disjunctive
    wrappers).
    """

    status: str
    witness: Optional[dict[str, int]] = None
    nodes: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


def _normalise(constraint: Constraint,
               order: dict[str, int]) -> tuple[str, int, list]:
    """``(op, const, [(var index, coeff), ...])`` with ``op`` one of
    ``==``, ``!=`` or ``<=``: strict and lower-bound comparisons become
    ``<=`` over integers (``e < 0`` is ``e + 1 <= 0``, ``e >= 0`` is
    ``-e <= 0``)."""
    op, const = constraint.op, constraint.const
    sign = -1 if op in (">", ">=") else 1
    terms = [(order[name], sign * coeff)
             for name, coeff in constraint.terms.items() if coeff]
    const *= sign
    if op in ("<", ">"):
        const += 1
    return ("<=" if op in ("<", ">", ">=") else op), const, terms


def _propagate(rows, watchers, lo, hi, pending: deque,
               limit: int) -> Optional[bool]:
    """Narrow ``lo``/``hi`` in place towards bounds consistency.

    Visits the rows in ``pending`` first in, first out, and re-queues
    every row watching a variable whose box shrank at the back, until
    nothing changes (``True``) or ``limit`` row visits are spent
    (``False``: the boxes are sound but may not be a fixpoint).  The
    queue order means every row queued on entry is visited before any
    row is revisited, so a ``limit`` of at least ``len(pending)`` always
    checks each of them once.  ``None`` when some row cannot hold: its
    interval misses zero, a gcd of its unfixed coefficients does not
    divide its fixed part, a box empties, or a ``!=`` is fixed at
    equality.
    """
    queued = set(pending)
    while pending:
        if limit <= 0:
            return False
        limit -= 1
        k = pending.popleft()
        queued.discard(k)
        op, const, terms = rows[k]
        smin = smax = fixed = const
        g = free = 0
        for j, a in terms:
            low, high = lo[j], hi[j]
            if low == high:
                fixed += a * low
            else:
                g = gcd(g, a)
                free += 1
            if a > 0:
                smin += a * low
                smax += a * high
            else:
                smin += a * high
                smax += a * low
        changed = []
        if op == "!=":
            if smin == smax == 0:
                return None
            if free != 1:
                continue
            # one unfixed variable: trim its forbidden value off an edge
            j, a = next((j, a) for j, a in terms if lo[j] != hi[j])
            if fixed % a == 0:
                v = -fixed // a
                if v == lo[j]:
                    lo[j] += 1
                    changed.append(j)
                elif v == hi[j]:
                    hi[j] -= 1
                    changed.append(j)
        else:
            # ``up``: how far any one term may rise above its minimum
            # before the sum exceeds 0; ``down``: how far it may fall
            # below its maximum before the sum drops under 0 (``==`` only)
            if smin > 0:
                return None
            up = -smin
            down = smax if op == "==" else None
            if down is not None and (down < 0 or (g and fixed % g)):
                return None
            for j, a in terms:
                low, high = lo[j], hi[j]
                if low == high:
                    continue
                if a > 0:
                    new_low = low if down is None else max(low, high - down // a)
                    new_high = min(high, low + up // a)
                else:
                    new_low = max(low, high - up // -a)
                    new_high = high if down is None else min(high, low + down // -a)
                if new_low > new_high:
                    return None
                if new_low != low or new_high != high:
                    lo[j], hi[j] = new_low, new_high
                    changed.append(j)
        for j in changed:
            for r in watchers[j]:
                if r not in queued:
                    queued.add(r)
                    pending.append(r)
    return True


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

    rows = [_normalise(c, order) for c in live_constraints]
    watchers: list[list[int]] = [[] for _ in range(n)]
    for k, (_, _, terms) in enumerate(rows):
        for j, _ in terms:
            watchers[j].append(k)
    every_row = range(len(rows))
    # at least one visit per row, so every row is checked at every node
    limit = _PROPAGATION_ROUNDS * len(rows)
    budget = [node_budget]

    def search(i: int, lo: list[int], hi: list[int], pending: deque):
        """The first solution below this node in ascending order (the
        leaf's values), ``None`` if there is none, or UNKNOWN."""
        if budget[0] <= 0:
            return UNKNOWN
        budget[0] -= 1
        fixpoint = _propagate(rows, watchers, lo, hi, pending, limit)
        if fixpoint is None:
            return None
        if i == n:
            return lo
        # from a fixpoint only rows watching the branch variable can
        # move; otherwise the child re-examines every row
        for v in range(lo[i], hi[i] + 1):
            child_lo, child_hi = lo[:], hi[:]
            child_lo[i] = child_hi[i] = v
            result = search(i + 1, child_lo, child_hi,
                            deque(watchers[i] if fixpoint else every_row))
            if result is not None:
                return result
        return None

    result = search(0, [bounds[name][0] for name in names],
                    [bounds[name][1] for name in names], deque(every_row))
    nodes = node_budget - budget[0]
    if result == UNKNOWN:
        return Verdict(UNKNOWN, nodes=nodes)
    if result is not None:
        witness = dict(zip(names, result))
        for name, (lo, hi) in bounds.items():
            witness.setdefault(name, lo)
        return Verdict(SAT, witness, nodes=nodes)
    return Verdict(UNSAT, nodes=nodes)


def solve_linear(
    terms: dict[str, int],
    constant: int,
    bounds: dict[str, tuple[int, int]],
    node_budget: int = DEFAULT_NODE_BUDGET,
    extra: Sequence[Constraint] = (),
) -> Verdict:
    """Decide ``sum(terms[v] * v) + constant == 0`` over inclusive boxes.

    ``extra`` appends side constraints (div/mod defining equations, guard
    inequalities) to the system; the main equation is branched first, so
    the historical single-equation search order — and its witnesses — are
    preserved when ``extra`` is empty.
    """
    system = [Constraint(terms, constant, "==")]
    system.extend(extra)
    return solve_system(system, bounds, node_budget)


def solve_with_nonzero(
    terms: dict[str, int],
    constant: int,
    bounds: dict[str, tuple[int, int]],
    nonzero: list[str],
    extra_nonzero: list[str] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
    extra: Sequence[Constraint] = (),
) -> Verdict:
    """Decide the system subject to a disjunctive distinctness constraint.

    Finds a solution where *at least one* variable in ``nonzero`` is
    non-zero and *every* variable in ``extra_nonzero`` is non-zero — the
    shape of "the two accesses belong to distinct work-items" (some id
    delta differs) combined with "distinct work-items never share a
    worklist claim" (the claim delta must differ too).

    Decided by case-splitting: for each ``v`` in ``nonzero`` and each sign,
    restrict ``v``'s box away from zero and solve; ``extra_nonzero``
    variables are themselves sign-split.  All subproblems UNSAT => UNSAT;
    any SAT => SAT with that witness; otherwise UNKNOWN.
    """
    if not nonzero:
        return Verdict(UNSAT)

    def sign_boxes(name: str) -> list[tuple[int, int]]:
        lo, hi = bounds[name]
        out = []
        if hi >= 1:
            out.append((max(lo, 1), hi))
        if lo <= -1:
            out.append((lo, min(hi, -1)))
        return out

    def subproblems(pending: list[str], base: dict[str, tuple[int, int]]):
        if not pending:
            yield base
            return
        name, rest = pending[0], pending[1:]
        if name in base and base[name][0] >= 1 or name in base and base[name][1] <= -1:
            yield from subproblems(rest, base)
            return
        for box in sign_boxes(name):
            branched = dict(base)
            branched[name] = box
            yield from subproblems(rest, branched)

    saw_unknown = False
    nodes = 0
    for primary in nonzero:
        for primary_box in sign_boxes(primary):
            base = dict(bounds)
            base[primary] = primary_box
            extras = [v for v in extra_nonzero if v != primary]
            for boxed in subproblems(extras, base):
                verdict = solve_linear(terms, constant, boxed, node_budget,
                                       extra=extra)
                nodes += verdict.nodes
                if verdict.is_sat:
                    return Verdict(SAT, verdict.witness, nodes=nodes)
                if verdict.status == UNKNOWN:
                    saw_unknown = True
    status = UNKNOWN if saw_unknown else UNSAT
    return Verdict(status, nodes=nodes)
