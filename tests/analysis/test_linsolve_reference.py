"""Reference equivalence: the propagating solver against the search it
replaced.

``tests/analysis/reference_linsolve.py`` keeps the old branch-and-prune
``solve_system`` verbatim.  Both search in the same variable order and
enumerate values in ascending order; propagation only removes subtrees
that hold no solution.  So wherever the reference is decisive, the new
solver must return the same status and the *same* witness (the first
solution in that order), in no more nodes.  Where the reference runs out
of budget, a decisive new verdict must agree with brute-force
enumeration.
"""

from math import prod
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import linsolve
from repro.analysis.linsolve import (
    OPS,
    SAT,
    UNKNOWN,
    UNSAT,
    Constraint,
    solve_system,
    solve_with_nonzero,
)

from .reference_linsolve import solve_system as reference_solve
from .test_linsolve_properties import assert_witness_valid, brute_force

NAMES = ("a", "b", "c", "d", "e")
#: small, negative and large coefficients (rows, tile sizes, strides)
COEFFS = st.sampled_from((1, 2, 3, 4, 7, 16, 100, 1000)).flatmap(
    lambda c: st.sampled_from((c, -c)))


@st.composite
def boxes(draw, names, width=12):
    out = {}
    for name in names:
        lo = draw(st.integers(min_value=-10, max_value=8))
        out[name] = (lo, lo + draw(st.integers(min_value=0, max_value=width)))
    return out


@st.composite
def constraint(draw, names):
    used = draw(st.lists(st.sampled_from(names), min_size=1,
                         max_size=len(names), unique=True))
    return Constraint(
        terms={name: draw(COEFFS) for name in used},
        const=draw(st.integers(min_value=-60, max_value=60)),
        op=draw(st.sampled_from(OPS)),
    )


@st.composite
def linear_system(draw):
    names = NAMES[:draw(st.integers(min_value=1, max_value=len(NAMES)))]
    # narrower boxes for more variables keep the enumeration cheap
    bounds = draw(boxes(names, width=12 if len(names) <= 3 else 5))
    constraints = draw(st.lists(constraint(names), min_size=1, max_size=4))
    return constraints, bounds


@st.composite
def divmod_system(draw):
    """Two sides of a race query over ``id - K*q - r == 0`` encodings:
    an address equation over (q, r) and (q', r'), an id delta, and an
    optional probe over any of the variables."""
    k = draw(st.integers(min_value=2, max_value=9))
    hi = draw(st.integers(min_value=k, max_value=6 * k))
    bounds = {}
    system = []
    for side in ("A", "B"):
        bounds[f"id{side}"] = (0, hi)
        bounds[f"q{side}"] = (0, hi // k)
        bounds[f"r{side}"] = (0, k - 1)
        system.append(Constraint(
            {f"id{side}": 1, f"q{side}": -k, f"r{side}": -1}, 0, "=="))
    row = draw(st.sampled_from((k, k + 1, 2 * k, 16)))
    system.append(Constraint(
        {"qA": row, "rA": 1, "qB": -row, "rB": -1},
        draw(st.integers(min_value=-2, max_value=2)), "=="))
    system.append(Constraint({"idA": 1, "idB": -1}, 0,
                             draw(st.sampled_from(OPS))))
    if draw(st.booleans()):
        system.append(draw(constraint(tuple(bounds))))
    return system, bounds


#: Largest box product the undecided-reference check enumerates.
BRUTE_FORCE_LIMIT = 20_000


def assert_matches_reference(constraints, bounds, node_budget):
    new = solve_system(constraints, bounds, node_budget)
    ref = reference_solve(constraints, bounds, node_budget)
    if ref.status == UNKNOWN:
        if new.is_sat:
            assert_witness_valid(new, constraints, bounds)
        if new.is_unsat and prod(
                hi - lo + 1 for lo, hi in bounds.values()) <= BRUTE_FORCE_LIMIT:
            assert next(iter(brute_force(constraints, bounds)), None) is None
        return
    assert new.status == ref.status
    assert new.witness == ref.witness
    assert new.nodes <= ref.nodes


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(system=linear_system())
    def test_linear_systems(self, system):
        constraints, bounds = system
        assert_matches_reference(constraints, bounds, 2_000)

    @settings(max_examples=200, deadline=None)
    @given(system=linear_system())
    def test_starved_budget(self, system):
        """A budget small enough that the reference often gives up: a
        decisive new verdict must then agree with enumeration."""
        constraints, bounds = system
        assert_matches_reference(constraints, bounds, 12)

    @settings(max_examples=200, deadline=None)
    @given(system=divmod_system())
    def test_divmod_encodings(self, system):
        constraints, bounds = system
        assert_matches_reference(constraints, bounds, 2_000)

    @settings(max_examples=150, deadline=None)
    @given(system=linear_system(), data=st.data())
    def test_nonzero_sign_splits(self, system, data):
        """``solve_with_nonzero`` over both searches: the same case
        order, so the same first witness and no more nodes in total.
        These boxes are far smaller than the default budget, so no sign
        case of the reference is undecided."""
        (head, *rest), bounds = system
        names = sorted(bounds)
        nonzero = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                     unique=True))
        extra_nonzero = data.draw(st.lists(st.sampled_from(names),
                                           max_size=2, unique=True))
        args = (head.terms, head.const, bounds, nonzero, extra_nonzero)
        new = solve_with_nonzero(*args, extra=rest)
        with mock.patch.object(linsolve, "solve_system", reference_solve):
            ref = solve_with_nonzero(*args, extra=rest)
        assert ref.status != UNKNOWN
        assert new.status == ref.status
        assert new.witness == ref.witness
        assert new.nodes <= ref.nodes


class TestPropagation:
    def test_claim_delta_forced_to_zero(self):
        """A distinct-claim race query of the 2-D malleable ``1mat4d1R``
        kernel at a 16x16 launch, as the verifier emits it.  The address
        equation forces the (q, r) pairs of both sides equal, and the two
        claim equations then force the claim delta ``d:claim`` to zero,
        against its box [1, 15].  The reference enumerates the loop
        counters until its budget runs out; propagation refutes it in a
        handful of nodes."""
        claim, d_claim = "s:claim0:dynamic_work", "d:claim0:dynamic_work"
        system = [
            Constraint({"d:grp1": -1024, "d:grp0": -16384, "A:q0": 4096,
                        "A:r0": 256, "A:loop1:x": 16, "A:loop2:w": 1,
                        "B:q0": -4096, "B:r0": -256, "B:loop1:x": -16,
                        "B:loop2:w": -1}, 0, "=="),
            Constraint({claim: 1, "A:q0": -4, "A:r0": -1}, 0, "=="),
            Constraint({"s:grp0": 4, "A:q0": 1}, -16, "<"),
            Constraint({"s:grp1": 4, "A:r0": 1}, -16, "<"),
            Constraint({claim: 1, d_claim: 1, "B:q0": -4, "B:r0": -1},
                       0, "=="),
            Constraint({"s:grp0": 4, "d:grp0": 4, "B:q0": 1}, -16, "<"),
            Constraint({"s:grp1": 4, "d:grp1": 4, "B:r0": 1}, -16, "<"),
        ]
        bounds = {
            "s:lid0": (0, 3), "d:lid0": (1, 3), "s:grp1": (0, 3),
            "d:grp1": (0, 0), "s:lid1": (0, 3), "d:lid1": (-3, 3),
            "s:grp0": (0, 3), "d:grp0": (0, 0), claim: (0, 15),
            d_claim: (1, 15), "A:q0": (0, 3), "A:r0": (0, 3),
            "A:loop1:x": (0, 15), "A:loop2:w": (0, 15), "B:q0": (0, 3),
            "B:r0": (0, 3), "B:loop1:x": (0, 15), "B:loop2:w": (0, 15),
        }
        new = solve_system(system, bounds)
        assert new.is_unsat
        assert new.nodes <= 10
        assert reference_solve(system, bounds, 5_000).status == UNKNOWN

    def test_inequality_cycle_stops_short_of_a_fixpoint(self):
        """``x < y < x`` narrows by one per round; the per-node row
        budget bounds that work and the search still refutes it."""
        bounds = {"x": (0, 10**6), "y": (0, 10**6)}
        system = [Constraint({"x": 1, "y": -1}, 0, "<"),
                  Constraint({"y": 1, "x": -1}, 0, "<")]
        verdict = solve_system(system, bounds, node_budget=100)
        assert verdict.status in (UNSAT, UNKNOWN)
        small = {"x": (0, 20), "y": (0, 20)}
        assert solve_system(system, small).is_unsat

    def test_cycle_does_not_starve_a_queued_row(self):
        """An inequality cycle that narrows its boxes on every visit must
        not spend a node's visit cap before the other queued rows are
        checked: here the gcd row ``2z - 1 == 0`` refutes the system at
        the root, as it does for the reference."""
        system = [Constraint({"z": 2}, -1, "=="),
                  Constraint({"x": 1, "y": -1}, 0, "<"),
                  Constraint({"y": 1, "x": -1}, 0, "<")]
        bounds = {"z": (0, 10), "x": (0, 10**6), "y": (0, 10**6)}
        ref = reference_solve(system, bounds)
        new = solve_system(system, bounds)
        assert ref.is_unsat and new.is_unsat
        assert new.nodes <= ref.nodes

    def test_not_equal_trims_box_edges(self):
        """``x != 0`` and ``x != 5`` over [0, 5] leave [1, 4]: the first
        witness is x = 1, found without visiting x = 0."""
        system = [Constraint({"x": 1}, 0, "!="),
                  Constraint({"x": 1}, -5, "!=")]
        verdict = solve_system(system, {"x": (0, 5)})
        assert verdict.status == SAT and verdict.witness == {"x": 1}
        assert verdict.nodes == 2
        assert reference_solve(system, {"x": (0, 5)}).nodes == 3
