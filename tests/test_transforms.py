import hashlib
import itertools
import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bielliptic import transforms
from bielliptic.cli import run_command
from bielliptic.errors import PreconditionError, ReductionBudgetError
from bielliptic.lattice import DivisorClass, MukaiVector, mukai_pairing, square
from bielliptic.surfaces import all_types, surface_invariants
from bielliptic.transforms import (
    DUAL,
    ExceptionalKind,
    ORD3_B_MOVE,
    PHI,
    PHI_INV,
    PSI,
    PSI_DUAL_MOVE,
    PSI_INV,
    SHIFT,
    TYPE6_A_MOVE,
    TransformLog,
    apply_transform,
    count_rank_reducing,
    detect_exceptional,
    matches_reduced_form,
    reduce_to_table,
    step_from_json,
    _a_reduced,
    _act,
    _b_reduced,
)

from conftest import mukai_vectors, primitive_vectors, surface_types


def steps_valid_for(t):
    """All atoms valid on type t, and twists by A0, B0, A0 + B0, -2A0 + 3B0."""
    d = surface_invariants(t)
    steps = [DivisorClass(x, y) for x, y in ((1, 0), (0, 1), (1, 1), (-2, 3))]
    steps += [DUAL, SHIFT, PHI, PHI_INV, PSI, PSI_INV]
    if d.lam == 3:
        steps.append(TYPE6_A_MOVE)
    if d.ord_k == 3:
        steps.append(ORD3_B_MOVE)
    if d.ord_k in (4, 6):
        steps.append(PSI_DUAL_MOVE)
    return steps


def _stuck_type6(t, v):
    return t == 6 and v.r % 3 == 0 and (v.a % 3, v.b % 3) in ((1, 2), (2, 1))


def _seeded_corpus(seed, n, rmax):
    """n primitive vectors with 1 <= r <= rmax and |a|, |b|, |s| <= rmax."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        v = MukaiVector.of(
            rng.randint(1, rmax),
            rng.randint(-rmax, rmax),
            rng.randint(-rmax, rmax),
            rng.randint(-rmax, rmax),
        )
        if v.is_primitive():
            out.append(v)
    return out


UNIT_VECTORS = [MukaiVector.of(*(int(i == j) for j in range(4))) for i in range(4)]


def _step_id(step):
    obj = TransformLog((step,)).to_json()[0]
    if obj["params"] is None:
        return obj["step"]
    return f"twist({obj['params']['a']},{obj['params']['b']})"


@pytest.mark.parametrize(
    "t, step",
    [pytest.param(t, step, id=f"{t}-{_step_id(step)}") for t in all_types() for step in steps_valid_for(t)],
)
def test_step_is_linear_isometry_on_unit_vectors(t, step):
    images = [apply_transform(t, step, e) for e in UNIT_VECTORS]
    for i, ei in enumerate(UNIT_VECTORS):
        for j, ej in enumerate(UNIT_VECTORS):
            assert mukai_pairing(images[i], images[j]) == mukai_pairing(ei, ej), (i, j)
            assert apply_transform(t, step, ei + ej) == images[i] + images[j], (i, j)


class TestSingleSteps:
    def test_phi_inv_type2(self):
        assert apply_transform(2, PHI_INV, MukaiVector.of(4, 1, 1, 1)) == MukaiVector.of(2, 1, -1, 1)

    def test_dual(self):
        assert apply_transform(3, DUAL, MukaiVector.of(2, 1, 1, -1)) == MukaiVector.of(2, -1, -1, -1)

    def test_twist(self):
        got = apply_transform(1, DivisorClass(-2, -3), MukaiVector.of(1, 2, 3, 5))
        assert got == MukaiVector.of(1, 0, 0, -1)
        assert square(got) == 2 == square(MukaiVector.of(1, 2, 3, 5))

    def test_psi_inv_type1(self):
        assert apply_transform(1, PSI_INV, MukaiVector.of(3, 1, 1, 0)) == MukaiVector.of(1, 1, 1, 0)

    def test_step_type_mismatch(self):
        with pytest.raises(PreconditionError):
            apply_transform(1, TYPE6_A_MOVE, MukaiVector.of(1, 0, 0, 0))
        with pytest.raises(PreconditionError):
            apply_transform(4, ORD3_B_MOVE, MukaiVector.of(1, 0, 0, 0))
        with pytest.raises(PreconditionError):
            apply_transform(5, PSI_DUAL_MOVE, MukaiVector.of(1, 0, 0, 0))

    @given(surface_types, st.data())
    def test_isometry(self, t, data):
        step = data.draw(st.sampled_from(steps_valid_for(t)))
        v = data.draw(mukai_vectors())
        w = data.draw(mukai_vectors())
        tv = apply_transform(t, step, v)
        tw = apply_transform(t, step, w)
        assert mukai_pairing(tv, tw) == mukai_pairing(v, w)

    @given(surface_types, mukai_vectors())
    def test_inverse_pairs(self, t, v):
        assert apply_transform(t, PHI_INV, apply_transform(t, PHI, v)) == v
        assert apply_transform(t, PHI, apply_transform(t, PHI_INV, v)) == v
        assert apply_transform(t, PSI_INV, apply_transform(t, PSI, v)) == v
        assert apply_transform(t, PSI, apply_transform(t, PSI_INV, v)) == v


class TestLogs:
    def test_json_round_trip(self):
        log = TransformLog((DivisorClass(2, -1), PHI_INV, DUAL, PSI))
        again = TransformLog.from_json(log.to_json())
        assert again == log

    def test_reduction_log_round_trips_through_json(self):
        # 999 twists between 999 phi_inv steps, each held as its (a, b) pair
        t, text = REFERENCE_BRANCHES["twist_each_phi_inv"]
        _, log = reduce_to_table(t, MukaiVector.parse(text))
        again = TransformLog.from_json(log.to_json())
        assert again == log and hash(again) == hash(log)
        assert again.to_json() == log.to_json()

    def test_log_of_step_objects_equals_the_reduction_log(self):
        _, log = reduce_to_table(1, MukaiVector.of(3, 1, 1, 0))
        built = TransformLog((PHI_INV, PHI_INV, DivisorClass(-1, -1)))
        assert built == log and hash(built) == hash(log) and len(built) == len(log) == 3
        assert built != TransformLog((PHI_INV, PHI_INV, DivisorClass(-1, 0)))
        assert built != TransformLog((PHI_INV, DivisorClass(-1, -1)))
        assert log.__eq__(log.steps) is NotImplemented
        for name in ("twist_0_-1_then_psi", "twist_each_phi_inv", "stuck_type6"):
            t, text = REFERENCE_BRANCHES[name]
            _, log = reduce_to_table(t, MukaiVector.parse(text))
            built = TransformLog(log.steps)
            assert built == log and hash(built) == hash(log), name

    def test_steps_are_twists_and_atoms(self):
        _, log = reduce_to_table(6, MukaiVector.parse(REFERENCE_BRANCHES["twist_0_-1_then_psi"][1]))
        steps = log.steps
        assert steps.__class__ is tuple and len(steps) == len(log)
        assert DivisorClass(0, -1) in steps and PSI in steps
        for step in steps:
            assert step.__class__ is DivisorClass or step in transforms._Atom
            if step.__class__ is DivisorClass:
                assert (step.a.__class__, step.b.__class__) == (int, int)
        assert repr(TransformLog((DUAL, DivisorClass(1, 2)))) == (
            "TransformLog(steps=(<_Atom.DUAL: 'dual'>, DivisorClass(a=1, b=2)))"
        )

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            step_from_json({"step": "frobnicate", "params": None})

    def test_json_of_a_long_log_shares_the_atom_items(self):
        # 20,000 phi_inv steps: one list of references, not a dict per step
        _, log = reduce_to_table(1, MukaiVector.of(20_000, 1, 0, 0))
        assert len(log) > 19_990
        tracemalloc.start()
        try:
            items = log.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(log)
        assert items[0] is items[1] == {"step": "phi_inv", "params": None}

    @pytest.mark.parametrize("name", ["twist_each_phi_inv", "twist_0_-1_then_psi", "stuck_type6"])
    def test_json_shares_one_item_per_distinct_twist(self, name):
        # twist_each_phi_inv: 999 twists of 176 distinct (a, b) between 999 phi_inv steps
        t, text = REFERENCE_BRANCHES[name]
        _, log = reduce_to_table(t, MukaiVector.parse(text))
        items = log.to_json()
        pairs = {(it["params"]["a"], it["params"]["b"]) for it in items if it["step"] == "twist"}
        atoms = {it["step"] for it in items if it["step"] != "twist"}
        assert len({id(it) for it in items}) == len(pairs) + len(atoms)
        assert TransformLog.from_json(items) == log

    @pytest.mark.parametrize(
        "item",
        [
            {"step": "twist"},
            {"step": "twist", "params": None},
            {"step": "twist", "params": {"a": 1}},
            {"step": "twist", "params": {"a": 1, "b": 2, "c": 3}},
            {"step": "twist", "params": [1, 2]},
            {"a": 1},
            {},
            None,
            "dual",
            ["dual", None],
            {"step": ["dual"], "params": None},
            {"step": "dual", "params": {"a": 1, "b": 2}},
        ],
        ids=repr,
    )
    def test_malformed_item_rejected(self, item):
        with pytest.raises(ValueError, match=re.escape(repr(item))):
            step_from_json(item)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1", None])
    def test_twist_parameter_must_be_an_int(self, bad):
        # int() would truncate 1.5 or read True as 1 and replay another twist
        for params in ({"a": bad, "b": 0}, {"a": 0, "b": bad}):
            item = {"step": "twist", "params": params}
            with pytest.raises(ValueError, match=re.escape(repr(item))):
                step_from_json(item)

    def test_well_formed_items_parse(self):
        big = 10**30
        twist = step_from_json({"step": "twist", "params": {"b": -big, "a": 0}})
        assert twist.__class__ is DivisorClass and twist == DivisorClass(0, -big)
        assert step_from_json({"step": "psi_dual_move", "params": None}) is PSI_DUAL_MOVE


class TestFlatValues:
    """DivisorClass, which is also the twist step, is a flat __slots__ value
    with the equality, hash and repr that a frozen dataclass of the same
    fields would have."""

    def test_equal_fields_give_equal_values_and_hashes(self):
        D, E = DivisorClass(1, 2), DivisorClass(a=1, b=2)
        assert D == E and hash(D) == hash(E) == hash((1, 2))
        assert D != DivisorClass(2, 1) and D != DivisorClass(1, 3)
        assert (D.a, D.b) == (1, 2)

    def test_other_classes_are_never_equal(self):
        D = DivisorClass(1, 2)
        assert D != (1, 2) and (1, 2) != D
        assert D.__eq__((1, 2)) is NotImplemented
        assert D != DUAL and DUAL != D

    def test_reprs_are_pinned(self):
        assert repr(DivisorClass(1, 2)) == "DivisorClass(a=1, b=2)"
        assert repr(DivisorClass(-3, 0)) == "DivisorClass(a=-3, b=0)"

    def test_no_instance_dict(self):
        value = DivisorClass(1, 2)
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.c = 1

    def test_steps_as_dict_keys(self):
        # a step histogram, as criterion 5 keeps one, keyed by the steps
        steps = [DivisorClass(1, 0), DUAL, DivisorClass(1, 0), PHI_INV]
        steps += [DivisorClass(0, 1), DUAL]
        hist = {}
        for step in steps:
            hist[step] = hist.get(step, 0) + 1
        assert hist == {
            DivisorClass(1, 0): 2,
            DUAL: 2,
            PHI_INV: 1,
            DivisorClass(0, 1): 1,
        }
        assert {DivisorClass(1, 0): "A0"}[DivisorClass(1, 0)] == "A0"


class TestReduce:
    def test_already_reduced(self):
        v0, log = reduce_to_table(5, MukaiVector.of(3, 0, 1, 1))
        assert v0 == MukaiVector.of(3, 0, 1, 1)
        assert len(log) == 0

    def test_pure_twist(self):
        v0, log = reduce_to_table(1, MukaiVector.of(1, 2, 3, 5))
        assert v0 == MukaiVector.of(1, 0, 0, -1)
        assert log.to_json() == [{"step": "twist", "params": {"a": -2, "b": -3}}]

    def test_rank_reducing_run(self):
        v0, log = reduce_to_table(1, MukaiVector.of(3, 1, 1, 0))
        assert v0 == MukaiVector.of(1, 0, 0, -1)
        assert log.to_json() == [
            {"step": "phi_inv", "params": None},
            {"step": "phi_inv", "params": None},
            {"step": "twist", "params": {"a": -1, "b": -1}},
        ]

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionError):
            reduce_to_table(1, MukaiVector.of(0, 1, 0, 0))
        with pytest.raises(PreconditionError):
            reduce_to_table(1, MukaiVector.of(2, 2, 0, 2))

    @given(surface_types, primitive_vectors(rmin=1, rmax=25))
    def test_postconditions(self, t, v):
        v0, log = reduce_to_table(t, v)
        assert log.replay(t, v) == v0
        assert square(v0) == square(v)
        assert v0.is_primitive()
        assert 1 <= v0.r <= v.r
        assert count_rank_reducing(t, v, log) <= v.r

    @given(primitive_vectors(rmin=1, rmax=25))
    def test_row_membership_outside_the_stuck_class(self, v):
        for t in all_types():
            v0, _ = reduce_to_table(t, v)
            if _stuck_type6(t, v):
                # irreducible residue class: canonical form (3q, q, 2q, s)
                q = v0.r // 3
                assert (v0.a, v0.b) == (q, 2 * q)
                assert not matches_reduced_form(t, v0)
            else:
                assert matches_reduced_form(t, v0), (t, v, v0)


def test_type6_residue_class_is_invariant():
    """No step valid on type 6 leaves the class 3 | r, (a, b) = +-(1, 2)
    mod 3, and no row pattern lies in it, so the reduction cannot reach a
    row pattern from the class, whatever r is.

    Every step acts on (r, a, b, s) by an integer matrix, so it acts on the
    residues mod 3; a twist by D acts through D mod 3.  The closure of the
    six residues (0, a, b, s) with (a, b) = +-(1, 2) under every step is
    those six residues.  On type 6 (lambda = ord K = 3) a row pattern has a
    and b each 0 or r/3 mod r, so with 3 | r its (a, b) mod 3 is one of
    (0, 0), (q, 0), (0, q), (q, q) for q = r/3, never +-(1, 2); the loop
    below checks this against matches_reduced_form for r <= 90."""
    atoms = [PHI, PHI_INV, PSI, PSI_INV, DUAL, SHIFT, TYPE6_A_MOVE, ORD3_B_MOVE]
    assert set(transforms._Atom) - set(atoms) == {PSI_DUAL_MOVE}  # needs ord K in (4, 6)
    steps = [DivisorClass(x, y) for x in range(3) for y in range(3)] + atoms
    classes = {(1, 2), (2, 1)}
    residues = {(0, a, b, s) for a, b in classes for s in range(3)}
    orbit, frontier = set(residues), list(residues)
    while frontier:
        u = frontier.pop()
        for step in steps:
            w = tuple(x % 3 for x in apply_transform(6, step, MukaiVector(*u)).as_tuple())
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    assert orbit == residues
    rows = [
        (r, a, b)
        for r in range(3, 91, 3) for a in range(r) for b in range(r)
        if matches_reduced_form(6, MukaiVector(r, a, b, 0))
    ]
    assert len(rows) == 4 * 30  # a, b in {0, r/3} for each r
    assert not [row for row in rows if (row[1] % 3, row[2] % 3) in classes]


def test_box_reduces_to_a_row_exactly_outside_the_type6_class():
    # every primitive v with 1 <= r <= 6 and |a|, |b|, |s| <= 6, on all
    # seven types: the reduction ends on a row pattern unless v lies in the
    # irreducible type-6 class (test_type6_residue_class_is_invariant)
    box = range(-6, 7)
    n = 0
    for r in range(1, 7):
        for a, b, s in itertools.product(box, repeat=3):
            if math.gcd(r, a, b, s) == 1:
                v = MukaiVector(r, a, b, s)
                for t in range(1, 8):
                    v0, _ = reduce_to_table(t, v)
                    assert matches_reduced_form(t, v0) is not _stuck_type6(t, v), (t, v, v0)
                    n += 1
    assert n == 83_321


def test_type6_stuck_form_is_deterministic():
    v0, log = reduce_to_table(6, MukaiVector.of(3, 1, 2, 0))
    assert (v0.r, v0.a, v0.b) == (3, 1, 2)
    assert log.replay(6, MukaiVector.of(3, 1, 2, 0)) == v0
    assert not matches_reduced_form(6, v0)


def _reference_reduce(t, v):
    """The reduction loop as it stood when DivisorClass was a frozen
    dataclass wrapped in a twist-step class and the loop called _a_reduced, kept verbatim so that
    reduce_to_table can be checked against it branch by branch."""
    if v.r < 1:
        raise PreconditionError(f"reduction needs rank >= 1, got {v.r}")
    if not v.is_primitive():
        raise PreconditionError(f"reduction needs a primitive vector, got {v.text()}")

    data = surface_invariants(t)
    lam, ordk = data.lam, data.ord_k
    act = _act
    steps = []
    emit = steps.append
    r, a, b, s = v.r, v.a, v.b, v.s
    budget = 20 * r + 100
    fuel = budget

    while True:
        fuel -= 1
        if fuel < 0:
            raise ReductionBudgetError(
                f"reduction of {v.text()} on type {t} did not converge within "
                f"its budget of 20*r + 100 = {budget} rounds"
            )
        # one twist putting a and b into [0, r); after a dual it completes
        # the flip a -> (r - a) mod r, b -> (r - b) mod r
        x = -(a // r)
        y = -(b // r)
        if x or y:
            step = DivisorClass(x, y)
            emit(step)
            r, a, b, s = act(step, lam, ordk, r, a, b, s)

        if not _a_reduced(a, r, lam):
            if 2 * a > r:
                step = DUAL
            elif lam * a < r:
                step = PHI_INV
            else:
                # lambda = 3 and r/3 < a <= r/2
                step = TYPE6_A_MOVE
        elif _b_reduced(b, r, ordk):
            return MukaiVector(r, a, b, s), TransformLog(tuple(steps))
        elif 2 * b > r and (a == 0 or 2 * a == r):
            step = DUAL
        elif ordk * b < r:
            step = PSI_INV
        elif ordk == 3:
            if 3 * b < 2 * r:
                step = ORD3_B_MOVE
            elif 3 * b == 2 * r:
                # a = r/3 here; the escape below is rank-neutral and moves b
                # off the stuck residue unless r = 3 (k | s forces k = 1).
                if s % (r // 3) == 0:
                    return MukaiVector(r, a, b, s), TransformLog(tuple(steps))
                step = TYPE6_A_MOVE
            else:
                step = DivisorClass(0, -1)
                emit(step)
                r, a, b, s = act(step, lam, ordk, r, a, b, s)
                step = PSI
        else:
            # ord 4 or 6, r/ord < b < 2r/ord after the safe flip
            step = PSI_DUAL_MOVE
        emit(step)
        r, a, b, s = act(step, lam, ordk, r, a, b, s)


# one (type, vector) pair per branch of the loop, pinned as examples of the
# reference comparison below; the next test checks each takes its branch
REFERENCE_BRANCHES = {
    "dual_on_a": (6, "3,-1,-3,-3"),
    "phi_inv": (1, "2,-1,-2,-2"),
    "type6_a_move": (6, "2,-1,-2,-2"),
    "a_reduced_at_r_over_lambda": (2, "2,-1,-2,-2"),
    "dual_on_b": (5, "3,-3,-1,-3"),
    "psi_inv": (1, "3,-3,-2,-3"),
    "ord3_b_move": (5, "2,-2,-1,-2"),
    "ord3_escape_returns": (6, "3,1,2,0"),
    "ord3_escape_moves": (6, "9,-6,-3,-8"),
    "twist_0_-1_then_psi": (6, "9,-6,-2,-9"),
    "psi_dual_move": (3, "3,-3,-2,-3"),
    "stuck_type6": (6, "18,25,20,-23"),
    "long_phi_inv_chain": (1, "1000,1,0,0"),
    "twist_each_phi_inv": (1, "1000,1,0,999"),
    # how a PHI_INV run ends (see test_run_exit_examples_end_their_runs)
    "run_ends_a_reduced": (2, "10,1,0,3"),
    "run_ends_type6_a_move": (6, "17,2,0,-5"),
    "run_ends_dual": (1, "13,3,0,7"),
    "run_leaves_a_ge_r": (1, "9,3,1,2"),
    "run_leaves_a_ge_r_lam2": (2, "20,3,1,-5"),
    "long_run_s_negative_lam2": (4, "1000,1,0,-999"),
    "long_run_s_negative_lam3": (6, "1000,1,0,-999"),
    "long_run_ord6": (7, "1000,3,5,-99999"),
}


def _with_branch_examples(test):
    for t, text in REFERENCE_BRANCHES.values():
        test = example(t=t, v=MukaiVector.parse(text))(test)
    return test


def test_reference_branch_examples_take_their_steps():
    # the pinned examples above really reach the branch they are named for
    def first_steps(name):
        t, text = REFERENCE_BRANCHES[name]
        return [item["step"] for item in _reference_reduce(t, MukaiVector.parse(text))[1].to_json()]

    for name, step in [
        ("dual_on_a", "dual"), ("phi_inv", "phi_inv"), ("type6_a_move", "type6_a_move"),
        ("dual_on_b", "dual"), ("psi_inv", "psi_inv"), ("ord3_b_move", "ord3_b_move"),
        ("ord3_escape_moves", "type6_a_move"), ("psi_dual_move", "psi_dual_move"),
    ]:
        assert step in first_steps(name)[:2], name
    assert first_steps("twist_0_-1_then_psi")[1:3] == ["twist", "psi"]
    assert first_steps("ord3_escape_returns") == []
    assert first_steps("a_reduced_at_r_over_lambda") == ["twist"]
    assert first_steps("long_phi_inv_chain").count("phi_inv") == 999
    alternating = first_steps("twist_each_phi_inv")
    assert alternating == ["phi_inv", "twist"] * 999
    v0, _ = _reference_reduce(6, MukaiVector.parse(REFERENCE_BRANCHES["stuck_type6"][1]))
    assert (v0.a, v0.b) == (v0.r // 3, 2 * v0.r // 3)


def _first_run(t, text):
    """The reference log's first PHI_INV run, as the number of its PHI_INV
    steps, and the log items after it (the twists (0, y) inside the run are
    part of it)."""
    phi_inv = {"step": "phi_inv", "params": None}
    items = _reference_reduce(t, MukaiVector.parse(text))[1].to_json()
    start = j = items.index(phi_inv)
    while j < len(items):
        if items[j] == phi_inv:
            j += 1
        elif items[j]["step"] == "twist" and items[j]["params"]["a"] == 0 and items[j + 1 : j + 2] == [phi_inv]:
            j += 2
        else:
            break
    return items[start:j].count(phi_inv), items[j:]


def test_run_exit_examples_end_their_runs():
    # each way a PHI_INV run ends, on the reference loop: lam*a >= r for
    # lam > 1 (TYPE6_A_MOVE, or a-reduced at lam*a == r), 2a > r for lam = 1
    # (DUAL), and a >= r, where the next twist has x != 0
    def names(rest):
        return [item["step"] for item in rest]

    run, rest = _first_run(*REFERENCE_BRANCHES["run_ends_a_reduced"])
    assert (run, rest) == (4, [{"step": "twist", "params": {"a": 0, "b": 7}}])
    run, rest = _first_run(*REFERENCE_BRANCHES["run_ends_type6_a_move"])
    assert run == 2 and names(rest[:2]) == ["twist", "type6_a_move"]
    run, rest = _first_run(*REFERENCE_BRANCHES["run_ends_dual"])
    assert run == 3 and names(rest[:2]) == ["twist", "dual"]
    run, rest = _first_run(*REFERENCE_BRANCHES["long_run_ord6"])
    assert run == 332 and names(rest[:2]) == ["twist", "dual"]  # r = 4 < 2a
    for name in ("run_leaves_a_ge_r", "run_leaves_a_ge_r_lam2", "long_run_s_negative_lam3"):
        run, rest = _first_run(*REFERENCE_BRANCHES[name])
        assert run >= 2 and rest[0]["step"] == "twist" and rest[0]["params"]["a"] != 0, name
    run, rest = _first_run(*REFERENCE_BRANCHES["long_run_s_negative_lam2"])
    assert run == 499 and len(rest) == 1  # ends a-reduced at r = 2 = lam*a
    assert _first_run(*REFERENCE_BRANCHES["twist_each_phi_inv"])[0] == 999


def test_run_that_outlasts_the_budget(monkeypatch):
    # No real step raises the rank, so a run from rank R takes fewer than R
    # of the input's 20*r + 100 rounds, and searches of small vectors with
    # no b counted reduced found no run that meets the budget.  Here no b is
    # counted reduced, so (1, 0, 0, 0) takes a PSI_INV step, patched to jump
    # to rank 10^6 with a = 1: a run of about 10^6 PHI_INV rounds, against
    # a budget of 120.  Both loops stop in that run with one message.
    calls = []

    def jumping_act(step, lam, ordk, r, a, b, s, _act=_act):
        calls.append(step)
        return (10**6, 1, b, s) if step is PSI_INV else _act(step, lam, ordk, r, a, b, s)

    for module in (transforms, sys.modules[__name__]):
        monkeypatch.setattr(module, "_b_reduced", lambda b, r, ordk: False)
        monkeypatch.setattr(module, "_act", jumping_act)
    v = MukaiVector.of(1, 0, 0, 0)
    message = "reduction of 1,0,0,0 on type 1 did not converge within its budget of 20*r + 100 = 120 rounds"
    with pytest.raises(ReductionBudgetError) as got:
        reduce_to_table(1, v)
    assert str(got.value) == message
    assert calls == [PSI_INV]  # the loop applies the run itself
    with pytest.raises(ReductionBudgetError) as ref:
        _reference_reduce(1, v)
    assert str(ref.value) == message
    assert calls == [PSI_INV, PSI_INV] + [PHI_INV] * 119
    # both stop 119 rounds into the run, the rank still far above 2a
    assert got.traceback[-1].locals["r"] == ref.traceback[-1].locals["r"] == 10**6 - 119


# a fixed example sequence keeps this near 0.3 s: a draw with |a| small
# against r near 10^6 costs about r/|a| PHI_INV steps in each loop
@settings(max_examples=100, deadline=None, derandomize=True)
@given(t=surface_types, v=primitive_vectors(rmin=1, rmax=10**6, cmax=10**6))
@_with_branch_examples
def test_reduction_matches_reference_loop(t, v):
    got_v0, got_log = reduce_to_table(t, v)
    ref_v0, ref_log = _reference_reduce(t, v)
    assert got_v0 == ref_v0
    assert got_log.to_json() == ref_log.to_json()


@pytest.mark.parametrize("name, act_calls", [("long_phi_inv_chain", 0), ("psi_inv", 1)])
def test_loop_applies_its_twists_and_phi_inv_itself(monkeypatch, name, act_calls):
    # the normalising twist and PHI_INV, 95 % of the steps on random input,
    # are applied on the loop's own ints; only the other steps call _act
    calls = []

    def counting_act(step, *args):
        calls.append(step)
        return _act(step, *args)

    monkeypatch.setattr(transforms, "_act", counting_act)
    t, text = REFERENCE_BRANCHES[name]
    v = MukaiVector.parse(text)
    v0, log = reduce_to_table(t, v)
    assert len(calls) == act_calls
    ref_v0, ref_log = _reference_reduce(t, v)
    assert v0 == ref_v0
    assert log.to_json() == ref_log.to_json()


@pytest.mark.parametrize("name", ["psi_inv", "twist_0_-1_then_psi", "twist_each_phi_inv"])
def test_loop_builds_no_twist_objects(monkeypatch, name):
    # the loop logs a twist as its (a, b) pair; its DivisorClass is built
    # only when the log's steps are read
    t, text = REFERENCE_BRANCHES[name]
    v = MukaiVector.parse(text)
    built = [0]

    def counting_init(self, *args, _init=DivisorClass.__init__, **kwargs):
        built[0] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(DivisorClass, "__init__", counting_init)
    v0, log = reduce_to_table(t, v)
    assert built == [0]
    ref_v0, ref_log = _reference_reduce(t, v)
    ref_steps = ref_log.steps
    twists = sum(step.__class__ is DivisorClass for step in ref_steps)
    assert twists >= 1
    assert v0 == ref_v0
    assert log.steps == ref_steps
    # the counter does count: the reference loop builds each twist once,
    # and each of the two reads of steps builds it once more
    assert built == [3 * twists]


class TestExceptional:
    def test_type1_b0_family(self):
        assert detect_exceptional(1, MukaiVector.of(2, 0, 1, -1)) is ExceptionalKind.RANK2_TYPE1_B0

    def test_trivial_family_twisted(self):
        # (2, 0, -1) twisted by A0 is (2, 2A0, -1)
        twisted = apply_transform(2, DivisorClass(1, 0), MukaiVector.of(2, 0, 0, -1))
        assert twisted == MukaiVector.of(2, 2, 0, -1)
        assert detect_exceptional(2, twisted) is ExceptionalKind.RANK2_TRIVIAL

    def test_wrong_square_is_not_exceptional(self):
        assert detect_exceptional(2, MukaiVector.of(2, 2, 0, 1)) is None
        assert detect_exceptional(1, MukaiVector.of(2, 0, 1, 0)) is None

    def test_not_on_composite_order_surfaces(self):
        assert detect_exceptional(3, MukaiVector.of(2, 0, 0, -1)) is None

    @given(st.integers(-10, 10), st.integers(-10, 10))
    def test_whole_twist_orbits(self, x, y):
        tw = DivisorClass(x, y)
        assert detect_exceptional(2, apply_transform(2, tw, MukaiVector.of(2, 0, 0, -1))) is ExceptionalKind.RANK2_TRIVIAL
        assert detect_exceptional(1, apply_transform(1, tw, MukaiVector.of(2, 0, 1, -1))) is ExceptionalKind.RANK2_TYPE1_B0


class TestReductionOutput:
    """The reduction's CLI output is fixed byte for byte on a seeded corpus."""

    # SHA-256 of the concatenated `reduce --json` stdout below; it covers
    # the reduced vector, the table verdict and the full step log.
    DIGEST = "cb4066a27be16d5fc89f9fc7ff6f56cebf28440ff049f20e20754e9a16f0f8e2"

    def test_golden_digest(self, capsys):
        corpus = _seeded_corpus(0, 50, 40) + _seeded_corpus(1, 50, 10**6)
        h = hashlib.sha256()
        for t in all_types():
            for v in corpus:
                code = run_command(["reduce", "--type", str(t), f"--vector={v.text()}", "--json"])
                out = capsys.readouterr().out
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == self.DIGEST

    @settings(max_examples=60, deadline=None)
    @given(
        surface_types,
        primitive_vectors(rmin=1, rmax=10**6, cmax=10**6),
    )
    def test_large_rank_postconditions(self, t, v):
        v0, log = reduce_to_table(t, v)
        assert log.replay(t, v) == v0
        assert square(v0) == square(v)
        if _stuck_type6(t, v):
            q = v0.r // 3
            assert (v0.r % 3, v0.a, v0.b) == (0, q, 2 * q)
            assert not matches_reduced_form(t, v0)
        else:
            assert matches_reduced_form(t, v0), (t, v, v0)
