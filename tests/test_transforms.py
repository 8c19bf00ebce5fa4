import hashlib
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bielliptic.cli import run_command
from bielliptic.errors import PreconditionError
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
    TwistBy,
    apply_transform,
    count_rank_reducing,
    detect_exceptional,
    matches_reduced_form,
    reduce_to_table,
    step_from_json,
)

from conftest import mukai_vectors, primitive_vectors, surface_types


def steps_valid_for(t):
    """All atoms valid on type t, and twists by A0, B0, A0 + B0, -2A0 + 3B0."""
    d = surface_invariants(t)
    steps = [TwistBy(DivisorClass(x, y)) for x, y in ((1, 0), (0, 1), (1, 1), (-2, 3))]
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
    obj = step.describe()
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
        got = apply_transform(1, TwistBy(DivisorClass(-2, -3)), MukaiVector.of(1, 2, 3, 5))
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
        log = TransformLog((TwistBy(DivisorClass(2, -1)), PHI_INV, DUAL, PSI))
        again = TransformLog.from_json(log.to_json())
        assert again == log

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            step_from_json({"step": "frobnicate", "params": None})


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
    """(r, +-(a, b)) mod 3 is fixed by every step when 3 | r, so vectors
    with (a, b) = +-(1, 2) mod 3 can never reach a row pattern on type 6
    (all row patterns have (a, b) proportional to (0, 0), (1, 0), (0, 1)
    or (1, 1) mod 3)."""
    classes = {(1, 2), (2, 1)}
    vecs = [
        MukaiVector.of(3, 1, 2, 0),
        MukaiVector.of(6, 4, 5, -3),
        MukaiVector.of(9, -2, 8, 7),
    ]
    for v in vecs:
        assert (v.a % 3, v.b % 3) in classes
        for step in steps_valid_for(6):
            w = apply_transform(6, step, v)
            if w.r % 3 == 0:
                assert (w.a % 3, w.b % 3) in classes, (v, step, w)


def test_type6_stuck_form_is_deterministic():
    v0, log = reduce_to_table(6, MukaiVector.of(3, 1, 2, 0))
    assert (v0.r, v0.a, v0.b) == (3, 1, 2)
    assert log.replay(6, MukaiVector.of(3, 1, 2, 0)) == v0
    assert not matches_reduced_form(6, v0)


class TestExceptional:
    def test_type1_b0_family(self):
        assert detect_exceptional(1, MukaiVector.of(2, 0, 1, -1)) is ExceptionalKind.RANK2_TYPE1_B0

    def test_trivial_family_twisted(self):
        # (2, 0, -1) twisted by A0 is (2, 2A0, -1)
        twisted = apply_transform(2, TwistBy(DivisorClass(1, 0)), MukaiVector.of(2, 0, 0, -1))
        assert twisted == MukaiVector.of(2, 2, 0, -1)
        assert detect_exceptional(2, twisted) is ExceptionalKind.RANK2_TRIVIAL

    def test_wrong_square_is_not_exceptional(self):
        assert detect_exceptional(2, MukaiVector.of(2, 2, 0, 1)) is None
        assert detect_exceptional(1, MukaiVector.of(2, 0, 1, 0)) is None

    def test_not_on_composite_order_surfaces(self):
        assert detect_exceptional(3, MukaiVector.of(2, 0, 0, -1)) is None

    @given(st.integers(-10, 10), st.integers(-10, 10))
    def test_whole_twist_orbits(self, x, y):
        tw = TwistBy(DivisorClass(x, y))
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
