from fractions import Fraction

import pytest
from hypothesis import given

from bielliptic.errors import PreconditionError
from bielliptic.lattice import MukaiVector, l_invariant, square
from bielliptic.moduli import (
    _SMALL_CASE_TABLE,
    SingClass,
    bridgeland_nonempty,
    gieseker_report,
    singularity_report,
)
from bielliptic.surfaces import all_types, surface_invariants
from bielliptic.transforms import ExceptionalKind

from conftest import mukai_vectors, primitive_vectors, surface_types


class TestGiesekerReport:
    def test_isotropic_half_divisible(self):
        rep = gieseker_report(3, MukaiVector.of(2, 0, 1, 0))
        assert rep.muss_nonempty and rep.mus_nonempty
        assert rep.stable_dimension == 1

    def test_exceptional_rank_two(self):
        rep = gieseker_report(1, MukaiVector.of(2, 0, 1, -1))
        assert rep.mus_nonempty
        assert rep.stable_dimension == 5
        assert rep.exceptional is ExceptionalKind.RANK2_TYPE1_B0

    def test_isotropic_multiple_fails_divisibility(self):
        rep = gieseker_report(5, MukaiVector.of(2, 0, 0, 0))
        assert rep.muss_nonempty and not rep.mus_nonempty
        assert rep.stable_dimension is None

    def test_dimension_two_at_full_divisibility(self):
        rep = gieseker_report(3, MukaiVector.of(4, 0, 2, 0))  # 2 * (2, B0, 0), l = 2
        assert rep.mus_nonempty
        assert rep.stable_dimension == 2

    def test_rejects_rank_zero(self):
        with pytest.raises(PreconditionError):
            gieseker_report(1, MukaiVector.of(0, 0, 1, 0))

    @given(surface_types, mukai_vectors(rmin=1))
    def test_mus_implies_muss(self, t, v):
        rep = gieseker_report(t, v)
        assert not rep.mus_nonempty or rep.muss_nonempty

    @given(surface_types, primitive_vectors())
    def test_isotropic_grid_rule(self, t, vp):
        if square(vp) != 0:
            return
        l = l_invariant(t, vp)
        ordk = surface_invariants(t).ord_k
        for n in range(1, 7):
            rep = gieseker_report(t, n * vp)
            assert rep.mus_nonempty == (ordk % (n * l) == 0)
            if rep.mus_nonempty:
                assert rep.stable_dimension == (2 if n * l == ordk else 1)


class TestBridgeland:
    def test_negative_square(self):
        v = MukaiVector.of(1, 1, -1, 1)
        assert square(v) == -4
        assert not bridgeland_nonempty(1, v)

    def test_point_class(self):
        assert bridgeland_nonempty(4, MukaiVector.of(0, 0, 0, 1))

    def test_exceptional_vector(self):
        assert bridgeland_nonempty(1, MukaiVector.of(2, 0, 1, -1))

    @given(surface_types, mukai_vectors())
    def test_matches_square_sign(self, t, v):
        assert bridgeland_nonempty(t, v) == (square(v) >= 0)


def classes_of(report):
    return [c.klass for c in report.cases]


class TestSingularities:
    def test_ord2_square2_not_normal(self):
        rep = singularity_report(1, MukaiVector.of(1, 0, 0, -1))
        assert classes_of(rep) == [SingClass.POSSIBLY_NON_NORMAL]
        assert rep.sing_dim_bound == Fraction(2 + 4, 2)

    def test_ord2_square4_two_cases_with_full_divisibility(self):
        rep = singularity_report(1, MukaiVector.of(2, 0, 1, -1))
        assert classes_of(rep) == [SingClass.POSSIBLY_NON_NORMAL, SingClass.TERMINAL_LCI]

    def test_ord2_square4_pruned_without_divisibility(self):
        rep = singularity_report(1, MukaiVector.of(1, 0, 0, -2))
        assert classes_of(rep) == [SingClass.TERMINAL_LCI]

    def test_ord6_square2_smooth(self):
        rep = singularity_report(7, MukaiVector.of(1, 0, 0, -1))
        assert classes_of(rep) == [SingClass.SMOOTH]

    def test_terminal_threshold(self):
        for t in all_types():
            ordk = surface_invariants(t).ord_k
            k = (3 * ordk + 1) // 2
            rep = singularity_report(t, MukaiVector.of(1, 0, 0, -k))
            assert classes_of(rep) == [SingClass.TERMINAL_LCI]

    def test_torsion_note_at_square_six(self):
        rep = singularity_report(1, MukaiVector.of(1, 0, 0, -3))
        assert "torsion" in rep.cases[0].condition

    def test_generic_surface_refinement(self):
        rep = singularity_report(1, MukaiVector.of(1, 0, 0, -1), generic_surface=True)
        assert classes_of(rep) == [SingClass.TERMINAL_LCI]
        # exceptional divisibility case keeps its small-square analysis
        rep = singularity_report(1, MukaiVector.of(2, 0, 1, -1), generic_surface=True)
        assert SingClass.POSSIBLY_NON_NORMAL in classes_of(rep)

    def test_rejects_non_primitive(self):
        with pytest.raises(PreconditionError):
            singularity_report(1, MukaiVector.of(2, 0, 0, -2))

    def test_small_case_table_covers_every_small_square_unconditionally(self):
        # keys: every (ord_k, v^2) below the terminal threshold 3 * ord_k;
        # each entry keeps a row with no l(v) condition, so no report is empty
        assert set(_SMALL_CASE_TABLE) == {
            (ordk, v2) for ordk in (2, 3, 4, 6) for v2 in range(2, 3 * ordk, 2)
        }
        for key, rows in _SMALL_CASE_TABLE.items():
            assert any(need_l is None for _, _, need_l in rows), key

    @given(surface_types, primitive_vectors())
    def test_total_and_monotone(self, t, v):
        if square(v) < 0:
            return
        rep = singularity_report(t, v)
        assert len(rep.cases) >= 1
        ordk = surface_invariants(t).ord_k
        assert rep.sing_dim_bound == Fraction(square(v) + 2 * ordk, ordk)
        if square(v) >= 3 * ordk:
            assert classes_of(rep) == [SingClass.TERMINAL_LCI]
