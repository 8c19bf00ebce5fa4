import ast
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

import bielliptic
from bielliptic.errors import PreconditionError
from bielliptic.lattice import (
    DivisorClass,
    MukaiVector,
    l_invariant,
    mukai_pairing,
    plane_key,
    primitive_isotropic_in_series,
    pullback_canonical,
    square,
)
from bielliptic.linalg import saturation_basis
from bielliptic.surfaces import all_types, surface_invariants

from conftest import mukai_vectors, primitive_vectors, surface_types


class TestPairing:
    def test_fibre_classes(self):
        assert mukai_pairing(MukaiVector.of(1, 1, 0, 0), MukaiVector.of(1, 0, 1, 0)) == 1

    def test_point_class(self):
        assert mukai_pairing(MukaiVector.of(0, 0, 0, 1), MukaiVector.of(5, 2, -3, 9)) == -5

    def test_square_of_exceptional(self):
        v = MukaiVector.of(2, 0, 1, -1)
        assert mukai_pairing(v, v) == 4
        assert 2 * v.a * v.b - 2 * v.r * v.s == 4

    @given(mukai_vectors(), mukai_vectors())
    def test_symmetric(self, v, w):
        assert mukai_pairing(v, w) == mukai_pairing(w, v)

    @given(mukai_vectors(), mukai_vectors(), mukai_vectors(), st.integers(-9, 9))
    def test_bilinear(self, u, v, w, c):
        assert mukai_pairing(u + c * v, w) == mukai_pairing(u, w) + c * mukai_pairing(v, w)

    @given(mukai_vectors())
    def test_square_even(self, v):
        assert square(v) % 2 == 0


class TestFlatValue:
    def test_equality_and_hash(self):
        v = MukaiVector.of(2, -1, 3, 5)
        assert v == MukaiVector(2, -1, 3, 5)
        assert hash(v) == hash(MukaiVector(2, -1, 3, 5))
        assert v != MukaiVector(2, -1, 3, 4)
        assert v != (2, -1, 3, 5)
        assert len({v, MukaiVector(2, -1, 3, 5)}) == 1

    def test_arithmetic_and_text(self):
        v, w = MukaiVector(2, -1, 3, 5), MukaiVector(1, 1, 0, -2)
        assert v + w == MukaiVector(3, 0, 3, 3)
        assert v - w == MukaiVector(1, -2, 3, 7)
        assert -v == MukaiVector(-2, 1, -3, -5)
        assert 3 * w == MukaiVector(3, 3, 0, -6)
        assert MukaiVector.parse(v.text()) == v
        assert repr(v) == "MukaiVector(2, -1, 3, 5)"

    def test_primitive_part(self):
        assert MukaiVector(4, -2, 6, 0).primitive_part() == (2, MukaiVector(2, -1, 3, 0))
        with pytest.raises(PreconditionError):
            MukaiVector(0, 0, 0, 0).primitive_part()

    def test_divisor_dot_and_amplitude(self):
        D, E = DivisorClass(1, 2), DivisorClass(3, -1)
        assert D.dot(E) == E.dot(D) == 5 and D.dot(D) == D.self_int() == 4
        assert D.is_ample() and not E.is_ample() and not DivisorClass(0, 1).is_ample()
        half = DivisorClass(Fraction(1, 2), Fraction(1, 3))
        assert half.self_int() == Fraction(1, 3) and half.is_ample()

    @given(mukai_vectors(), st.integers(-5, 5))
    def test_collinear_with_multiples(self, v, n):
        assert plane_key(v, n * v) is None
        assert plane_key(v, MukaiVector(0, 0, 0, 0)) is None

    def test_independent_vectors_are_not_collinear(self):
        assert plane_key(MukaiVector(1, 0, 0, -2), MukaiVector(0, 0, 0, 1)) == (0, 0, 1, 0, 0, 0)
        assert plane_key(MukaiVector(1, 2, 0, 0), MukaiVector(1, 0, 2, 0)) == (1, -1, 0, -2, 0, 0)

    @given(mukai_vectors(), mukai_vectors(), st.integers(-5, 5))
    def test_plane_key_names_the_plane(self, v, w, k):
        key = plane_key(v, w)
        assume(key is not None)
        assert plane_key(w, v) == key
        assert plane_key(v, w + k * v) == key
        e1, e2 = saturation_basis([list(v.as_tuple()), list(w.as_tuple())])
        assert plane_key(MukaiVector(*e1), MukaiVector(*e2)) == key


class TestLInvariant:
    def test_type1_rank2(self):
        assert l_invariant(1, MukaiVector.of(2, 0, 1, 0)) == 2

    def test_point_class_has_full_l(self):
        for t in all_types():
            assert l_invariant(t, MukaiVector.of(0, 0, 0, 1)) == surface_invariants(t).ord_k

    def test_type6_rank3(self):
        assert l_invariant(6, MukaiVector.of(3, 1, 0, 0)) == 1

    def test_rejects_non_primitive(self):
        with pytest.raises(PreconditionError):
            l_invariant(1, MukaiVector.of(2, 0, 0, 2))

    @given(surface_types, primitive_vectors(rmin=-30))
    def test_divides_ord_and_cover_quotient_primitive(self, t, v):
        d = surface_invariants(t)
        l = l_invariant(t, v)
        assert d.ord_k % l == 0
        cover = pullback_canonical(t, v)
        assert cover.content() == l


class TestPullbacks:
    def test_canonical_type1(self):
        cv = pullback_canonical(1, MukaiVector.of(2, 0, 1, 0))
        assert (cv.r, cv.alpha, cv.beta, cv.s, cv.lam) == (2, 0, 2, 0, 1)

    def test_canonical_scales_square(self):
        v = MukaiVector.of(1, 1, 1, 0)
        cv = pullback_canonical(2, v)
        assert cv.lam == 2
        assert cv.pairing(cv) == 2 * square(v) == 4

    def test_point_class(self):
        for t in all_types():
            cv = pullback_canonical(t, MukaiVector.of(0, 0, 0, 1))
            assert (cv.r, cv.alpha, cv.beta, cv.s) == (0, 0, 0, surface_invariants(t).ord_k)

    @given(surface_types, mukai_vectors(), mukai_vectors())
    def test_pairing_scaling(self, t, v, w):
        ordk = surface_invariants(t).ord_k
        assert pullback_canonical(t, v).pairing(pullback_canonical(t, w)) == ordk * mukai_pairing(v, w)


class TestIsotropicSeries:
    def test_known_rows(self):
        assert primitive_isotropic_in_series(2, DivisorClass(1, 1)) == MukaiVector.of(4, 2, 2, 1)
        assert primitive_isotropic_in_series(2, DivisorClass(0, 1)) == MukaiVector.of(2, 0, 1, 0)
        assert primitive_isotropic_in_series(1, DivisorClass(1, 1)) == MukaiVector.of(1, 1, 1, 1)

    @given(
        st.integers(1, 20),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(-20, 20),
        st.integers(-20, 20),
    )
    def test_divisibility_of_series_pairings(self, r, a, b, n_, s_):
        if gcd(gcd(r, a), b) != 1:
            return
        u = primitive_isotropic_in_series(r, DivisorClass(a, b))
        assert square(u) == 0
        assert u.is_primitive()
        vprime = MukaiVector.of(n_ * r, n_ * a, n_ * b, s_)
        assert mukai_pairing(u, vprime) % r == 0


def _package_sources():
    for path in sorted(Path(bielliptic.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


class TestSourceHygiene:
    """The package needs only the standard library and never computes in floats."""

    def test_imports_are_stdlib_or_bielliptic(self):
        allowed = sys.stdlib_module_names | {"bielliptic"}
        bad = []
        for name, tree in _package_sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                bad += [f"{name}:{node.lineno} {root}" for root in roots if root not in allowed]
        assert bad == []

    def test_no_float_literal_or_call(self):
        bad = []
        for name, tree in _package_sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, float):
                    bad.append(f"{name}:{node.lineno} literal {node.value!r}")
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
                    bad.append(f"{name}:{node.lineno} float(...)")
        assert bad == []
