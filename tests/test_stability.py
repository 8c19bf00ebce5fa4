from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bielliptic.errors import DegenerateChargeError, PreconditionError
from bielliptic.lattice import DivisorClass, MukaiVector, mukai_pairing
from bielliptic.stability import (
    EVERYWHERE,
    NOWHERE,
    GeometricStability,
    QuadraticLocus,
    bayer_macri_class,
    central_charge,
    locus_samples,
    slice_charge,
    wall_in_slice,
)
from bielliptic.values import Value

from conftest import mukai_vectors, surface_types

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(6), max_denominator=8
)


@st.composite
def stabilities(draw):
    return GeometricStability(
        DivisorClass(draw(rationals), draw(rationals)),
        DivisorClass(draw(positive_rationals), draw(positive_rationals)),
    )


def sigma_of(beta_a, beta_b, omega_a, omega_b):
    return GeometricStability(DivisorClass(beta_a, beta_b), DivisorClass(omega_a, omega_b))


SIGMA = sigma_of(0, 0, 1, 1)


class TestCentralCharge:
    def test_point_class(self):
        z = central_charge(1, MukaiVector.of(0, 0, 0, 1), SIGMA)
        assert (z.re, z.im) == (-1, 0)

    def test_structure_sheaf(self):
        z = central_charge(1, MukaiVector.of(1, 0, 0, 0), SIGMA)
        assert (z.re, z.im) == (1, 0)

    def test_fibre_class_scales_with_omega(self):
        t = Fraction(7, 3)
        sigma = sigma_of(0, 0, t, t)
        z = central_charge(1, MukaiVector.of(0, 1, 0, 0), sigma)
        assert (z.re, z.im) == (0, t)

    @given(surface_types, mukai_vectors(), mukai_vectors(), stabilities())
    def test_additive(self, t, v, w, sigma):
        zv = central_charge(t, v, sigma)
        zw = central_charge(t, w, sigma)
        zvw = central_charge(t, v + w, sigma)
        assert (zvw.re, zvw.im) == (zv.re + zw.re, zv.im + zw.im)


class TestWallInSlice:
    def test_named_line(self):
        loc = wall_in_slice(1, MukaiVector.of(1, 0, 0, -1), MukaiVector.of(0, 0, 0, -1), DivisorClass(1, 1))
        assert isinstance(loc, QuadraticLocus)
        samples = locus_samples(loc, 5)
        assert len(samples) == 5
        for x, y in samples:
            assert y > 0
            zv = slice_charge(1, MukaiVector.of(1, 0, 0, -1), DivisorClass(1, 1), x, y)
            zw = slice_charge(1, MukaiVector.of(0, 0, 0, -1), DivisorClass(1, 1), x, y)
            assert (zw * zv.conj()).im == 0

    def test_collinear_rejected(self):
        v = MukaiVector.of(1, 2, 0, -1)
        with pytest.raises(PreconditionError):
            wall_in_slice(1, v, 3 * v, DivisorClass(1, 1))

    def test_nonample_rejected(self):
        with pytest.raises(PreconditionError):
            wall_in_slice(1, MukaiVector.of(1, 0, 0, -1), MukaiVector.of(0, 0, 0, 1), DivisorClass(1, 0))

    def test_rank_zero_proportional_c1(self):
        loc = wall_in_slice(1, MukaiVector.of(0, 1, 0, 0), MukaiVector.of(0, 2, 0, 5), DivisorClass(1, 1))
        assert loc is NOWHERE

    def test_swap_invariance(self):
        H0 = DivisorClass(1, 2)
        v, w = MukaiVector.of(2, 1, -1, 3), MukaiVector.of(1, 0, 2, -1)
        assert wall_in_slice(1, v, w, H0) == wall_in_slice(1, w, v, H0)

    @given(mukai_vectors(), mukai_vectors(), st.integers(1, 4), st.integers(1, 4))
    def test_locus_points_kill_the_cross_product(self, v, w, ha, hb):
        H0 = DivisorClass(ha, hb)
        try:
            loc = wall_in_slice(1, v, w, H0)
        except PreconditionError:
            return
        if loc is EVERYWHERE or loc is NOWHERE:
            return
        for x, y in locus_samples(loc, 3):
            zv = slice_charge(1, v, H0, x, y)
            zw = slice_charge(1, w, H0, x, y)
            assert (zw * zv.conj()).im == 0


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _reference_circle_samples(locus, count):
    """The circle branch of locus_samples as first written, in Fractions."""
    out = []
    for den in range(1, 13):
        for num in range(-12 * den, 12 * den + 1):
            x = Fraction(num, den)
            y2 = -Fraction(locus.alpha * x * x + locus.beta * x + locus.gamma, locus.alpha)
            if y2 <= 0:
                continue
            y = _rational_sqrt(y2)
            if y is None:
                continue
            if (x, y) not in out:
                out.append((x, y))
                if len(out) >= count:
                    return out
    return out


class TestLocusSamples:
    @given(st.integers(1, 60), st.integers(-600, 600), st.integers(-600, 600), st.integers(0, 8))
    @example(1, 0, -3, 8)  # x^2 + y^2 = 3 has no rational point
    @example(1, 0, -25, 8)  # x^2 + y^2 = 25 has many
    def test_integer_scan_matches_fraction_scan(self, alpha, beta, gamma, count):
        locus = QuadraticLocus(alpha, beta, gamma)
        # [:count]: the first scan returned its first point even for count 0
        assert locus_samples(locus, count) == _reference_circle_samples(locus, count)[:count]


def _full_scan_circle_samples(locus, count):
    """The circle branch of locus_samples before it bounded num to the
    circle: every x = num/den with den = 1..12 and |x| <= 12, in order."""
    alpha, beta, gamma = locus.alpha, locus.beta, locus.gamma
    out = []
    for den in range(1, 13):
        for num in range(-12 * den, 12 * den + 1):
            n = -alpha * (alpha * num * num + beta * num * den + gamma * den * den)
            if n <= 0:
                continue
            root = isqrt(n)
            if root * root == n and gcd(num, den) == 1:
                out.append((Fraction(num, den), Fraction(root, alpha * den)))
                if len(out) >= count:
                    return out
    return out


@st.composite
def centred_circles(draw):
    """k * (q^2 (x^2 + y^2) - 2pq x + p^2 - m): the circle (qx - p)^2 + (qy)^2 = m,
    centre p/q, scaled by k; m is a sum of two squares half the time, so
    that the circle tends to carry rational points."""
    q, p, k = draw(st.integers(1, 12)), draw(st.integers(-200, 200)), draw(st.integers(1, 1000))
    m = draw(st.one_of(
        st.integers(-10, 100_000),
        st.tuples(st.integers(0, 300), st.integers(0, 300)).map(lambda ab: ab[0] ** 2 + ab[1] ** 2),
    ))
    return QuadraticLocus(k * q * q, -2 * k * p * q, k * (p * p - m))


raw_circles = st.builds(
    QuadraticLocus, st.integers(1, 10**6), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
)


class TestCircleScan:
    """locus_samples scans only the nums inside the circle; the full scan
    of the box is the reference."""

    @given(st.one_of(centred_circles(), raw_circles), st.one_of(st.integers(1, 20), st.just(10_000)))
    @example(QuadraticLocus(1, 0, -25), 10_000)  # (+-5, 0) on the circle: y = 0 is no sample
    @example(QuadraticLocus(1, 0, -147), 10_000)  # the box inside the circle, no rational point
    @example(QuadraticLocus(1, 0, -144), 10_000)  # radius 12: the box's ends x = +-12 on it
    @example(QuadraticLocus(1, -48, 575), 10_000)  # (x - 24)^2 + y^2 = 1, outside the box
    @example(QuadraticLocus(1, 0, 0), 10_000)  # disc = 0: a point circle
    @example(QuadraticLocus(1, 0, 1), 10_000)  # disc < 0: no real point
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_scan(self, locus, count):
        assert locus_samples(locus, count) == _full_scan_circle_samples(locus, count)

    def test_a_circle_makes_no_value_comparison(self, monkeypatch):
        calls, eq = [], Value.__eq__

        def counted(self, other):
            calls.append(other)
            return eq(self, other)

        monkeypatch.setattr(Value, "__eq__", counted)
        assert locus_samples(QuadraticLocus(1, 0, -25), 2) == [(-4, 3), (-3, 4)]
        assert calls == []

    def test_sentinels(self):
        assert locus_samples(NOWHERE, 3) == []
        assert locus_samples(EVERYWHERE, 3) == [(0, 1), (1, 1), (2, 1)]
        assert locus_samples(EVERYWHERE, 0) == []


class TestBayerMacri:
    def test_point_class(self):
        xi = bayer_macri_class(1, MukaiVector.of(0, 0, 0, 1), SIGMA)
        assert xi == MukaiVector.of(0, -1, -1, 0)

    @given(surface_types, mukai_vectors(), stabilities())
    def test_orthogonal_to_v(self, t, v, sigma):
        try:
            xi = bayer_macri_class(t, v, sigma)
        except DegenerateChargeError:
            return
        assert mukai_pairing(xi, v) == 0

    def test_inverse_scaling(self):
        v = MukaiVector.of(1, 0, 0, 0)
        xi1 = bayer_macri_class(1, v, sigma_of(0, 0, 1, 1))
        xi2 = bayer_macri_class(1, v, sigma_of(0, 0, 2, 2))
        assert xi2.as_tuple() == tuple(c / 2 for c in xi1.as_tuple())

    @given(
        surface_types,
        mukai_vectors(),
        st.builds(sigma_of, st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 6), st.integers(1, 6))
        | stabilities(),
    )
    @example(1, MukaiVector.of(1, 0, 0, -1), SIGMA)  # integral beta, omega: s must be Fraction(0)
    def test_components_are_fractions(self, t, v, sigma):
        z = central_charge(t, v, sigma)
        assert type(z.re) is Fraction and type(z.im) is Fraction
        if z.is_zero():
            return
        assert all(type(c) is Fraction for c in bayer_macri_class(t, v, sigma).as_tuple())

    def test_degenerate_charge(self):
        # Z = -s + r*omega^2/2 + i*0 vanishes for (1, 0, 1) at omega = A0 + B0
        v = MukaiVector.of(1, 0, 0, 1)
        assert central_charge(1, v, SIGMA).is_zero()
        with pytest.raises(DegenerateChargeError):
            bayer_macri_class(1, v, SIGMA)
