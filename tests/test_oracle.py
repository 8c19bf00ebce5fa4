import json
import random

import pytest
from hypothesis import assume, given, settings

from bielliptic import oracle
from bielliptic.errors import NotHyperbolicError, PreconditionError
from bielliptic.lattice import MukaiVector, mukai_pairing, square
from bielliptic.oracle import EqualityCase, enumerate_equality_cases, min_codim_oracle
from bielliptic.surfaces import all_types
from bielliptic.walls import HILBERT_CHOW, classify_wall, saturate_lattice

from conftest import FIXTURES
from test_walls import build_instance, raw_instances


def load_fixture(m, target):
    with open(FIXTURES / f"equality_cases_m{m}_t{target}.json") as fh:
        data = json.load(fh)
    return {(c["l1"], c["l2"], c["q"], c["b1"], c["b2"]) for c in data["cases"]}


def _sort_key(c):
    return (c.m, c.target, c.l1, c.l2, c.q, c.b1, c.b2)


def _floor_equation_holds(c):
    return -((c.b1 * c.l1) // c.m) - ((c.b2 * c.l2) // c.m) + c.b1 * c.b2 * c.q == c.target


def _consistent(c):
    """l1 | m, l2 | m and l1*l2 | m*q: the pullbacks' pairing is integral."""
    return c.m % c.l1 == 0 and c.m % c.l2 == 0 and (c.m * c.q) % (c.l1 * c.l2) == 0


def _reference_cases(m, target, bound):
    """The scan as first written: build every candidate, filter, then sort."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    out = []
    for l1 in divisors:
        for l2 in divisors:
            if l2 < l1:
                continue
            for q in range(1, bound + 1):
                if (m * q) % (l1 * l2) != 0:
                    continue
                for b1 in range(1, bound + 1):
                    for b2 in range(1, bound + 1):
                        if l1 == l2 and b2 < b1:
                            continue
                        case = EqualityCase(m, l1, l2, q, b1, b2, target)
                        if -((b1 * l1) // m) - ((b2 * l2) // m) + b1 * b2 * q == target:
                            out.append(case)
    return sorted(out, key=_sort_key)


class TestEqualityCases:
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("target", [0, 1])
    def test_matches_golden_fixture(self, m, target):
        got = {
            (c.l1, c.l2, c.q, c.b1, c.b2) for c in enumerate_equality_cases(m, target)
        }
        assert got == load_fixture(m, target)

    def test_known_members(self):
        t0 = {(c.l1, c.l2, c.q, c.b1, c.b2) for c in enumerate_equality_cases(2, 0)}
        assert (2, 2, 2, 1, 1) in t0
        assert (1, 2, 1, 2, 1) in t0
        t1 = {(c.l1, c.l2, c.q, c.b1, c.b2) for c in enumerate_equality_cases(3, 1)}
        assert (1, 1, 1, 1, 1) in t1

    def test_inconsistent_pairings_excluded(self):
        # (l1, l2, q) = (2, 2, 3) satisfies no consistency: 4 does not divide 6
        assert not any(
            c.q == 3 and c.l1 == c.l2 == 2 for c in enumerate_equality_cases(2, 0)
        )
        # floor-equation solutions with half-integral upstairs pairing stay out
        ghost = EqualityCase(m=6, l1=2, l2=2, q=1, b1=1, b2=1, target=1)
        assert _floor_equation_holds(ghost) and not _consistent(ghost)
        assert (2, 2, 1, 1, 1) not in {
            (c.l1, c.l2, c.q, c.b1, c.b2) for c in enumerate_equality_cases(6, 1)
        }

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("target", [0, 1])
    def test_every_case_reverifies(self, m, target):
        cases = enumerate_equality_cases(m, target)
        assert len(cases) == len(set(map(_sort_key, cases)))
        assert cases == sorted(cases, key=_sort_key)
        for c in cases:
            assert _floor_equation_holds(c)
            assert _consistent(c)
            assert c.l1 <= c.l2
            if c.l1 == c.l2:
                assert c.b1 <= c.b2

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("target", [0, 1])
    def test_scan_matches_construct_then_filter(self, m, target):
        for bound in range(1, 13):
            assert enumerate_equality_cases(m, target, bound) == _reference_cases(m, target, bound)

    @pytest.mark.parametrize("target", [0, 1])
    def test_scan_stops_each_b2_run_past_target(self, monkeypatch, target):
        # the full grid at the CLI cap is 2,985,560 evaluations; stopping each
        # b2 run at its first overshoot leaves about 44,000
        calls = 0
        floor_lhs = oracle._floor_lhs

        def counted(*args):
            nonlocal calls
            calls += 1
            return floor_lhs(*args)

        monkeypatch.setattr(oracle, "_floor_lhs", counted)
        enumerate_equality_cases(6, target, bound=80)
        assert calls <= 50_000

    @pytest.mark.parametrize("target", [0, 1])
    def test_scan_stops_the_b1_and_q_loops_past_target(self, monkeypatch, target):
        # a first-b2 overshoot also ends the b1 loop, and at b1 = 1 the q loop:
        # 91 evaluations at the CLI cap, where stopping only the b2 runs makes 43,679
        calls = 0
        floor_lhs = oracle._floor_lhs

        def counted(*args):
            nonlocal calls
            calls += 1
            return floor_lhs(*args)

        monkeypatch.setattr(oracle, "_floor_lhs", counted)
        enumerate_equality_cases(6, target, bound=80)
        assert calls <= 200

    def test_bad_arguments(self):
        with pytest.raises(PreconditionError):
            enumerate_equality_cases(5, 0)
        with pytest.raises(PreconditionError):
            enumerate_equality_cases(2, 2)
        with pytest.raises(PreconditionError):
            enumerate_equality_cases(2, 0, bound=0)


class TestCodimOracle:
    def test_hilbert_chow_instance(self):
        H = saturate_lattice(1, MukaiVector.of(1, 0, 0, -2), MukaiVector.of(0, 0, 0, 1))
        assert min_codim_oracle(H) == 0

    def test_flopping_instance(self):
        H = saturate_lattice(1, MukaiVector.of(3, 2, -2, -2), MukaiVector.of(1, 0, 0, 0))
        assert min_codim_oracle(H) == 1

    def test_no_decomposition_instance(self):
        H = saturate_lattice(1, MukaiVector.of(2, 1, 2, 0), MukaiVector.of(0, 1, -2, 1))
        assert min_codim_oracle(H) is None

    @given(raw_instances)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_classifier(self, raw):
        inst = build_instance(raw)
        assume(inst is not None)
        _, H = inst
        c = classify_wall(H)
        assert min_codim_oracle(H) == c.codim_bound
        if c.totally_semistable:
            assert min_codim_oracle(H) == 0

    def test_agrees_with_classifier_at_large_square(self):
        rng = random.Random(2024)
        found = 0
        while found < 40:
            v = MukaiVector.of(*(rng.randint(-7, 7) for _ in range(4)))
            if not 81 <= square(v) <= 120:
                continue
            w = MukaiVector.of(*(rng.randint(-3, 3) for _ in range(4)))
            try:
                H = saturate_lattice(rng.randint(1, 7), v, w)
            except (PreconditionError, NotHyperbolicError):
                continue
            found += 1
            assert classify_wall(H).codim_bound == min_codim_oracle(H), (v.text(), w.text())

    def test_agrees_with_classifier_when_v_pairs_to_zero_with_e2(self):
        # the first three w give a basis with <v, e2> = 0, so the oracle's
        # lines of constant pairing run along e2; the fourth is a control.
        # e1 = v / m, so only m >= 2 puts a positive class on such a line
        zero = found = 0
        for t in all_types():
            for m, n in [(1, n) for n in range(1, 30)] + [(m, n) for m in (2, 3) for n in range(1, 8)]:
                v = MukaiVector.of(m, 0, 0, -m * n)
                for w in [(0, 1, -1, 0), (0, 1, -2, 0), (0, 2, -1, 0), (0, 1, -1, 1)]:
                    H = saturate_lattice(t, v, MukaiVector.of(*w))
                    codim = classify_wall(H).codim_bound
                    zero += m == 1 and mukai_pairing(v, MukaiVector.of(*H.basis[1])) == 0
                    found += codim is not None
                    assert min_codim_oracle(H) == codim, (t, v.text(), w)
        assert zero == 609
        assert found == 7 * 2 * 7 * 4
        # v^2 = 1,200: the oracle reads the lines k = g, 2g, ... alone,
        # none for content(v) = 1 and the line k = 600 for content(v) = 2
        for t in all_types():
            for v, codim in [((1, 0, 0, -600), None), ((2, 0, 0, -300), 300)]:
                H = saturate_lattice(t, MukaiVector.of(*v), MukaiVector.of(0, 1, -1, 0))
                assert min_codim_oracle(H) == classify_wall(H).codim_bound == codim, (t, v)

    @pytest.mark.parametrize("n", [50, 60, 80, 100])
    def test_hilbert_chow_at_large_square(self, n):
        H = saturate_lattice(1, MukaiVector.of(1, 0, 0, -n), MukaiVector.of(0, 0, 0, 1))
        c = classify_wall(H)
        assert c.labels == frozenset({HILBERT_CHOW})
        assert c.codim_bound == 0
        assert min_codim_oracle(H) == 0
