"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 1 is expected to fail on type 6: a residue class of
primitive vectors (3 | r, (a, b) = +-(1, 2) mod 3) provably admits no
reduction to the registered row patterns under the implemented transform
set; see the reduction module docstring and the test suite for the
invariant proof.  The failure is reported honestly rather than masked.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from bielliptic.lattice import (
    DivisorClass,
    MukaiVector,
    l_invariant,
    mukai_pairing,
    primitive_isotropic_in_series,
    pullback_canonical,
    square,
)
from bielliptic.moduli import SingClass, gieseker_report, singularity_report
from bielliptic.oracle import enumerate_equality_cases, min_codim_oracle
from bielliptic.stability import (
    EVERYWHERE,
    NOWHERE,
    GeometricStability,
    bayer_macri_class,
    locus_samples,
    slice_charge,
    wall_in_slice,
)
from bielliptic.surfaces import all_types, surface_invariants
from bielliptic.transforms import (
    DUAL,
    ORD3_B_MOVE,
    PHI,
    PHI_INV,
    PSI,
    PSI_DUAL_MOVE,
    PSI_INV,
    SHIFT,
    TYPE6_A_MOVE,
    apply_transform,
    count_rank_reducing,
    matches_reduced_form,
    reduce_to_table,
)
from bielliptic.walls import (
    approximate_isotropic_full_l,
    classify_wall,
    hn_codim_bound,
    saturate_lattice,
)
from bielliptic.errors import NotHyperbolicError, PreconditionError

from conftest import FIXTURES


def _report(n: int, description: str, ok: bool, detail: str = ""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _random_primitive(rng, rmax=40, cmax=40):
    while True:
        v = MukaiVector.of(
            rng.randint(1, rmax),
            rng.randint(-cmax, cmax),
            rng.randint(-cmax, cmax),
            rng.randint(-cmax, cmax),
        )
        if v.is_primitive():
            return v


def test_criterion_1_reduced_form_table():
    rng = random.Random(101)
    start = time.perf_counter()
    failures = {t: 0 for t in all_types()}
    sample_failure = None
    for t in all_types():
        for _ in range(1000):
            v = _random_primitive(rng)
            v0, log = reduce_to_table(t, v)
            assert log.replay(t, v) == v0
            assert square(v0) == square(v)
            assert v0.is_primitive()
            assert count_rank_reducing(t, v, log) <= v.r
            if not matches_reduced_form(t, v0):
                failures[t] += 1
                if sample_failure is None:
                    sample_failure = (t, v.text(), v0.text())
    elapsed = time.perf_counter() - start
    ok = all(n == 0 for n in failures.values()) and elapsed < 5.0
    detail = f"elapsed {elapsed:.2f}s; non-row outcomes by type {failures}"
    if sample_failure:
        detail += (
            f"; e.g. type {sample_failure[0]}: {sample_failure[1]} -> "
            f"{sample_failure[2]} (the irreducible type-6 residue class "
            "3 | r, (a, b) = +-(1, 2) mod 3; see README, \"Known limitation: one "
            "irreducible residue class on type 6\")"
        )
    _report(1, "reduced-form table reproduction, 1000 vectors per type", ok, detail)


def test_criterion_2_case_enumeration_fixtures():
    start = time.perf_counter()
    diffs = {}
    for m in (2, 3, 4, 6):
        for target in (0, 1):
            with open(FIXTURES / f"equality_cases_m{m}_t{target}.json") as fh:
                want = {
                    (c["l1"], c["l2"], c["q"], c["b1"], c["b2"])
                    for c in json.load(fh)["cases"]
                }
            got = {
                (c.l1, c.l2, c.q, c.b1, c.b2)
                for c in enumerate_equality_cases(m, target, bound=8)
            }
            if got != want:
                diffs[(m, target)] = (sorted(got - want), sorted(want - got))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "equality-case enumeration matches the golden fixtures",
        not diffs and elapsed < 1.0,
        f"elapsed {elapsed:.2f}s" + (f"; diffs {diffs}" if diffs else ""),
    )


def test_criterion_3_named_wall_instances():
    problems = []

    def check(name, t, v, w, want_labels, want_tss):
        H = saturate_lattice(t, MukaiVector.of(*v), MukaiVector.of(*w))
        c = classify_wall(H)
        if c.labels != frozenset(want_labels) or c.totally_semistable != want_tss:
            problems.append((name, sorted(c.labels), c.totally_semistable))

    check("fake wall n=1", 1, (1, 0, 0, -1), (0, 0, 0, 1), {"FakeWall"}, True)
    for n in range(2, 7):
        check(
            f"hilbert-chow n={n}",
            1,
            (1, 0, 0, -n),
            (0, 0, 0, 1),
            {"HilbertChowDivisorial"},
            True,
        )
    check("p1 fibration", 1, (2, 0, 1, -1), (0, 0, 0, 1), {"P1Fibration"}, True)
    check("no wall", 1, (2, 1, 2, 0), (0, 1, -2, 1), {"NoWall"}, False)
    _report(3, "named wall instances carry exactly the expected labels", not problems, str(problems))


_ISOTROPIC_TABLE = {
    1: [(1, 0, 0, 0), (2, 0, 1, 0)],
    2: [(1, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0), (4, 2, 2, 1)],
    3: [(1, 0, 0, 0), (4, 0, 1, 0), (2, 0, 1, 0)],
    4: [(1, 0, 0, 0), (2, 1, 0, 0), (4, 0, 1, 0), (2, 0, 1, 0), (8, 4, 2, 1), (4, 2, 2, 1)],
    5: [(1, 0, 0, 0), (3, 0, 1, 0)],
    6: [(1, 0, 0, 0), (3, 1, 0, 0), (3, 0, 1, 0), (3, 0, 2, 0), (9, 3, 3, 1)],
    7: [(1, 0, 0, 0), (6, 0, 1, 0), (3, 0, 1, 0), (2, 0, 1, 0), (5, 0, 2, 0), (7, 0, 3, 0)],
}


def test_criterion_4_nonemptiness_grid():
    start = time.perf_counter()
    problems = []
    for t, rows in _ISOTROPIC_TABLE.items():
        ordk = surface_invariants(t).ord_k
        for row in rows:
            u = MukaiVector.of(*row)
            assert square(u) == 0 and u.is_primitive()
            lu = l_invariant(t, u)
            for n in range(1, 7):
                rep = gieseker_report(t, n * u)
                want_mus = ordk % (n * lu) == 0
                want_dim = (2 if n * lu == ordk else 1) if want_mus else None
                if not rep.muss_nonempty or rep.mus_nonempty != want_mus or rep.stable_dimension != want_dim:
                    problems.append((t, row, n))
    # the worked instance: type 3, u = (2, B0, 0)
    rep1 = gieseker_report(3, MukaiVector.of(2, 0, 1, 0))
    rep2 = gieseker_report(3, MukaiVector.of(4, 0, 2, 0))
    rep3 = gieseker_report(3, MukaiVector.of(6, 0, 3, 0))
    spot = (
        rep1.mus_nonempty
        and rep1.stable_dimension == 1
        and rep2.mus_nonempty
        and rep2.stable_dimension == 2
        and not rep3.mus_nonempty
    )
    elapsed = time.perf_counter() - start
    _report(
        4,
        "non-emptiness grid over the primitive isotropic rows",
        not problems and spot and elapsed < 1.0,
        f"elapsed {elapsed:.2f}s" + (f"; problems {problems}" if problems else ""),
    )


def _steps_for_type(t, rng):
    d = surface_invariants(t)
    steps = [
        DivisorClass(rng.randint(-5, 5), rng.randint(-5, 5)),
        DUAL,
        SHIFT,
        PHI,
        PHI_INV,
        PSI,
        PSI_INV,
    ]
    if d.lam == 3:
        steps.append(TYPE6_A_MOVE)
    if d.ord_k == 3:
        steps.append(ORD3_B_MOVE)
    if d.ord_k in (4, 6):
        steps.append(PSI_DUAL_MOVE)
    return steps


def test_criterion_5_invariant_suite():
    rng = random.Random(505)
    start = time.perf_counter()
    N = 10_000

    def rv(c=20):
        return MukaiVector.of(*(rng.randint(-c, c) for _ in range(4)))

    # pairing bilinearity and symmetry
    for _ in range(N):
        u, v, w = rv(), rv(), rv()
        c = rng.randint(-5, 5)
        assert mukai_pairing(v, w) == mukai_pairing(w, v)
        assert mukai_pairing(u + c * v, w) == mukai_pairing(u, w) + c * mukai_pairing(v, w)

    # isometry of every step kind, >= N checks per kind
    kinds = {}
    while min(kinds.values(), default=0) < N or len(kinds) < 10:
        t = rng.choice(all_types())
        for step in _steps_for_type(t, rng):
            key = step if not isinstance(step, DivisorClass) else "twist"
            v, w = rv(8), rv(8)
            assert mukai_pairing(
                apply_transform(t, step, v), apply_transform(t, step, w)
            ) == mukai_pairing(v, w)
            kinds[key] = kinds.get(key, 0) + 1

    # l-invariant divides ord and the cover quotient is primitive
    for _ in range(N):
        t = rng.choice(all_types())
        v = _random_primitive(rng, rmax=30, cmax=30)
        l = l_invariant(t, v)
        assert surface_invariants(t).ord_k % l == 0
        assert pullback_canonical(t, v).content() == l

    # pairing scaling under the canonical pullback
    for _ in range(N):
        t = rng.choice(all_types())
        v, w = rv(), rv()
        assert pullback_canonical(t, v).pairing(pullback_canonical(t, w)) == (
            surface_invariants(t).ord_k * mukai_pairing(v, w)
        )

    # series divisibility
    for _ in range(N):
        r = rng.randint(1, 15)
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        if gcd(gcd(r, a), b) != 1:
            continue
        u = primitive_isotropic_in_series(r, DivisorClass(a, b))
        n_, s_ = rng.randint(-6, 6), rng.randint(-20, 20)
        assert mukai_pairing(u, MukaiVector.of(n_ * r, n_ * a, n_ * b, s_)) % r == 0

    # filtration bound exceeds two on independent positive pairs
    count = 0
    while count < N:
        p1, p2 = rv(8), rv(8)
        if square(p1) <= 0 or square(p2) <= 0:
            continue
        if square(p1) * square(p2) - mukai_pairing(p1, p2) ** 2 >= 0:
            continue
        if mukai_pairing(p1, p2) < 0:
            continue
        assert hn_codim_bound(1, [p1, p2]) > 2
        count += 1

    # the numerical divisor class pairs to zero with its vector
    count = 0
    while count < N:
        t = rng.choice(all_types())
        v = rv(10)
        sigma = GeometricStability(
            DivisorClass(Fraction(rng.randint(-8, 8), rng.randint(1, 4)), Fraction(rng.randint(-8, 8), rng.randint(1, 4))),
            DivisorClass(Fraction(rng.randint(1, 8), rng.randint(1, 4)), Fraction(rng.randint(1, 8), rng.randint(1, 4))),
        )
        from bielliptic.stability import central_charge

        if central_charge(t, v, sigma).is_zero():
            continue
        xi = bayer_macri_class(t, v, sigma)
        assert mukai_pairing(xi, v) == 0
        count += 1

    # classifier / oracle agreement on random hyperbolic instances
    agreed = 0
    while agreed < 200:
        t = rng.choice(all_types())
        v = MukaiVector.of(rng.randint(1, 4), rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        w = MukaiVector.of(*(rng.randint(-4, 4) for _ in range(4)))
        if square(v) <= 0:
            continue
        try:
            H = saturate_lattice(t, v, w)
        except (PreconditionError, NotHyperbolicError):
            continue
        assert classify_wall(H).codim_bound == min_codim_oracle(H)
        agreed += 1

    elapsed = time.perf_counter() - start
    _report(5, "invariant suite (>= 10^4 random checks each)", elapsed < 30.0, f"elapsed {elapsed:.2f}s")


def test_criterion_6_wall_locus_exactness():
    rng = random.Random(606)
    start = time.perf_counter()
    instances = 0
    total_samples = 0
    while instances < 100:
        ha, hb = rng.randint(1, 4), rng.randint(1, 4)
        H0 = DivisorClass(ha, hb)
        if instances % 2 == 0:
            # a line instance: w vertical for the slice (rank 0, H0-degree 0)
            v = MukaiVector.of(rng.randint(1, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            w = MukaiVector.of(0, ha, -hb, rng.choice([-2, -1, 1, 2]))
        else:
            v = MukaiVector.of(*(rng.randint(-5, 5) for _ in range(4)))
            w = MukaiVector.of(*(rng.randint(-5, 5) for _ in range(4)))
        try:
            locus = wall_in_slice(1, v, w, H0)
        except PreconditionError:
            continue
        instances += 1
        if locus is EVERYWHERE or locus is NOWHERE:
            continue
        for x, y in locus_samples(locus, 4):
            assert y > 0
            zv = slice_charge(1, v, H0, x, y)
            zw = slice_charge(1, w, H0, x, y)
            assert (zw * zv.conj()).im == 0
            total_samples += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        "wall-locus sample points satisfy the exact alignment condition",
        total_samples >= 100 and elapsed < 5.0,
        f"{total_samples} exact samples over 100 instances, elapsed {elapsed:.2f}s",
    )


def test_criterion_7_isotropic_approximation():
    start = time.perf_counter()
    seeds = [
        (t, MukaiVector.of(*row))
        for t, rows in _ISOTROPIC_TABLE.items()
        for row in rows
    ][:20]
    assert len(seeds) == 20
    problems = []
    for t, w in seeds:
        ordk = surface_invariants(t).ord_k
        prev = None
        for n in range(1, 21):
            v0, gap = approximate_isotropic_full_l(t, w, n)
            if square(v0) != 0 or not v0.is_primitive() or l_invariant(t, v0) != ordk:
                problems.append((t, w.text(), n, "postcondition"))
                break
            if prev is not None and gap > prev:
                problems.append((t, w.text(), n, "monotonicity"))
                break
            prev = gap
    elapsed = time.perf_counter() - start
    _report(
        7,
        "isotropic approximation on 20 seeds, n = 1..20",
        not problems and elapsed < 5.0,
        f"elapsed {elapsed:.2f}s" + (f"; problems {problems}" if problems else ""),
    )


_SINGULARITY_GRID = [
    # (type, vector, expected ordered case classes)
    (1, (1, 0, 0, -1), [SingClass.POSSIBLY_NON_NORMAL]),
    (1, (2, 0, 1, -1), [SingClass.POSSIBLY_NON_NORMAL, SingClass.TERMINAL_LCI]),
    (5, (1, 0, 0, -1), [SingClass.POSSIBLY_NON_NORMAL]),
    (5, (1, 0, 0, -2), [SingClass.NORMAL_GORENSTEIN_TORSION_K]),
    (5, (3, 0, 1, -1), [SingClass.NORMAL_GORENSTEIN_TORSION_K, SingClass.CANONICAL]),
    (5, (1, 0, 0, -4), [SingClass.CANONICAL, SingClass.TERMINAL_LCI]),
    (3, (1, 0, 0, -1), [SingClass.POSSIBLY_NON_NORMAL]),
    (3, (1, 0, 0, -2), [SingClass.CANONICAL, SingClass.NORMAL_GORENSTEIN_TORSION_K]),
    (3, (1, 0, 0, -3), [SingClass.TERMINAL_LCI, SingClass.CANONICAL]),
    (3, (1, 0, 0, -4), [SingClass.TERMINAL_LCI]),
    (3, (1, 0, 0, -5), [SingClass.TERMINAL_LCI]),
    (7, (1, 0, 0, -1), [SingClass.SMOOTH]),
    (7, (1, 0, 0, -2), [SingClass.CANONICAL, SingClass.NORMAL_GORENSTEIN_TORSION_K]),
    (7, (1, 0, 0, -3), [SingClass.TERMINAL_LCI, SingClass.CANONICAL]),
    (7, (1, 0, 0, -4), [SingClass.TERMINAL_LCI]),
    (7, (1, 0, 0, -5), [SingClass.TERMINAL_LCI]),
    (7, (1, 0, 0, -6), [SingClass.TERMINAL_LCI]),
    (7, (1, 0, 0, -7), [SingClass.TERMINAL_LCI]),
    (7, (1, 0, 0, -8), [SingClass.TERMINAL_LCI]),
]


def test_criterion_8_singularity_table():
    problems = []
    for t, vec, want in _SINGULARITY_GRID:
        rep = singularity_report(t, MukaiVector.of(*vec))
        got = [c.klass for c in rep.cases]
        if got != want:
            problems.append((t, vec, [c.value for c in got]))
    # unconditional terminal class at and beyond the threshold
    for t in all_types():
        ordk = surface_invariants(t).ord_k
        for v2 in range(3 * ordk + (3 * ordk) % 2, 3 * ordk + 12, 2):
            rep = singularity_report(t, MukaiVector.of(1, 0, 0, -v2 // 2))
            if [c.klass for c in rep.cases] != [SingClass.TERMINAL_LCI]:
                problems.append((t, v2, "threshold"))
    _report(8, "singularity verdicts match the transcription grid", not problems, str(problems))
