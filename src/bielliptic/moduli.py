"""Non-emptiness, dimension, and singularity reports from lattice data.

A positive-rank class v = n * v_p (v_p primitive) has nonempty slope-
semistable moduli iff v^2 >= 0; the stable locus is nonempty for
v_p^2 > 0 (dimension v^2 + 1) and, in the isotropic case, exactly when
n * l(v_p) divides ord(K), with dimension 2 at equality and 1 below it.

Singularities below the terminal threshold v^2 >= 3*ord(K) depend on
cover data that the class alone does not determine, so the report emits
condition-labelled cases; cases whose decidable necessary divisibility
fails for the given class are pruned.
"""

from fractions import Fraction
from enum import Enum

from bielliptic.errors import PreconditionError
from bielliptic.lattice import MukaiVector, l_invariant, l_invariant_any, square
from bielliptic.surfaces import surface_invariants
from bielliptic.transforms import ExceptionalKind, detect_exceptional
from bielliptic.values import Value


class NonEmptinessReport(Value):
    __slots__ = ("muss_nonempty", "mus_nonempty", "stable_dimension", "exceptional", "notes")

    def __init__(
        self, muss_nonempty: bool, mus_nonempty: bool, stable_dimension: int | None,
        exceptional: ExceptionalKind | None, notes: tuple[str, ...],
    ):
        self.muss_nonempty = muss_nonempty
        self.mus_nonempty = mus_nonempty
        self.stable_dimension = stable_dimension
        self.exceptional = exceptional
        self.notes = notes


_POSITIVE_NOTES = (
    "codim(semistable \\ stable) >= 2",
    "codim(slope-semistable \\ semistable) >= 1",
    "codim(stable \\ slope-stable) >= 1",
)


def gieseker_report(t: int, v: MukaiVector) -> NonEmptinessReport:
    """Slope-stability non-emptiness and dimension for a positive-rank class."""
    if v.r < 1:
        raise PreconditionError(f"report needs rank >= 1, got {v.r}")
    data = surface_invariants(t)
    n, vp = v.primitive_part()
    vp2 = square(vp)
    if vp2 < 0:
        return NonEmptinessReport(
            muss_nonempty=False,
            mus_nonempty=False,
            stable_dimension=None,
            exceptional=None,
            notes=("square below the Bogomolov bound; no semistable sheaves",),
        )
    if vp2 > 0:
        exc = detect_exceptional(t, v)
        notes = _POSITIVE_NOTES + (
            (
                "slope-stable locally free sheaves exist in every component "
                "for rank > 1",
            )
            if exc is None
            else (
                f"exceptional family {exc.value}: one component consists of "
                "non-locally-free sheaves; others contain locally free ones",
            )
        )
        return NonEmptinessReport(
            muss_nonempty=True,
            mus_nonempty=True,
            stable_dimension=square(v) + 1,
            exceptional=exc,
            notes=notes,
        )
    # isotropic primitive part
    nl = n * l_invariant(t, vp)
    stable = data.ord_k % nl == 0
    dim = None
    if stable:
        dim = 2 if nl == data.ord_k else 1
    return NonEmptinessReport(
        muss_nonempty=True,
        mus_nonempty=stable,
        stable_dimension=dim,
        exceptional=None,
        notes=(
            "isotropic class: semistable = slope-semistable; stable points "
            "are slope-stable locally free sheaves",
        ),
    )


def bridgeland_nonempty(t: int, v: MukaiVector) -> bool:
    """Nonempty moduli of semistable objects iff v^2 >= 0."""
    surface_invariants(t)
    return square(v) >= 0


class SingClass(Enum):
    SMOOTH = "Smooth"
    TERMINAL_LCI = "TerminalLCI"
    CANONICAL = "Canonical"
    NORMAL_GORENSTEIN_TORSION_K = "NormalGorensteinTorsionK"
    POSSIBLY_NON_NORMAL = "PossiblyNonNormal"


class SingularityCase(Value):
    __slots__ = ("condition", "klass")

    def __init__(self, condition: str, klass: SingClass):
        self.condition = condition
        self.klass = klass


class SingularityReport(Value):
    __slots__ = ("cases", "sing_dim_bound")

    def __init__(self, cases: tuple[SingularityCase, ...], sing_dim_bound: Fraction):
        self.cases = cases
        self.sing_dim_bound = sing_dim_bound


# rows below the terminal threshold, keyed on (ord_k, v^2); an entry is
# (condition, class, required l(v) or None).  Conditions mentioning the
# cover sheaf F and the cyclic deck action g are not decidable from the
# class alone and are reported verbatim.  Every entry has a row with no
# l(v) condition, so a report always has a case.
_SMALL_CASE_TABLE: dict[tuple[int, int], list[tuple[str, SingClass, int | None]]] = {
    (2, 2): [
        ("cover summand forced isotropic with ext^1 = 2; codim Sing = 1", SingClass.POSSIBLY_NON_NORMAL, None),
    ],
    (2, 4): [
        ("pullback divisible by 2 and cover summand of square 2; codim Sing = 1", SingClass.POSSIBLY_NON_NORMAL, 2),
        ("cover summand isotropic: ext^1 = 4, codim Sing = 3", SingClass.TERMINAL_LCI, None),
    ],
    (3, 2): [
        ("cover summand forced isotropic with ext^1 = 1 = codim Sing", SingClass.POSSIBLY_NON_NORMAL, None),
    ],
    (3, 4): [
        ("cover summand isotropic, ext^1 = 2, codim Sing = 3", SingClass.NORMAL_GORENSTEIN_TORSION_K, None),
    ],
    (3, 6): [
        ("pullback divisible by 3, cover summand of square 2, ext^1 = 2", SingClass.NORMAL_GORENSTEIN_TORSION_K, 3),
        ("cover summand isotropic, ext^1 = 3 (c1(F).(c1(F) - g*c1(F)) = -3)", SingClass.CANONICAL, None),
    ],
    (3, 8): [
        ("cover summand of square 2, ext^1 = 3 (c1(F).(c1(F) - g*c1(F)) = -1)", SingClass.CANONICAL, None),
        ("cover summand isotropic, ext^1 = 4", SingClass.TERMINAL_LCI, None),
    ],
    (4, 2): [
        ("ext^1 pattern (1, 0); singular only when the order-2 deck fixes c1(F)", SingClass.POSSIBLY_NON_NORMAL, None),
    ],
    (4, 4): [
        ("ext^1 pattern (1, 2)", SingClass.CANONICAL, None),
        ("ext^1 pattern (2, 0): g^2 fixes c1(F), c1(F).(c1(F) - g*c1(F)) = -2", SingClass.NORMAL_GORENSTEIN_TORSION_K, None),
    ],
    (4, 6): [
        ("ext^1 pattern (1, 4) or (2, 2): total >= 4", SingClass.TERMINAL_LCI, None),
        ("ext^1 pattern (3, 0): g^2 fixes c1(F), c1(F).(c1(F) - g*c1(F)) = -3", SingClass.CANONICAL, None),
    ],
    (4, 8): [
        ("every ext^1 pattern reaches total >= 4", SingClass.TERMINAL_LCI, None),
    ],
    (4, 10): [
        ("every ext^1 pattern reaches total >= 4", SingClass.TERMINAL_LCI, None),
    ],
    (6, 2): [
        ("the only ext^1 pattern (1, 0, 0) is self-contradictory; no singular points", SingClass.SMOOTH, None),
    ],
    (6, 4): [
        ("g^2 fixes c1(F)", SingClass.CANONICAL, None),
        ("g^3 fixes c1(F)", SingClass.NORMAL_GORENSTEIN_TORSION_K, None),
    ],
    (6, 6): [
        ("generic ext^1 pattern: total >= 4", SingClass.TERMINAL_LCI, None),
        ("g^3 fixes c1(F) but g, g^2 do not", SingClass.CANONICAL, None),
    ],
    (6, 8): [
        ("every ext^1 pattern reaches total >= 4", SingClass.TERMINAL_LCI, None),
    ],
    (6, 10): [
        ("every ext^1 pattern reaches total >= 4", SingClass.TERMINAL_LCI, None),
    ],
    (6, 12): [
        ("every ext^1 pattern reaches total >= 4 (6 | pullback at equality)", SingClass.TERMINAL_LCI, None),
    ],
    (6, 14): [
        ("every ext^1 pattern reaches total >= 4", SingClass.TERMINAL_LCI, None),
    ],
    (6, 16): [
        ("every ext^1 pattern reaches total >= 4", SingClass.TERMINAL_LCI, None),
    ],
}


def _terminal_case(v2: int) -> SingularityCase:
    cond = "square >= 3*ord(K): terminal l.c.i. singularities, normal and Gorenstein"
    if v2 >= 6:
        cond += "; canonical class torsion (codim Sing >= 2)"
    return SingularityCase(cond, SingClass.TERMINAL_LCI)


def singularity_report(
    t: int, v: MukaiVector, generic_surface: bool = False
) -> SingularityReport:
    """Singularity classes of the stable locus for a primitive class."""
    if not v.is_primitive():
        raise PreconditionError(f"singularity report needs a primitive class, got {v.text()}")
    v2 = square(v)
    if v2 < 0:
        raise PreconditionError(f"needs v^2 >= 0, got {v2}")
    data = surface_invariants(t)
    ordk = data.ord_k
    bound = Fraction(v2 + 2 * ordk, ordk)

    if v2 == 0:
        return SingularityReport(
            cases=(
                SingularityCase(
                    "isotropic class: the stable locus is smooth of dimension 1 or 2",
                    SingClass.SMOOTH,
                ),
            ),
            sing_dim_bound=bound,
        )

    if v2 >= 3 * ordk:
        return SingularityReport(cases=(_terminal_case(v2),), sing_dim_bound=bound)

    lv = l_invariant_any(t, v)
    if generic_surface:
        exceptional = ordk in (2, 3) and v2 == 2 * ordk and lv == ordk
        if not exceptional:
            return SingularityReport(
                cases=(
                    SingularityCase(
                        "generic surface: terminal l.c.i. for every positive square "
                        "outside the exceptional divisibility cases",
                        SingClass.TERMINAL_LCI,
                    ),
                ),
                sing_dim_bound=bound,
            )
        # fall through: the generic exceptions keep their small-square rows

    rows = _SMALL_CASE_TABLE[(ordk, v2)]
    cases = tuple(
        SingularityCase(cond, klass)
        for cond, klass, need_l in rows
        if need_l is None or lv == need_l
    )
    return SingularityReport(cases=cases, sing_dim_bound=bound)
