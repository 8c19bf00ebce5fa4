"""Rank-2 hyperbolic wall lattices and the wall-type classification.

A wall lattice is the saturation of the span of v (v^2 > 0) and a second
class w; it carries two, or zero, rational isotropic rays.  The classifier
evaluates the totally-semistable tests and each contraction clause against
the rays' pairing and divisibility invariants, and reports the minimum of
the filtration-stratum codimension bound over v's effective decompositions
in the positive cone by a max-weight walk that lists none; the first one,
the Flopping / FakeWall witness, is walked for only when it is read.
classify_wall reads each ray of the lattice once, and the atlas's
classify_key each ray of a wall_key once; both share the clauses
(_ray_clauses), the walk on plain ints (_weight_walk) and the label of a
wall no ray labels (_refined).
"""

from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt

from bielliptic.errors import NotHyperbolicError, PreconditionError
from bielliptic.lattice import (
    DivisorClass,
    MukaiVector,
    l_invariant,
    l_invariant_any,
    mukai_pairing,
    primitive_isotropic_in_series,
    square,
)
from bielliptic.linalg import ext_gcd, saturation_basis
from bielliptic.surfaces import surface_invariants
from bielliptic.values import Value

# classification labels
HILBERT_CHOW = "HilbertChowDivisorial"
LGU = "LGUDivisorial"
LGU_ORD2 = "LGUOrd2Divisorial"
ORD2_EXCEPTIONAL = "Ord2ExceptionalDivisorial"
ORD3_EXCEPTIONAL = "Ord3ExceptionalDivisorial"
P1_FIBRATION = "P1Fibration"
FLOPPING = "Flopping"
FAKE_WALL = "FakeWall"
NO_WALL = "NoWall"
INDETERMINATE = "IndeterminateNonPrimitive"


class HyperbolicPair(Value):
    """Saturated rank-2 sublattice of signature (1,-1) containing v: a basis
    of (r, a, b, s) int tuples, wall_plane's (gram, rays) of it, and v's
    coordinates, v = vxy[0] * basis[0] + vxy[1] * basis[1]."""

    __slots__ = ("surface", "v", "basis", "gram", "rays", "vxy")

    def __init__(
        self,
        surface: int,
        v: MukaiVector,
        basis: tuple[tuple[int, ...], tuple[int, ...]],
        gram: tuple[tuple[int, int], tuple[int, int]],
        rays: tuple[tuple[int, int, int], ...],
        vxy: tuple[int, int],
    ):
        self.surface = surface
        self.v = v
        self.basis = basis
        self.gram = gram
        self.rays = rays
        self.vxy = vxy

    def det(self) -> int:
        (g11, g12), (_, g22) = self.gram
        return g11 * g22 - g12 * g12

    def from_coords(self, x: int, y: int) -> MukaiVector:
        (r1, a1, b1, s1), (r2, a2, b2, s2) = self.basis
        return MukaiVector(x * r1 + y * r2, x * a1 + y * a2, x * b1 + y * b2, x * s1 + y * s2)

    def q(self, xy: tuple[int, int]) -> int:
        (g11, g12), (_, g22) = self.gram
        x, y = xy
        return g11 * x * x + 2 * g12 * x * y + g22 * y * y

    def pair(self, xy: tuple[int, int], uv: tuple[int, int]) -> int:
        (g11, g12), (_, g22) = self.gram
        x, y = xy
        u, w = uv
        return g11 * x * u + g12 * (x * w + y * u) + g22 * y * w


def wall_plane(t: int, e1: tuple, e2: tuple):
    """(gram, rays) of a basis (e1, e2) of a saturated rank-2 lattice, on
    plain ints: rays lists (x, y, l(x*e1 + y*e2)) for each primitive
    isotropic direction (x, y), of either sign; it is empty when -det(gram)
    is not a perfect square (irrational directions) and None unless the
    lattice is hyperbolic (det(gram) < 0)."""
    (r1, a1, b1, s1), (r2, a2, b2, s2) = e1, e2
    g11, g22 = 2 * (a1 * b1 - r1 * s1), 2 * (a2 * b2 - r2 * s2)
    g12 = a1 * b2 + a2 * b1 - r1 * s2 - r2 * s1
    gram = ((g11, g12), (g12, g22))
    disc = g12 * g12 - g11 * g22
    if disc <= 0:
        return gram, None
    k = isqrt(disc)
    if k * k != disc:
        return gram, ()
    data = surface_invariants(t)
    ordk, mb = data.ord_k, data.ord_k // data.lam  # l(p) = gcd(r, a, mb*b, ordk*s)
    rays = []
    for x, y in [(1, 0), (-g22, 2 * g12)] if g11 == 0 else [(k - g12, g11), (-k - g12, g11)]:
        x, y = x // (d := gcd(x, y)), y // d
        l = gcd(x * r1 + y * r2, x * a1 + y * a2, mb * (x * b1 + y * b2), ordk * (x * s1 + y * s2))
        rays.append((x, y, l))
    return gram, tuple(rays)


def saturate_lattice(t: int, v: MukaiVector, w: MukaiVector) -> HyperbolicPair:
    """Saturation of span{v, w} with its wall_plane data; must be hyperbolic."""
    surface_invariants(t)
    r, a, b, s = vt = v.as_tuple()
    rows = saturation_basis([vt, w.as_tuple()])
    if len(rows) < 2:
        raise PreconditionError(f"{v.text()} and {w.text()} are collinear")
    v2 = 2 * (a * b - r * s)
    if v2 <= 0:
        raise PreconditionError(f"need v^2 > 0, got v^2 = {v2}")
    basis = (tuple(rows[0]), tuple(rows[1]))
    # saturation_basis starts with v / content(v)
    pair = HyperbolicPair(t, v, basis, *wall_plane(t, *basis), (gcd(r, a, b, s), 0))
    if pair.rays is None:
        raise NotHyperbolicError(
            f"span of {v.text()}, {w.text()} has Gram determinant {pair.det()} >= 0"
        )
    return pair


def isotropic_rays(H: HyperbolicPair) -> list[tuple[MukaiVector, int, int]]:
    """(u, <v, u>, l(u)) for the 0 or 2 primitive isotropic classes u with
    <v, u> > 0: H.rays oriented towards v, sorted by u, as classify_wall
    reads them, each once."""
    (g11, g12), (_, g22) = H.gram
    (vx, vy), ((r1, a1, b1, s1), (r2, a2, b2, s2)) = H.vxy, H.basis
    cA, cB = g11 * vx + g12 * vy, g12 * vx + g22 * vy  # <v, (x, y)> = cA*x + cB*y
    out = []
    for x, y, l in H.rays:
        if (q := cA * x + cB * y) < 0:
            x, y, q = -x, -y, -q
        out.append(((x * r1 + y * r2, x * a1 + y * a2, x * b1 + y * b2, x * s1 + y * s2), q, l))
    out.sort()  # by u: the two rays' u differ
    return [(MukaiVector(*u), q, l) for u, q, l in out]


def _positive_lines(gram, vxy: tuple[int, int], pairing_cap: int):
    """(g, e, n, t_range, first), or None when no line <v, p> <= pairing_cap
    holds a class p with q(p) >= 0.  With <v, (x, y)> = cA*x + cB*y and
    g = gcd(cA, cB), only the lines <v, p> = j*g hold lattice points, and
    those with q(p) >= 0 on the line j*g are j*e + t*n for t in t_range(j).
    Here cA*e_x + cB*e_y = g (extended gcd) and n = (cB, -cA)/g spans v's
    orthogonal complement, so q(n) < 0: q(j*e + t*n) is a concave
    quadratic in t, whose interval of nonnegative values isqrt gives exactly.

    first is the least j whose line holds such a class.  As
    q(j*e + t*n) = A t^2 + 2B tj + C j^2 (A = q(n) < 0, B = <e, n>,
    C = q(e)), it is the least denominator of a fraction t/j in the interval
    I between the roots of A x^2 + 2B x + C.  That is 1 if I holds an
    integer; else I lies in (f, f + 1), and x = f + 1/y maps it onto the
    interval of the concave form (A f^2 + 2B f + C, A f + B, A), of the same
    discriminant, taking t/j to j/(t - f*j).  The simplest fraction of a
    positive interval has both the least numerator and the least
    denominator, so the descent recurses, carrying the denominators (c, d)
    of the last two convergents, and first = c*m + d for the integer m of
    the interval where it stops, after O(log) steps (README, "The wall
    classifier").
    """
    (g11, g12), (_, g22) = gram
    vx, vy = vxy
    cA, cB = g11 * vx + g12 * vy, g12 * vx + g22 * vy
    g, ex, ey = ext_gcd(cA, cB)
    nx, ny = cB // g, -cA // g
    neg_n2 = -(g11 * nx * nx + 2 * g12 * nx * ny + g22 * ny * ny)
    assert neg_n2 > 0
    # q(j*e + t*n) = j^2 q(e) + 2 b t - neg_n2 t^2 with b = j <e, n>, so
    # q >= 0 iff |neg_n2 t - b| <= sqrt(j^2 D), D = <e, n>^2 - q(e) q(n);
    # that is -det(gram) det(e, n)^2, and det(e, n) = -1
    en = g11 * ex * nx + g12 * (ex * ny + ey * nx) + g22 * ey * ny
    D = g12 * g12 - g11 * g22
    s = isqrt(D)
    # m is the least integer >= the lower root (B - sqrt D) / -A
    A, B, C = -neg_n2, en, g11 * ex * ex + 2 * g12 * ex * ey + g22 * ey * ey
    c, d = 0, 1
    while (m := -((s - B) // -A)) * -A > B + s:
        f = m - 1
        A, B, C = A * f * f + 2 * B * f + C, A * f + B, A
        c, d = c * f + d, c
    first = c * m + d
    if first * g > pairing_cap:
        return None

    def t_range(j: int) -> range:
        b, s = j * en, isqrt(j * j * D)
        return range(-((s - b) // neg_n2), (b + s) // neg_n2 + 1)

    return g, (ex, ey), (nx, ny), t_range, first


def _positive_classes(gram, vxy: tuple[int, int], pairing_cap: int) -> list[tuple[int, int]]:
    """The p with q(p) >= 0 and 1 <= <v, p> <= pairing_cap, sorted by (x, y)."""
    lines = _positive_lines(gram, vxy, pairing_cap)
    if lines is None:
        return []
    g, (ex, ey), (nx, ny), t_range, first = lines
    return sorted(
        (j * ex + t * nx, j * ey + t * ny) for j in range(first, pairing_cap // g + 1) for t in t_range(j)
    )


def enumerate_decompositions(
    H: HyperbolicPair, max_parts: int = 4
) -> list[tuple[MukaiVector, ...]]:
    """All multisets of 2..max_parts positive-cone classes summing to v.

    Each part satisfies part^2 >= 0 and <v, part> > 0; the output order is
    deterministic (parts sorted inside a multiset, multisets sorted).
    Parts are chosen in candidate order; the last one is looked up from
    the remainder, and a branch stops once the remainder leaves the closed
    positive cone, which holds every sum of parts.  The list grows steeply
    with v^2; classify_wall does not build it, and the tests use it as the
    reference for _weight_walk and _witness_walk.
    """
    if max_parts < 2:
        raise PreconditionError(f"max_parts must be >= 2, got {max_parts}")
    vxy = H.vxy
    v2 = H.q(vxy)
    candidates = _positive_classes(H.gram, vxy, v2 - 1)
    index = {p: idx for idx, p in enumerate(candidates)}
    pairings = [H.pair(vxy, p) for p in candidates]
    results: list[tuple[tuple[int, int, int, int], ...]] = []

    def extend(start: int, remaining: tuple[int, int], pairing_left: int, chosen: list):
        if chosen and index.get(remaining, -1) >= start:
            parts = chosen + [remaining]
            results.append(tuple(sorted(H.from_coords(*p).as_tuple() for p in parts)))
        if len(chosen) + 2 > max_parts:
            return
        for idx in range(start, len(candidates)):
            k = pairings[idx]
            if k >= pairing_left:
                continue
            p = candidates[idx]
            rest = (remaining[0] - p[0], remaining[1] - p[1])
            if H.q(rest) < 0:
                continue
            extend(idx, rest, pairing_left - k, chosen + [p])

    extend(0, vxy, v2, [])
    return [
        tuple(MukaiVector.of(*part) for part in multiset)
        for multiset in sorted(results)
    ]


def hn_codim_bound(t: int, parts: list[MukaiVector]) -> int:
    """Sum of (part^2 - stack dim) plus the pairwise pairings.

    Positive-square parts contribute stack dimension part^2; an isotropic
    part b*u (u primitive) contributes floor(b * l(u) / ord_k).
    """
    data = surface_invariants(t)
    total = 0
    for p in parts:
        sq = square(p)
        if sq < 0:
            raise PreconditionError(f"part {p.text()} has negative square {sq}")
        if sq > 0:
            dim = sq
        else:
            b, u = p.primitive_part()
            dim = (b * l_invariant(t, u)) // data.ord_k
        total += sq - dim
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += mukai_pairing(parts[i], parts[j])
    return total


def _weight_walk(ordk: int, gram, vxy: tuple[int, int], v2: int, rays) -> int | None:
    """The minimum of hn_codim_bound over enumerate_decompositions(H, m), the
    same for every m >= 2, or None when that list is empty: H in any basis,
    v's coordinates vxy in it, and rays as wall_plane or wall_key gives them.

    Since sum_{i<j} <p_i, p_j> = (v^2 - sum p_i^2) / 2, a decomposition's
    bound is v^2/2 - sum w(p_i), with w(p) = p^2/2 for p^2 > 0 and
    w(b*u) = floor(b * l(u) / ord_k) = floor(l(b*u) / ord_k) for an
    isotropic part b*u, so the minimum bound is a maximum weight.  Two
    parts can be merged into one without lowering the weight if one of
    them, p, has p^2 > 0: w(p + q) = w(p) + q^2/2 + <p, q>, where
    <p, q> > 0 for q^2 > 0, and <p, b*u> >= b >= w(b*u) because <p, u> is a
    positive integer and l(u) divides ord_k.  Two isotropic parts on one
    ray can be merged too (floor is superadditive), and the lattice has at
    most two isotropic rays.  Hence some {p, v - p} with p positive and
    <v, p> = k <= v^2/2 has the maximum weight (q(v - p) = v^2 - 2k + q(p)).

    Stopping: on a line k < v^2/2, q(v - p) > 0 and the pair weighs
    v^2/2 - k + p^2, with p^2 <= k^2 / v^2 by reverse Cauchy-Schwarz, or
    v^2/2 - k + w(p) for p = b*u isotropic; as q = <v, u> >= 1 and
    l(u) <= ord_k, that does not grow with b, so u (on line q) weighs as
    much.  Once the best weight found is >= B(k) = v^2/2 - k +
    max(floor(k^2 / v^2), 1), which does not grow on k < v^2/2, no line
    from k to v^2/2 - 1 beats it, and the walk skips to the last line
    k = v^2/2.  That one it always walks: there both parts can be isotropic.
    The walk starts on the first line that holds a positive class; when
    that lies past v^2/2 the list is empty, since the smallest of the
    parts' pairings, which sum to v^2, is at most v^2/2.

    An isotropic p = (x, y) is b*u for a ray u and b = gcd(x, y), its
    content as H is saturated, so l(p) = b*l(u) comes off the rays.
    """
    (g11, g12), (_, g22) = gram
    vx, vy = vxy
    half = v2 // 2
    lines = _positive_lines(gram, vxy, half)
    if lines is None:  # no positive class on the lines <v, p> <= v^2/2
        return None
    g, (ex, ey), (nx, ny), t_range, j = lines
    most, last = -1, half // g
    while j <= last:
        k = j * g
        if most >= 0 and k < half and half - k + max(k * k // v2, 1) <= most:
            if half % g:  # no lattice point on the last line
                break
            j, k = last, half
        for t in t_range(j):
            x, y = j * ex + t * nx, j * ey + t * ny
            sq = g11 * x * x + 2 * g12 * x * y + g22 * y * y
            rest = v2 - 2 * k + sq
            w = (sq // 2 if sq else _w_iso(ordk, rays, x, y)) + (rest // 2 if rest else _w_iso(ordk, rays, vx - x, vy - y))
            if w > most:
                most = w
        j += 1
    return None if most < 0 else half - most


def _w_iso(ordk: int, rays, x: int, y: int) -> int:
    """w(p) of an isotropic p = (x, y) = b*u, u = +-(X, Y) of a ray in rays."""
    b = gcd(x, y)
    for X, Y, l, *_ in rays:
        if X * y == Y * x:  # (x, y) = +-b*(X, Y)
            return b * l // ordk


def _witness_walk(H: HyperbolicPair, max_parts: int) -> tuple[MukaiVector, ...] | None:
    """enumerate_decompositions(H, max_parts)[0], or None when that list is
    empty.  Its parts form C, the positive classes p with q(v - p) >= 0:
    C = half + (v - half), for half the positive classes with <v, p> <=
    v^2/2 (see _weight_walk; <v, p> + <v, v - p> = v^2).  C is closed
    under p -> v - p, so a remainder rem - c left by members rem and c can
    be completed exactly when it lies in C.  The walk builds the first
    decomposition in (r, a, b, s) order greedily: its next part is the
    smallest c that occurs in some completion of the remainder (c == rem,
    or rem - c in C with room for two more parts).  Every part of such a
    completion is >= the parts already chosen, so it never backtracks.
    """
    (r1, a1, b1, s1), (r2, a2, b2, s2) = H.basis
    vr, va, vb, vs = H.v.as_tuple()
    vx, vy = H.vxy
    # (r, a, b, s) of each member of C, keyed by coordinates
    rabs: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for x, y in _positive_classes(H.gram, H.vxy, square(H.v) // 2):
        pr, pa, pb, ps = x * r1 + y * r2, x * a1 + y * a2, x * b1 + y * b2, x * s1 + y * s2
        rabs[(x, y)] = (pr, pa, pb, ps)
        rabs[(vx - x, vy - y)] = (vr - pr, va - pa, vb - pb, vs - ps)
    if not rabs:
        return None
    order = sorted(rabs, key=rabs.__getitem__)
    first = []
    rem, left, idx = (vx, vy), max_parts, 0
    while True:
        c = order[idx]
        if c == rem:
            first.append(c)
            break
        rest = (rem[0] - c[0], rem[1] - c[1])
        if left >= 2 and rest in rabs:
            first.append(c)
            rem, left = rest, left - 1
        else:
            idx += 1
    return tuple(MukaiVector(*rabs[c]) for c in first)


class WallClassification:
    """`found` maps each label to its witnesses, the rays that fired it in
    the order of u, or to None for the Flopping / FakeWall witness, which
    `witnesses` walks for when first read; a caller that reads only the
    labels and the bound never pays for it.  A `codim_bound` of None encodes
    +infinity (no decomposition).  Immutable by convention."""

    def __init__(
        self, H: HyperbolicPair, max_parts: int, tss_witness: MukaiVector | None,
        found: dict[str, tuple[MukaiVector, ...] | None], codim_bound: int | None,
    ):
        self.H = H
        self.max_parts = max_parts
        self.tss_witness = tss_witness
        self.found = found
        self.codim_bound = codim_bound

    @property
    def totally_semistable(self) -> bool:
        return self.tss_witness is not None

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.found)

    @cached_property
    def witnesses(self) -> dict[str, tuple[MukaiVector, ...]]:  # label -> its witnesses
        return {
            label: _witness_walk(self.H, self.max_parts) if us is None else us
            for label, us in self.found.items()
        }

    def __eq__(self, other):  # equal results, whatever basis each H has
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = ("tss_witness", "witnesses", "codim_bound")
        return all(getattr(self, f) == getattr(other, f) for f in fields)


def _ray_clauses(ordk: int, v2: int, lv: int, q: int, l: int, bit: bool) -> tuple[int, list[str]]:
    """(tss, labels) of a primitive isotropic u with q = <v, u> > 0, l = l(u)
    and bit whether 3 | v - u: tss is 1 or 2 when u passes the first or the
    second totally-semistable test, else 0; labels are the clauses u fires."""
    if q > 3:  # every clause needs <v, u> <= 3
        return 0, []
    tss = 1 if q == 1 and l == ordk else 2 if v2 == 4 and q == 2 and l == ordk == 2 == lv else 0
    clauses = [
        (HILBERT_CHOW, tss == 1 and v2 >= 4),
        (LGU, q == 2 and l == ordk and (v2 > 4 or (v2 == 4 and ordk in (4, 6)))),
        (LGU_ORD2, q == 2 and l == 2 and v2 == 4 and ordk == 2 and lv == 1),
        (ORD2_EXCEPTIONAL, q == 3 and l == 2 and v2 == 6 and ordk == 2 and bit),
        (ORD3_EXCEPTIONAL, q == 3 and l == 3 and v2 == 6 and ordk == 3),
        (P1_FIBRATION, tss == 2),
    ]
    return tss, [label for label, fires in clauses if fires]


def _refined(primitive: bool, v2: int, codim: int | None) -> str:
    """The one label of a wall whose rays fire no clause: Flopping, FakeWall
    or NoWall for primitive v, by v^2 and the codimension bound, else
    IndeterminateNonPrimitive.  Clause labels may coexist: reducible moduli
    can have components with different behaviour."""
    if not primitive:
        return INDETERMINATE
    return NO_WALL if codim is None else FLOPPING if v2 >= 4 else FAKE_WALL


def classify_wall(H: HyperbolicPair, max_parts: int = 4) -> WallClassification:
    """The wall-type classification of H with each label's witnesses: the
    clauses of each ray of isotropic_rays, then the weight walk's bound."""
    t = H.surface
    ordk = surface_invariants(t).ord_k
    v = H.v
    v2 = 2 * (v.a * v.b - v.r * v.s)
    if v2 <= 0:
        raise PreconditionError(f"classification needs v^2 > 0, got {v2}")
    if max_parts < 2:
        raise PreconditionError(f"max_parts must be >= 2, got {max_parts}")
    rays = isotropic_rays(H) if H.rays else []
    lv = l_invariant_any(t, v) if rays else 0  # only the clauses on a ray read l(v)
    found = {}  # label -> the rays that witness it, in the order of u
    first = {}  # the first u of each tss kind; the witness passes test 1, else test 2
    for u, q, l in rays:
        bit = (v.r - u.r) % 3 == (v.a - u.a) % 3 == (v.b - u.b) % 3 == (v.s - u.s) % 3 == 0
        kind, names = _ray_clauses(ordk, v2, lv, q, l, bit)
        first.setdefault(kind, u)
        for label in names:
            found[label] = found.get(label, ()) + (u,)
    codim = _weight_walk(ordk, H.gram, H.vxy, v2, H.rays)  # None when v has no decomposition
    if not found:  # the Flopping / FakeWall witness is None, walked for when it is read
        label = _refined(gcd(*H.vxy) == 1, v2, codim)  # H is saturated
        found[label] = None if label in (FLOPPING, FAKE_WALL) else ()
    return WallClassification(H, max_parts, first.get(1, first.get(2)), found, codim)


def classify_key(t: int, key: tuple) -> tuple:
    """classify_wall's (totally_semistable, labels, codim_bound) for the walls
    with this wall_key, on its basis (v0, f): v = (c, 0), so v is primitive
    iff c = 1, each ray has <v, u> = c*(A*X + B*Y) > 0 and its mod-3 bit
    stored, and f^2 = (D + B^2) / A, as D = A*f^2 - B^2 and A = v0^2 > 0."""
    c, A, B, D, lv, rays = key
    ordk, v2 = surface_invariants(t).ord_k, c * c * A
    rows = [_ray_clauses(ordk, v2, lv, c * (A * X + B * Y), l, bit) for X, Y, l, bit in rays]
    codim = _weight_walk(ordk, ((A, B), (B, (D + B * B) // A)), (c, 0), v2, rays)
    labels = {label for _, names in rows for label in names}
    return any(kind for kind, _ in rows), labels or {_refined(c == 1, v2, codim)}, codim


def wall_key(gram, vxy: tuple[int, int], lv: int, rays) -> tuple:
    """The invariant (c, A, B, D, l(v), rays) of the wall of v in the
    saturated lattice H; on one type, its row is a function of it.

    gram and vxy give a basis of H and v in it, lv = l(v), rays as from
    wall_plane.  v = c*v0 with v0 primitive, (v0, f) a basis of H,
    A = v0^2, B = <v0, f> and D = det(gram).  f -> +-f + k*v0 moves B to
    +-B + k*A: take 0 <= B <= A/2 and, if both signs fit, the smaller key.
    A ray u with <v, u> > 0 gives its (X, Y) in (v0, f), l(u), and whether
    3 | v - u, i.e. c - X = Y = 0 mod 3 as H is saturated.  Proof: for one
    key, x*v0 + y*f -> x*v0' + y*f' is an isometry taking v to v' and b*u
    to b*u' with l(b*u) = b*l(u) = l(b*u'), so it keeps all the classifier
    reads: v^2 = c^2*A, l(v), primitivity (c = 1), each ray's <v, u>, l(u)
    and bit, and the search's weights q(p)/2 and l(p) // ord_k.  So
    classify_key reads the key's oriented rays and stored bits alone.
    """
    (g11, g12), (_, g22) = gram
    c, p, q = ext_gcd(*vxy)
    x0, y0 = vxy[0] // c, vxy[1] // c
    # f = (-q, p): det(v0, f) = 1, and (x, y) = X*v0 + Y*f for
    # X = p*x + q*y, Y = x0*y - y0*x; then f -> f - k*v0
    A = g11 * x0 * x0 + 2 * g12 * x0 * y0 + g22 * y0 * y0
    k, B = divmod(g12 * (x0 * p - y0 * q) - g11 * x0 * q + g22 * y0 * p, A)
    pts = []
    for x, y, l in rays:
        Y = x0 * y - y0 * x
        X = p * x + q * y + k * Y
        if A * X + B * Y < 0:
            X, Y = -X, -Y
        pts.append((X, Y, l, (c - X) % 3 == Y % 3 == 0))
    keys = [(B, sorted(pts))] if 2 * B <= A else []
    if 2 * B >= A or B == 0:  # f -> m*v0 - f moves B to m*A - B
        m = 1 if B else 0
        keys.append((m * A - B, sorted((X + m * Y, -Y, l, bit) for X, Y, l, bit in pts)))
    B, pts = min(keys)
    return c, A, B, g11 * g22 - g12 * g12, lv, tuple(pts)


# ---------------------------------------------------------------------------
# isotropic approximation with full divisibility


def _val(n: int, p: int) -> int:
    v = 0
    n = abs(n)
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def _full_l_candidate(t: int, r: int, Da: int, Db: int, index: int) -> MukaiVector:
    """One run of the two-stage congruence construction at the given index.

    Stage 1 approximates D/r by D1/r1 with r1 prime to 6 and D1a*D1b != 0;
    stage 2 takes ntil >= 1 with mod | N = ntil*r1 + 1 and returns the
    primitive isotropic vector on the ray through exp(ntil*D1/N).  Its l is
    ord_k: for p = 2, 3 with p | ord_k, p | mod | N, so p does not divide
    ntil; with D1 = c*D0 and g = gcd(N, c), the series multiplier n0 of
    (N/g, ntil*D1/g) has v_p(n0) = v_p(N) - v_p(c) - v_p(D0a*D0b), which is
    >= v_p(mod) - v_p(c) - v_p(D0a*D0b) = v_p(ord_k).  So ord_k | n0, and
    ord_k | r, ord_k | a and lam | ord_k | b.
    """
    ordk = surface_invariants(t).ord_k
    # stage 1: slope approximant whose reduced rank is coprime to 6
    M = 6 // gcd(r, 6)
    na, nb = M * index * Da, M * index * Db
    den = M * index * r + 1
    g = gcd(gcd(na, nb), den)
    d1a, d1b, r1 = na // g, nb // g, den // g
    # perturb onto a direction with both coefficients nonzero
    if d1a * d1b == 0:
        ea, eb = (1, 1) if (d1a, d1b) == (0, 0) else ((1, 0) if d1a == 0 else (0, 1))
        N = 6 * index + 1
        d1a, d1b, r1 = N * d1a + ea, N * d1b + eb, N * r1
        g = gcd(gcd(d1a, d1b), r1)
        d1a, d1b, r1 = d1a // g, d1b // g, r1 // g
    # stage 2: congruence construction forcing content ord_k upstairs
    x, y = _val(ordk, 2), _val(ordk, 3)
    c = gcd(d1a, d1b)
    i, j = _val(c, 2), _val(c, 3)
    ab = (d1a // c) * (d1b // c)  # D0a*D0b
    k, l = _val(ab, 2), _val(ab, 3)
    mod = 2 ** (x + i + k) * 3 ** (y + j + l)
    # r1 is prime to 6, so a unit mod 2^a 3^b: 6 | M*r makes den = 1 mod 6, the
    # perturbation's N = 1 mod 6 keeps that, and dividing by g cannot add 2 or 3
    ntil = mod - pow(r1, -1, mod)  # pow is in [0, mod), so ntil >= 1
    N = ntil * r1 + 1
    g = gcd(N, c)
    return primitive_isotropic_in_series(N // g, DivisorClass(ntil * d1a // g, ntil * d1b // g))


def approximate_isotropic_full_l(
    t: int, w: MukaiVector, n: int
) -> tuple[MukaiVector, Fraction]:
    """A primitive isotropic vector with content ord_k upstairs, on a ray
    close to the ray of w; the exact max-norm ray gap is nonincreasing in n.

    Candidates are produced by a slope approximant (denominator forced
    coprime to 6) followed by the 2^x 3^y congruence construction; the
    returned value is the best candidate over internal indices 1..n, which
    makes the gap monotone by construction.
    """
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if w.r < 1:
        raise PreconditionError(f"need rank >= 1, got {w.r}")
    if not w.is_primitive() or square(w) != 0:
        raise PreconditionError(f"seed must be primitive isotropic, got {w.text()}")
    target_a, target_b = Fraction(w.a, w.r), Fraction(w.b, w.r)

    def gap_of(v0: MukaiVector) -> Fraction:
        return max(
            abs(target_a - Fraction(v0.a, v0.r)), abs(target_b - Fraction(v0.b, v0.r))
        )

    best = min((_full_l_candidate(t, w.r, w.a, w.b, index) for index in range(1, n + 1)), key=gap_of)
    return best, gap_of(best)
