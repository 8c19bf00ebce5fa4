"""Brute-force re-derivation of the equality-case enumerations and an
independent cross-check for the wall classifier's codimension bound.

Nothing here imports the classifier's enumeration or arithmetic helpers:
the oracle works on raw 4-tuples with its own pairing and its own search,
so agreement between the two paths is meaningful.
"""

from math import gcd, isqrt

from bielliptic.errors import PreconditionError
from bielliptic.surfaces import surface_invariants
from bielliptic.values import Value

MAX_PARTS = 4  # most parts of a decomposition the search assembles (classify_wall's default)


def _floor_lhs(m: int, l1: int, l2: int, q: int, b1: int, b2: int) -> int:
    return -((b1 * l1) // m) - ((b2 * l2) // m) + b1 * b2 * q


class EqualityCase(Value):
    """One solution of the floor equation governing zero/one-codimension
    strata built from two isotropic rays u1, u2 (l1 <= l2 by convention).

        -floor(b1*l1/m) - floor(b2*l2/m) + b1*b2*q = target

    subject to the lattice consistency l1 | m, l2 | m and l1*l2 | m*q
    (the pullbacks satisfy m*q = l1*l2*<u1bar, u2bar> with an integral
    right-hand pairing).
    """

    __slots__ = ("m", "l1", "l2", "q", "b1", "b2", "target")

    def __init__(self, m: int, l1: int, l2: int, q: int, b1: int, b2: int, target: int):
        self.m, self.l1, self.l2, self.q, self.b1, self.b2, self.target = m, l1, l2, q, b1, b2, target


def enumerate_equality_cases(m: int, target: int, bound: int = 8) -> list[EqualityCase]:
    """Exhaustive scan of all consistent solutions with b1, b2, q <= bound.

    Canonical form: l1 < l2, or l1 == l2 and b1 <= b2 (the two rays play
    symmetric roles).  The scan runs in (l1, l2, q, b1, b2) order, so the
    output is sorted by those fields.

    For fixed (l1, l2, q, b1) the left side never falls as b2 grows: a step
    of b2 adds b1*q >= 1, and as l2 | m, floor(b2*l2/m) grows by at most 1.
    So each b2 run stops at the first b2 whose left side overshoots target.
    A run's first left side, at b2 = 1 (l1 < l2) or b2 = b1 (l1 = l2), never
    falls as b1 grows either: a step of b1 adds q >= 1 (l1 < l2) or
    (2*b1 + 1)*q >= 3 (l1 = l2), and as l1 | m each floor grows by at most 1;
    so an overshoot at a run's first b2 ends the b1 loop.  At b1 = b2 = 1 the
    left side is q minus a constant, so an overshoot there ends the q loop.
    """
    if m not in (2, 3, 4, 6):
        raise PreconditionError(f"m must be one of 2, 3, 4, 6, got {m}")
    if target not in (0, 1):
        raise PreconditionError(f"target must be 0 or 1, got {target}")
    if bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
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
                    first = b1 if l1 == l2 else 1
                    for b2 in range(first, bound + 1):
                        lhs = _floor_lhs(m, l1, l2, q, b1, b2)
                        if lhs > target:
                            break
                        if lhs == target:
                            out.append(EqualityCase(m, l1, l2, q, b1, b2, target))
                    if lhs > target and b2 == first:
                        break  # a run's first b2 overshot: so does every later b1's
                if lhs > target and b1 == b2 == 1:
                    break  # and at b1 = 1: so does every later q's
    return out


# ---------------------------------------------------------------------------
# independent codimension oracle


def _pair4(p, w):
    return p[1] * w[2] + w[1] * p[2] - p[0] * w[3] - w[0] * p[3]


def _content4(p):
    return gcd(gcd(p[0], p[1]), gcd(p[2], p[3]))


def _l_of(t, p):
    d = surface_invariants(t)
    return gcd(gcd(p[0], p[1]), gcd((d.ord_k // d.lam) * p[2], d.ord_k * p[3]))


def _stack_dim(t, p):
    sq = _pair4(p, p)
    if sq > 0:
        return sq
    c = _content4(p)
    u = tuple(x // c for x in p)
    return (c * _l_of(t, u)) // surface_invariants(t).ord_k


def _codim_of(t, parts):
    total = 0
    for p in parts:
        total += _pair4(p, p) - _stack_dim(t, p)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            total += _pair4(parts[i], parts[j])
    return total


def min_codim_oracle(H) -> int | None:
    """Naive recomputation of the classifier's codimension bound.

    The positive-cone classes are enumerated per pairing value k: the line
    <v, p> = k meets the closed positive cone in a segment centred at the
    projection (k/v^2) v, whose half-width along the null direction n of
    the line is k / sqrt(v^2 * (-q(n))); integer points are scanned over
    that (slightly padded) range of x.  For p = x*e1 + y*e2 the line is
    <v, e1>*x + <v, e2>*y = k, so x fixes y once <v, e2> != 0: the basis is
    swapped when <v, e2> = 0, as v^2 > 0 rules out <v, e1> = 0 too.  So a
    point, on its one line k = <v, p>, is met once.  Every pairing <v, p> is
    a multiple of g = gcd(<v, e1>, <v, e2>), so only the lines k = g, 2g, ...
    below v^2 can hold a class, and only those are read: on a swapped wall
    g = v^2 / content(v), which leaves content(v) - 1 lines of v^2 - 1.
    A depth-first search then assembles sum decompositions, whatever the
    basis order, and minimizes the codimension formula recomputed from
    scratch.  Returns None when no decomposition exists.
    """
    t = H.surface
    e1, e2 = H.basis
    v = H.v.as_tuple()
    if _pair4(e2, v) == 0:
        e1, e2 = e2, e1
    g11, g12, g22 = _pair4(e1, e1), _pair4(e1, e2), _pair4(e2, e2)
    det = g11 * g22 - g12 * g12
    # <v, (x, y)> = cA * x + cB * y
    cA, cB = _pair4(e1, v), _pair4(e2, v)
    # coordinates of v from the Gram system, by Cramer
    vx = (cA * g22 - cB * g12) // det
    vy = (g11 * cB - g12 * cA) // det
    v2 = _pair4(v, v)

    def vec(x, y):
        return tuple(x * a + y * b for a, b in zip(e1, e2))

    def form(x, y):
        return g11 * x * x + 2 * g12 * x * y + g22 * y * y

    # direction along the lines of constant pairing; negative square
    nx, ny = cB, -cA
    qn = form(nx, ny)
    assert qn < 0
    denom_root = isqrt(v2 * (-qn))
    candidates = []
    g = gcd(cA, cB)
    for k in range(g, v2, g):
        # segment centre (k/v2) * (vx, vy), half width k/sqrt(v2 * -qn) in t,
        # displacement (t*nx, t*ny); pad the integer scan by one on each side
        steps = k // denom_root + 2
        x_lo = (k * vx) // v2 - abs(nx) * steps - 1
        x_hi = -((-k * vx) // v2) + abs(nx) * steps + 1
        for x in range(x_lo, x_hi + 1):
            num = k - cA * x
            if num % cB:
                continue
            y = num // cB
            if form(x, y) >= 0:
                candidates.append(((x, y), k))
    candidates.sort()

    best: list[int | None] = [None]

    def search(start, rem_x, rem_y, rem_pairing, chosen):
        if len(chosen) >= 2 and rem_x == 0 and rem_y == 0:
            parts = [vec(x, y) for x, y in chosen]
            c = _codim_of(t, parts)
            if best[0] is None or c < best[0]:
                best[0] = c
        if len(chosen) >= MAX_PARTS:
            return
        for idx in range(start, len(candidates)):
            (x, y), k = candidates[idx]
            if k > rem_pairing:
                continue
            search(idx, rem_x - x, rem_y - y, rem_pairing - k, chosen + [(x, y)])

    search(0, vx, vy, v2, [])
    return best[0]
