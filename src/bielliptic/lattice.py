"""The algebraic Mukai lattice of a bielliptic surface and its canonical cover.

Num(S) = Z[A0] + Z[B0] with A0.B0 = 1 and A0^2 = B0^2 = 0, so a divisor
class is a pair (a, b) and a Mukai vector is (r, a*A0 + b*B0, s) with
pairing <v, w> = (a*b' + a'*b) - r*s' - r'*s.  Entries are ints, except where
a stability parameter makes them fractions.Fraction; never floats.
"""

from math import gcd

from bielliptic.errors import PreconditionError
from bielliptic.surfaces import surface_invariants
from bielliptic.values import Value


class DivisorClass(Value):
    """Divisor class a*A0 + b*B0 in Num(S), ints or Fractions."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def dot(self, other: "DivisorClass") -> int:
        return self.a * other.b + other.a * self.b

    def self_int(self) -> int:
        """D^2 = 2ab, even when D is integral."""
        return 2 * self.a * self.b

    def is_ample(self) -> bool:
        return self.a > 0 and self.b > 0


class MukaiVector(Value):
    """Mukai vector (r, a*A0 + b*B0, s) = (rank, c1, ch2 term).

    Four ints, or Fractions where a stability parameter made it; content,
    is_primitive, primitive_part, text and parse need integral entries.
    """

    __slots__ = ("r", "a", "b", "s")

    def __init__(self, r: int, a: int, b: int, s: int):
        self.r = r
        self.a = a
        self.b = b
        self.s = s

    @classmethod
    def of(cls, r: int, a: int, b: int, s: int) -> "MukaiVector":
        return cls(r, a, b, s)

    def __repr__(self) -> str:
        return f"MukaiVector({self.r}, {self.a}, {self.b}, {self.s})"

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.r, self.a, self.b, self.s)

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.a + other.a, self.b + other.b, self.s + other.s)

    def __rmul__(self, n: int) -> "MukaiVector":
        return MukaiVector(n * self.r, n * self.a, n * self.b, n * self.s)

    def content(self) -> int:
        """gcd of the four coordinates (0 for the zero vector)."""
        return gcd(self.r, self.a, self.b, self.s)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def primitive_part(self) -> tuple[int, "MukaiVector"]:
        """Write v = n * v_p with v_p primitive; returns (n, v_p)."""
        n = self.content()
        if n == 0:
            raise PreconditionError("zero vector has no primitive part")
        return n, MukaiVector(self.r // n, self.a // n, self.b // n, self.s // n)

    def text(self) -> str:
        """Wire format: four comma-separated integers r,a,b,s."""
        return f"{self.r},{self.a},{self.b},{self.s}"

    @classmethod
    def parse(cls, text: str) -> "MukaiVector":
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected r,a,b,s with four entries, got {text!r}")
        r, a, b, s = (int(p.strip()) for p in parts)
        return cls(r, a, b, s)


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> int:
    """<v, w> = c1(v).c1(w) - r(v) s(w) - r(w) s(v)."""
    return v.a * w.b + w.a * v.b - v.r * w.s - w.r * v.s


def square(v: MukaiVector) -> int:
    return mukai_pairing(v, v)


def primitive_isotropic_in_series(r: int, D: DivisorClass) -> MukaiVector:
    """The unique primitive isotropic vector (n*r, n*D, s) in the series.

    Requires r >= 1 and gcd(r, a, b) = 1.  n is the least positive integer
    making s = n * D^2 / (2r) = n*a*b/r integral; minimality forces the
    result primitive.
    """
    if r < 1:
        raise PreconditionError(f"need r >= 1, got {r}")
    if gcd(gcd(r, D.a), D.b) != 1:
        raise PreconditionError(f"need gcd(r, a, b) = 1, got r={r}, D=({D.a},{D.b})")
    ab = D.a * D.b
    n0 = r // gcd(r, ab) if ab != 0 else 1
    s0 = n0 * ab // r
    return MukaiVector.of(n0 * r, n0 * D.a, n0 * D.b, s0)


# ---------------------------------------------------------------------------
# canonical cover


class CoverMukaiVector(Value):
    """Mukai vector (r, alpha*A_X + beta*B_X, s) on the canonical cover X.

    The cover intersection form has A_X.B_X = lam, so
    <u, u'> = lam*(alpha*beta' + alpha'*beta) - r*s' - r'*s.
    """

    __slots__ = ("r", "alpha", "beta", "s", "lam")

    def __init__(self, r: int, alpha: int, beta: int, s: int, lam: int):
        self.r, self.alpha, self.beta, self.s, self.lam = r, alpha, beta, s, lam

    def pairing(self, other: "CoverMukaiVector") -> int:
        if self.lam != other.lam:
            raise PreconditionError("cover vectors live on different covers")
        return (
            self.lam * (self.alpha * other.beta + other.alpha * self.beta)
            - self.r * other.s
            - other.r * self.s
        )

    def content(self) -> int:
        return gcd(gcd(self.r, self.alpha), gcd(self.beta, self.s))


def l_invariant(t: int, v: MukaiVector) -> int:
    """gcd of the coordinates of the pullback of a primitive v to the cover.

    Divides ord(K); the pullback divided by it is primitive.
    """
    if not v.is_primitive():
        raise PreconditionError(f"l-invariant is defined for primitive vectors, got {v.text()}")
    return l_invariant_any(t, v)


def l_invariant_any(t: int, v: MukaiVector) -> int:
    """Content of the pullback for an arbitrary nonzero vector."""
    d = surface_invariants(t)
    return gcd(
        gcd(v.r, v.a), gcd((d.ord_k // d.lam) * v.b, d.ord_k * v.s)
    )


def pullback_canonical(t: int, v: MukaiVector) -> CoverMukaiVector:
    """Pullback along the degree-ord(K) canonical cover X -> S.

    A0 pulls back to A_X, B0 to (ord/lam)*B_X, the point class scales by
    ord(K); the pairing scales by ord(K).
    """
    d = surface_invariants(t)
    return CoverMukaiVector(
        r=v.r,
        alpha=v.a,
        beta=(d.ord_k // d.lam) * v.b,
        s=d.ord_k * v.s,
        lam=d.lam,
    )
