"""Exact central charges for geometric stability conditions.

Z_{omega,beta}(v) = <exp(beta + i*omega), v> computed over Q(i) with exact
rationals.
Wall loci are restricted to the slice beta = x*H0, omega = y*H0 (y > 0),
where the vanishing of Im(Z(w) * conj(Z(v))) / y is the circle/line

    alpha * (x^2 + y^2) + beta * x + gamma = 0.
"""

from fractions import Fraction
from math import gcd, isqrt

from bielliptic.errors import DegenerateChargeError, PreconditionError
from bielliptic.lattice import DivisorClass, MukaiVector
from bielliptic.linalg import saturation_basis
from bielliptic.surfaces import surface_invariants
from bielliptic.values import Value


class GeometricStability(Value):
    """A pair (beta, omega) of rational divisor classes with omega ample."""

    __slots__ = ("beta", "omega")

    def __init__(self, beta: DivisorClass, omega: DivisorClass):
        if not omega.is_ample():
            raise PreconditionError(f"omega must be ample, got {omega}")
        self.beta = beta
        self.omega = omega


class ComplexRational(Value):
    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    def conj(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def central_charge(t: int, v: MukaiVector, sigma: GeometricStability) -> ComplexRational:
    """Z = [beta.c1 - s - r(beta^2 - omega^2)/2] + i[omega.c1 - r beta.omega]."""
    surface_invariants(t)
    beta, omega = sigma.beta, sigma.omega
    c1 = DivisorClass(v.a, v.b)
    re = beta.dot(c1) - v.s - Fraction(v.r) * (beta.self_int() - omega.self_int()) / 2
    im = omega.dot(c1) - v.r * beta.dot(omega)
    return ComplexRational(Fraction(re), Fraction(im))


# ---------------------------------------------------------------------------
# wall loci in the (x, y) slice


class QuadraticLocus(Value):
    """alpha*(x^2 + y^2) + beta*x + gamma = 0, content 1, alpha >= 0."""

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: int, beta: int, gamma: int):
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma


EVERYWHERE = "everywhere"
NOWHERE = "nowhere"

WallLocus = QuadraticLocus | str  # the str is EVERYWHERE or NOWHERE


def slice_charge(
    t: int, v: MukaiVector, H0: DivisorClass, x: Fraction, y: Fraction
) -> ComplexRational:
    """Z at beta = x*H0, omega = y*H0 (requires y > 0 for a genuine sigma)."""
    sigma = GeometricStability(
        DivisorClass(x * H0.a, x * H0.b), DivisorClass(y * H0.a, y * H0.b)
    )
    return central_charge(t, v, sigma)


def wall_in_slice(t: int, v: MukaiVector, w: MukaiVector, H0: DivisorClass) -> WallLocus:
    """Exact vanishing locus of Im(Z(w) conj(Z(v))) / y in the H0-slice.

    With P = H0^2 and d_v = H0.c1(v) the polynomial is
        P*(r_v d_w - r_w d_v) * (x^2+y^2)
      + 2P*(r_w s_v - r_v s_w) * x + 2*(d_v s_w - d_w s_v)
    up to normalization.
    """
    surface_invariants(t)
    if not H0.is_ample():
        raise PreconditionError(f"H0 must be ample, got ({H0.a},{H0.b})")
    if len(saturation_basis([v.as_tuple(), w.as_tuple()])) < 2:
        raise PreconditionError("v and w are collinear; the wall locus is degenerate")
    P = H0.self_int()
    dv = H0.a * v.b + v.a * H0.b
    dw = H0.a * w.b + w.a * H0.b
    alpha = P * (v.r * dw - w.r * dv)
    beta = 2 * P * (w.r * v.s - v.r * w.s)
    gamma = 2 * (dv * w.s - dw * v.s)
    if alpha == 0 and beta == 0 and gamma == 0:
        return EVERYWHERE
    if alpha == 0 and beta == 0:
        return NOWHERE
    g = gcd(gcd(abs(alpha), abs(beta)), abs(gamma))
    alpha, beta, gamma = alpha // g, beta // g, gamma // g
    lead = alpha if alpha != 0 else beta
    if lead < 0:
        alpha, beta, gamma = -alpha, -beta, -gamma
    return QuadraticLocus(alpha, beta, gamma)


def locus_samples(locus: WallLocus, count: int) -> list[tuple[Fraction, Fraction]]:
    """Up to ``count`` exact rational points (x, y), y > 0, on the locus.

    Lines (alpha = 0) always yield points.  Circles are scanned in integers
    over x = num/den in lowest terms, den = 1..12 and |x| <= 12, in that
    order: y^2 = n / (alpha*den)^2 with
    n = -alpha * (alpha*num^2 + beta*num*den + gamma*den^2), so y is a
    positive rational iff n > 0 is a perfect square, and then
    y = isqrt(n) / (alpha*den).  n > 0 iff (2*alpha*num + beta*den)^2 <
    disc*den^2, disc = beta^2 - 4*alpha*gamma, so only the nums inside the
    circle are scanned (alpha > 0), and none when disc <= 0.  May return
    fewer than requested (a rational circle need not have rational points).
    """
    if count <= 0:
        return []
    if isinstance(locus, str):  # EVERYWHERE or NOWHERE
        return [(Fraction(k), Fraction(1)) for k in range(count)] if locus == EVERYWHERE else []
    alpha, beta, gamma = locus.alpha, locus.beta, locus.gamma
    if alpha == 0:
        x = Fraction(-gamma, beta)
        return [(x, Fraction(k)) for k in range(1, count + 1)]
    disc = beta * beta - 4 * alpha * gamma
    if disc <= 0:  # no x has y^2 > 0
        return []
    out: list[tuple[Fraction, Fraction]] = []
    for den in range(1, 13):
        r = isqrt(disc * den * den)  # |2*alpha*num + beta*den| <= r
        for num in range(max(-12 * den, -((beta * den + r) // (2 * alpha))),
                         min(12 * den, (r - beta * den) // (2 * alpha)) + 1):
            n = -alpha * (alpha * num * num + beta * num * den + gamma * den * den)
            if n <= 0:
                continue
            root = isqrt(n)
            if root * root == n and gcd(num, den) == 1:
                out.append((Fraction(num, den), Fraction(root, alpha * den)))
                if len(out) >= count:
                    return out
    return out


# ---------------------------------------------------------------------------
# the numerical divisor class attached to a stability condition


def bayer_macri_class(t: int, v: MukaiVector, sigma: GeometricStability) -> MukaiVector:
    """Im of exp(beta + i*omega) / Z(v), componentwise, in Fractions; pairs to zero with v."""
    z = central_charge(t, v, sigma)
    if z.is_zero():
        raise DegenerateChargeError(f"Z({v.text()}) = 0")
    beta, omega = sigma.beta, sigma.omega
    n = z.norm2()
    # exp(beta + i*omega) = U = (1, beta, (beta^2 - omega^2)/2) + i*(0, omega, beta.omega)
    # and Im(U / z) = (Im(U) * Re(z) - Re(U) * Im(z)) / |z|^2
    def comp(re_c: Fraction, im_c: Fraction) -> Fraction:
        return (im_c * z.re - re_c * z.im) / n

    return MukaiVector(
        comp(1, 0),
        comp(beta.a, omega.a),
        comp(beta.b, omega.b),
        comp(Fraction(beta.self_int() - omega.self_int(), 2), beta.dot(omega)),
    )
