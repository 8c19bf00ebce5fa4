"""Small exact integer linear algebra: extended gcd, a dual vector y with
y.p = 1, saturation.

Everything operates on Python ints and lists of rows; sizes here are tiny
(vectors in Z^4), so Euclid's algorithm is plenty.
"""

from math import gcd


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        quot, rem = divmod(a, b)
        a, b = b, rem
        x0, x1 = x1, x0 - quot * x1
        y0, y1 = y1, y0 - quot * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def unit_dual(p: tuple[int, ...] | list[int]) -> list[int]:
    """y with y.p = 1 for p primitive, so that Z^n = Zp + ker(y): a running
    extended gcd over p's coordinates that stops once the gcd is 1."""
    y, g = [0] * len(p), 0
    for i, px in enumerate(p):
        g, a, b = ext_gcd(g, px)
        if a != 1:
            y = [a * yx for yx in y]
        y[i] = b
        if g == 1:
            break
    return y


def saturation_basis(rows: list[list[int]]) -> list[list[int]]:
    """A basis (p, f) of the saturation of the lattice spanned by two rows
    (v, w), with p = v / content(v), so that v = content(v) * p.

    With y = unit_dual(p), u = w - (y.w) p lies in ker(y), and f = u / d
    for d = content(u) (see README, "The wall classifier").  Only [p]
    comes back when the rows are linearly dependent (u = 0), and nothing
    when v = 0.
    """
    (v0, v1, v2, v3), (w0, w1, w2, w3) = rows
    c = gcd(v0, v1, v2, v3)
    if c == 0:
        return []
    p0, p1, p2, p3 = p = [v0 // c, v1 // c, v2 // c, v3 // c]
    y0, y1, y2, y3 = unit_dual(p)
    yw = y0 * w0 + y1 * w1 + y2 * w2 + y3 * w3
    u0, u1, u2, u3 = w0 - yw * p0, w1 - yw * p1, w2 - yw * p2, w3 - yw * p3
    d = gcd(u0, u1, u2, u3)
    return [p, [u0 // d, u1 // d, u2 // d, u3 // d]] if d else [p]
