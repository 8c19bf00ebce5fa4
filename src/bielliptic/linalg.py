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
    v, w = rows
    c = gcd(*v)
    if c == 0:
        return []
    p = [x // c for x in v]
    yw = sum(a * b for a, b in zip(unit_dual(p), w))
    u = [wx - yw * px for px, wx in zip(p, w)]
    d = gcd(*u)
    return [p, [x // d for x in u]] if d else [p]
