"""Small exact integer linear algebra: extended gcd, unimodular completion,
saturation.

Everything operates on Python ints and lists of rows; sizes here are tiny
(vectors in Z^4), so Euclid's algorithm is plenty.
"""

from itertools import combinations
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


def unimodular_completion(w: tuple[int, ...]) -> list[list[int]]:
    """The columns of an integer U with det U = +-1 and w0 . U = e1, for
    w0 = w / content(w), w in Z^n nonzero and n >= 2, by determinant-1 moves
    on columns 0 and j that set entry j of w0 . U to 0.  So p . U lists p's
    coordinates in the basis of Z^n that the rows of U^-1 form (w0 first)."""
    row = [x // gcd(*w) for x in w]
    cols = [[int(i == j) for i in range(len(w))] for j in range(len(w))]
    for j in range(1, len(w)):
        g, x, y = ext_gcd(row[0], row[j])
        if g:
            p, q = row[0] // g, row[j] // g
            cols[0], cols[j] = (
                [x * a + y * b for a, b in zip(cols[0], cols[j])],
                [p * b - q * a for a, b in zip(cols[0], cols[j])],
            )
            row[0] = g
    return cols


def saturation_basis(rows: list[list[int]]) -> list[list[int]]:
    """A basis (p, f) of the saturation of the lattice spanned by two rows
    (v, w), with p = v / content(v), so that v = content(v) * p.

    With d the gcd of the 2x2 minors of (p, w) and y.p = 1, the second
    vector is f = (w - (y.w) p) / d (see README, "The wall classifier").
    Only [p] comes back when the rows are linearly dependent (d = 0), and
    nothing when v = 0.
    """
    v, w = rows
    c = gcd(*v)
    if c == 0:
        return []
    p = [x // c for x in v]
    d = gcd(*(p[i] * w[j] - p[j] * w[i] for i, j in combinations(range(len(p)), 2)))
    if d == 0:
        return [p]
    # y.p = g = gcd of the coordinates of p seen so far; stop once it is 1
    g = yw = 0
    for px, wx in zip(p, w):
        g, a, b = ext_gcd(g, px)
        yw = a * yw + b * wx
        if g == 1:
            break
    return [p, [(wx - yw * px) // d for px, wx in zip(p, w)]]
