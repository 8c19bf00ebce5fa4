"""Small exact integer linear algebra: Hermite reduction, extended gcd, saturation.

Everything operates on lists of Python-int rows; sizes here are tiny
(2x4 matrices), so simple Euclidean row reduction is plenty.
"""

from itertools import combinations
from math import gcd


def hermite_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form; returns the nonzero rows.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot), so the output is a canonical basis of the row lattice.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    m, n = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(n):
        nz = [i for i in range(pivot_row, m) if mat[i][col] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(mat[i][col]))
            base = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[base][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[base])]
            nz = [i for i in nz if mat[i][col] != 0]
        base = nz[0]
        mat[pivot_row], mat[base] = mat[base], mat[pivot_row]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
        p = mat[pivot_row][col]
        for i in range(pivot_row):
            q = mat[i][col] // p
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    return mat[:pivot_row]


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
    """Canonical basis of the saturation of the lattice spanned by two rows.

    With p = v / content(v) and d the gcd of the 2x2 minors of (p, w), the
    saturation is spanned by p and (w + k*p) / d for k = -(y.w) mod d,
    where y.p = 1 (see README, "The wall classifier").  Fewer than two
    rows come back when the rows are linearly dependent (d = 0).
    """
    v, w = rows
    c = gcd(*v)
    if c == 0:
        return []
    p = [x // c for x in v]
    d = gcd(*(p[i] * w[j] - p[j] * w[i] for i, j in combinations(range(len(p)), 2)))
    if d == 0:
        return hermite_rows([p])
    # y.p = g = gcd of the coordinates of p seen so far; stop once it is 1
    g = yw = 0
    for px, wx in zip(p, w):
        g, a, b = ext_gcd(g, px)
        yw = a * yw + b * wx
        if g == 1:
            break
    k = -yw % d
    return hermite_rows([p, [(wx + k * px) // d for px, wx in zip(p, w)]])
