"""Differential tests for the closed-form rank-2 saturation.

`kernel_saturation` below is the earlier route, kept here as the reference:
the saturation of a row lattice is the integer kernel of the integer kernel
of the rows.  A second, independent reference comes from sympy's Smith and
Hermite normal forms when sympy is installed.  Lattices are compared by
their Hermite normal forms (`hermite_rows`), since the library returns a
basis that starts at v / content(v) rather than a canonical one.
"""

from math import gcd

import pytest
from hypothesis import assume, example, given
import hypothesis.strategies as st

from bielliptic.linalg import ext_gcd, saturation_basis, unit_dual

try:
    import sympy
    from sympy.matrices.normalforms import hermite_normal_form, smith_normal_decomp
except ImportError:
    sympy = None


def hermite_rows(rows):
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


def kernel_basis(mat):
    """Basis of the integer kernel {x : mat . x = 0}, canonically reduced."""
    m, n = len(mat), len(mat[0])
    # rows are [column j of mat | e_j]; reduce the first m columns away
    work = [[mat[i][j] for i in range(m)] + [int(k == j) for k in range(n)] for j in range(n)]
    pivot_row = 0
    for col in range(m):
        nz = [i for i in range(pivot_row, n) if work[i][col] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda i: abs(work[i][col]))
            base = nz[0]
            for i in nz[1:]:
                q = work[i][col] // work[base][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[base])]
            nz = [i for i in nz if work[i][col] != 0]
        work[pivot_row], work[nz[0]] = work[nz[0]], work[pivot_row]
        pivot_row += 1
    return hermite_rows([row[m:] for row in work[pivot_row:]])


def kernel_saturation(rows):
    return kernel_basis(kernel_basis(rows))


def dependent(rows):
    v, w = rows
    return all(v[i] * w[j] == v[j] * w[i] for i in range(4) for j in range(i + 1, 4))


coords = st.lists(st.integers(-9, 9), min_size=4, max_size=4)


@st.composite
def mixed_rows(draw):
    """(c*v, m*w + n*c*v): v scaled by a content, w mixed so the span can
    have index > 1 in its saturation."""
    v, w = draw(coords), draw(coords)
    c, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(-5, 5))
    cv = [c * x for x in v]
    return [cv, [m * y + n * x for x, y in zip(cv, w)]]


class TestExtGcd:
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_bezout(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert g >= 0
        assert a * x + b * y == g
        if g:
            assert a % g == 0 and b % g == 0


class TestUnitDual:
    @given(
        st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)), min_size=2, max_size=5
        ),
        st.integers(1, 6),
    )
    @example([1, 0, 0, 0], 1)
    @example([-1, 0, 0, 0], 1)
    @example([0, 0, 0, 1], 2)  # the point class twice, as `atlas --w 0,0,0,2`
    @example([0, -1, 1, 0], 3)
    @example([0, 0, -7, 0], 1)
    def test_pairs_to_one_with_the_primitive_part(self, w0, c):
        # the atlas sweep takes y = unit_dual(w / content(w)) for a generator w
        assume(any(w0))
        w = [c * x for x in w0]
        p = [x // gcd(*w) for x in w]
        y = unit_dual(p)
        assert len(y) == len(p)
        assert sum(a * b for a, b in zip(y, p)) == 1


class TestSaturationBasis:
    @given(mixed_rows())
    @example([[2, 2, 4, -2], [0, 6, 0, 3]])
    @example([[0, 0, 0, 3], [5, 0, 0, 0]])
    @example([[-6, 4, 0, 2], [0, 0, -7, 0]])
    def test_matches_kernel_route(self, rows):
        assume(not dependent(rows))
        assert hermite_rows(saturation_basis(rows)) == kernel_saturation(rows)

    @given(coords, st.integers(-5, 5), st.integers(1, 5))
    def test_dependent_rows_give_one_row(self, v, n, c):
        assume(any(v))
        rows = [[c * x for x in v], [n * x for x in v]]
        assert hermite_rows(saturation_basis(rows)) == kernel_saturation(rows)
        assert saturation_basis(rows) == [[x // gcd(*v) for x in v]]

    def test_zero_first_row_gives_fewer_than_two_rows(self):
        assert len(saturation_basis([[0, 0, 0, 0], [1, 2, 3, 4]])) < 2

    @given(mixed_rows())
    def test_saturated_and_spanning_the_rows(self, rows):
        assume(not dependent(rows))
        e1, e2 = saturation_basis(rows)
        # it starts at v / content(v), so v = content(v) * e1
        v = rows[0]
        assert [gcd(*v) * x for x in e1] == v
        # minors with gcd 1: the basis spans a saturated lattice
        assert gcd(*(e1[i] * e2[j] - e1[j] * e2[i] for i in range(4) for j in range(i + 1, 4))) == 1
        for row in rows:
            assert len(hermite_rows([e1, e2, row])) == 2

    @pytest.mark.skipif(sympy is None, reason="sympy is not installed")
    @given(mixed_rows())
    def test_matches_sympy_normal_forms(self, rows):
        assume(not dependent(rows))
        # rows = U^-1 D V^-1 with D diagonal, so the first two rows of V^-1
        # span the saturation
        _, _, V = smith_normal_decomp(sympy.Matrix(rows), domain=sympy.ZZ)
        inv = V.inv()
        sat = [list(inv.row(i)) for i in range(2)]
        # sympy's HNF is column-style with pivots taken from the last row up,
        # so it is ours after reversing the coordinates and transposing
        H = hermite_normal_form(sympy.Matrix([row[::-1] for row in sat]).T)
        expected = [[int(x) for x in H[::-1, j]] for j in range(H.cols)][::-1]
        assert hermite_rows(saturation_basis(rows)) == expected
