import pytest

from bielliptic.errors import InvalidSurfaceError
from bielliptic.surfaces import all_types, surface_invariants


def test_registry_rows():
    d = surface_invariants(1)
    assert (d.ord_k, d.lam, d.g_order, d.multiplicities) == (2, 1, 2, (2, 2, 2, 2))
    d = surface_invariants(4)
    assert (d.ord_k, d.lam, d.g_order, d.multiplicities) == (4, 2, 8, (2, 4, 4))
    d = surface_invariants(7)
    assert (d.ord_k, d.lam, d.g_order, d.multiplicities) == (6, 1, 6, (2, 3, 6))


def test_total_on_all_seven():
    assert all_types() == (1, 2, 3, 4, 5, 6, 7)
    for t in all_types():
        d = surface_invariants(t)
        assert d.ord_k in (2, 3, 4, 6)
        assert d.lam in (1, 2, 3)
        assert d.lam * d.ord_k == d.g_order


def test_composite_order_and_lambda_subsets():
    composite = {t for t in all_types() if surface_invariants(t).ord_k not in (2, 3)}
    assert composite == {3, 4, 7}
    multi = {t for t in all_types() if surface_invariants(t).lam > 1}
    assert multi == {2, 4, 6}


@pytest.mark.parametrize("bad", [0, 8, -1, 100, "3", None])
def test_invalid_index(bad):
    with pytest.raises(InvalidSurfaceError):
        surface_invariants(bad)
