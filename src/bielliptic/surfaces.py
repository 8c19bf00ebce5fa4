"""The seven families of bielliptic surfaces and their numerical invariants.

A surface type is an integer 1..7.  Each row records the order of the
canonical class, lambda = |G| / ord(K), the group order |G|, and the
multiplicities of the singular fibres of the P^1-fibration.  These are
fixed constants; there is nothing to configure.
"""

from bielliptic.errors import InvalidSurfaceError
from bielliptic.values import Value


class SurfaceData(Value):
    __slots__ = ("ord_k", "lam", "g_order", "multiplicities")

    def __init__(self, ord_k: int, lam: int, g_order: int, multiplicities: tuple[int, ...]):
        self.ord_k = ord_k
        self.lam = lam
        self.g_order = g_order
        self.multiplicities = multiplicities


_TABLE: dict[int, SurfaceData] = {
    1: SurfaceData(ord_k=2, lam=1, g_order=2, multiplicities=(2, 2, 2, 2)),
    2: SurfaceData(ord_k=2, lam=2, g_order=4, multiplicities=(2, 2, 2, 2)),
    3: SurfaceData(ord_k=4, lam=1, g_order=4, multiplicities=(2, 4, 4)),
    4: SurfaceData(ord_k=4, lam=2, g_order=8, multiplicities=(2, 4, 4)),
    5: SurfaceData(ord_k=3, lam=1, g_order=3, multiplicities=(3, 3, 3)),
    6: SurfaceData(ord_k=3, lam=3, g_order=9, multiplicities=(3, 3, 3)),
    7: SurfaceData(ord_k=6, lam=1, g_order=6, multiplicities=(2, 3, 6)),
}

def surface_invariants(t: int) -> SurfaceData:
    """Return the invariant row for surface type ``t`` (1..7)."""
    try:
        return _TABLE[t]
    except (KeyError, TypeError):
        raise InvalidSurfaceError(f"surface type must be in 1..7, got {t!r}") from None


def all_types() -> tuple[int, ...]:
    return tuple(_TABLE)
