import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import hypothesis.strategies as st

from bielliptic import walls
from bielliptic.errors import PreconditionError
from bielliptic.lattice import MukaiVector, l_invariant_any

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

surface_types = st.integers(min_value=1, max_value=7)


@st.composite
def mukai_vectors(draw, rmin=-30, rmax=30, cmax=30):
    coords = st.integers(min_value=-cmax, max_value=cmax)
    return MukaiVector.of(
        draw(st.integers(min_value=rmin, max_value=rmax)),
        draw(coords),
        draw(coords),
        draw(coords),
    )


@st.composite
def primitive_vectors(draw, rmin=1, rmax=30, cmax=30):
    v = draw(
        mukai_vectors(rmin=rmin, rmax=rmax, cmax=cmax).filter(lambda u: u.is_primitive())
    )
    return v


def basis_key(H):
    """walls.wall_key of the wall lattice H, read off its basis."""
    return walls.wall_key(H.gram, H.vxy, l_invariant_any(H.surface, H.v), H.rays)


def saturation_key(t, v, w):
    """basis_key of the wall (v, w) in the basis that saturate_lattice
    builds, or None if (v, w) is not a wall."""
    try:
        H = walls.saturate_lattice(t, v, w)
    except PreconditionError:
        return None
    return basis_key(H)
