import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import hypothesis.strategies as st

from bielliptic.lattice import MukaiVector

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
