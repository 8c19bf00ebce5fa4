"""The traced benchmark run patches library functions by name.

`bench/tracing.py` looks each one up as a module attribute, so deleting or
renaming one breaks every `--trace 1` run.  This loads the tracer by path,
installs it, checks that a traced wall lattice records the layers the
benchmark reports, and removes it again.
"""

import importlib.util
import pathlib

from bielliptic import lattice, linalg, walls
from bielliptic.lattice import MukaiVector

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes():
    tracing = load_tracing()
    originals = {
        (linalg, "saturation_basis"): linalg.saturation_basis,
        (walls, "saturation_basis"): walls.saturation_basis,
        (walls, "saturate_lattice"): walls.saturate_lattice,
        (walls, "hn_codim_bound"): walls.hn_codim_bound,
        (walls, "enumerate_decompositions"): walls.enumerate_decompositions,
        (walls, "classify_wall"): walls.classify_wall,
        (lattice, "mukai_pairing"): lattice.mukai_pairing,
    }
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name).__wrapped__ is fn, f"{module.__name__}.{name}"
        tracer.on = True
        H = walls.saturate_lattice(1, MukaiVector(2, 0, 1, -1), MukaiVector(0, 0, 0, 1))
        walls.classify_wall(H)
        tracer.on = False
    finally:
        installed.remove()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn, f"{module.__name__}.{name} not restored"
    assert {
        "walls.saturate_lattice",
        "linalg.saturation_basis",
        "walls.isotropic_rays",
        "walls.classify_wall.v2_le_20",
    } <= set(tracer.stats)
