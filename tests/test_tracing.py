"""The benchmark reaches library functions by name.

`bench/tracing.py` looks each one up as a module attribute, so deleting or
renaming one breaks every `--trace 1` run.  This loads the tracer by path,
installs it, checks that a traced wall lattice and a traced reduction
record the layers the benchmark reports, and removes it again.  `bench/workloads.py` calls the
library directly; its names are checked from its source.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import itertools
import pathlib

import pytest

from bielliptic import cli, lattice, linalg, moduli, transforms, walls
from bielliptic.lattice import MukaiVector, square

from conftest import saturation_key

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


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
        (transforms, "reduce_to_table"): transforms.reduce_to_table,
        (transforms, "matches_reduced_form"): transforms.matches_reduced_form,
        (moduli, "gieseker_report"): moduli.gieseker_report,
        (moduli, "singularity_report"): moduli.singularity_report,
    }
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name).__wrapped__ is fn, f"{module.__name__}.{name}"
        tracer.on = True
        H = walls.saturate_lattice(1, MukaiVector(2, 0, 1, -1), MukaiVector(0, 0, 0, 1))
        walls.classify_wall(H)
        transforms.reduce_to_table(1, MukaiVector(3, 1, 1, 0))
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
        "transforms.reduce_to_table.r_le_40",
    } <= set(tracer.stats)


def orbit(v, w):
    """The vectors under which the sweep writes v's row for generator w:
    None unless v is its orbit's representative, else v and -v, and +-Dv
    too when the dual D: (r, a, b, s) -> (r, -a, -b, s) keeps w up to sign
    (a set, so Dv = +-v counts once).  The representative has first nonzero
    entry positive and, for such a w, is >= in (r, a, b, s) order the
    member of +-Dv that has one too."""
    r, a, b, s = v
    if v <= (0, 0, 0, 0):
        return None
    members = {v, (-r, -a, -b, -s)}
    if w[1] == w[2] == 0 or w[0] == w[3] == 0:
        dual = (r, -a, -b, s) if r else (0, a, b, -s)
        if dual > v:
            return None
        members |= {dual, tuple(-x for x in dual)}
    return members


@pytest.mark.parametrize(
    "types, bounds, generators, keys",
    [
        # one generator that D moves (1,2,1,2), two it fixes and one it
        # negates, so both the +-v pairs and the orbits of size 4 and 2 occur
        ([2], "2,1,1,2", ["0,0,0,1", "1,2,1,2", "0,0,0,2", "0,1,-1,0"], 41),
        # scripts/run_atlas.py
        (range(1, 8), "3,2,2,3", ["0,0,0,1", "1,0,0,0"], 582),
    ],
    ids=["type2", "run_atlas"],
)
def test_atlas_classifies_each_key_once(monkeypatch, types, bounds, generators, keys):
    R, A, B, S = map(int, bounds.split(","))
    expected, walls_found, rows = 0, 0, 0
    for t in types:
        distinct = set()
        for v in itertools.product(*(range(-n, n + 1) for n in (R, A, B, S))):
            v = MukaiVector(*v)
            if square(v) <= 0:
                continue
            for w in map(MukaiVector.parse, generators):
                members = orbit(v.as_tuple(), w.as_tuple())
                key = saturation_key(t, v, w) if members else None
                if key is not None:
                    distinct.add(key)
                    walls_found += 1
                    rows += len(members)
        expected += len(distinct)  # the memo lives for one call
    assert expected == keys
    assert walls_found > expected
    # the sweep classifies a key on the key's own frame, through the name
    # classify_key in cli, and builds no wall lattice to classify
    classified, classify_key = [], cli.classify_key

    def counted(t, key):
        classified.append(key)
        return classify_key(t, key)

    monkeypatch.setattr(cli, "classify_key", counted)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    out = io.StringIO()
    try:
        tracer.on = True
        with contextlib.redirect_stdout(out):
            for t in types:
                argv = ["atlas", "--type", str(t), "--bounds", bounds]
                code = cli.run_command([*argv, *(f for w in generators for f in ("--w", w))])
                assert code == 0
        tracer.on = False
    finally:
        installed.remove()
    # every member of a class has the representative's row, so each key is
    # classified once, with no saturation, and each row is written once per
    # member
    assert tracer.stats.get("walls.saturate_lattice", [0])[0] == 0
    assert tracer.stats.get("linalg.saturation_basis", [0])[0] == 0
    assert len(classified) == expected == keys
    assert out.getvalue().count("\n") - len(types) == rows


def test_workloads_use_only_names_that_exist():
    # every name imported from bielliptic, and every <owner>.<name> read off
    # one of them (a module such as walls, or a class such as MukaiVector)
    tree = ast.parse(WORKLOADS.read_text())
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bielliptic":
            source = importlib.import_module(node.module)
            for alias in node.names:
                if node.module == "bielliptic":
                    owner = importlib.import_module(f"bielliptic.{alias.name}")
                else:
                    assert hasattr(source, alias.name), f"{node.module}.{alias.name}"
                    owner = getattr(source, alias.name)
                owners[alias.asname or alias.name] = owner
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    }
    assert {("walls", "classify_wall"), ("MukaiVector", "parse"), ("cli", "run_command")} <= used
    missing = sorted(f"{o}.{n}" for o, n in used if not hasattr(owners[o], n))
    assert missing == []
