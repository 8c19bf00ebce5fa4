"""The reach gate: every function defined under src/bielliptic is called by a
fixed corpus, or is on ALLOWLIST with the reason it stays.

The corpus is what the library is for: a few hundred CLI calls drawn as
scripts/differential.py draws them, small variants of scripts/budgets.py's
capped cases, and one small call of each name that the acceptance criteria
(tests/test_acceptance.py) import.  It runs under sys.setprofile, which
sees every Python-level call; a function counts as reached when a code
object with its file and first line ran.  A function that only the tests
or a second copy reach fails the gate: delete it, reach it, or argue it
onto the allowlist.  An allowlisted function that the corpus reaches fails
it too, so the list only shrinks.
"""

import ast
import contextlib
import importlib.util
import inspect
import io
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bielliptic
from bielliptic import cli
from bielliptic.cli import run_command
from bielliptic.errors import NotHyperbolicError, PreconditionError
from bielliptic.lattice import (
    DivisorClass,
    MukaiVector,
    l_invariant,
    mukai_pairing,
    primitive_isotropic_in_series,
    pullback_canonical,
    square,
)
from bielliptic.moduli import SingClass, gieseker_report, singularity_report
from bielliptic.oracle import enumerate_equality_cases, min_codim_oracle
from bielliptic.stability import (
    EVERYWHERE,
    NOWHERE,
    GeometricStability,
    bayer_macri_class,
    central_charge,
    locus_samples,
    slice_charge,
    wall_in_slice,
)
from bielliptic.surfaces import all_types, surface_invariants
from bielliptic.transforms import (
    DUAL,
    ORD3_B_MOVE,
    PHI,
    PHI_INV,
    PSI,
    PSI_DUAL_MOVE,
    PSI_INV,
    SHIFT,
    TYPE6_A_MOVE,
    apply_transform,
    count_rank_reducing,
    matches_reduced_form,
    reduce_to_table,
)
from bielliptic.walls import (
    approximate_isotropic_full_l,
    classify_wall,
    hn_codim_bound,
    saturate_lattice,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(bielliptic.__file__).resolve().parent

REFERENCE = "the reference that the walk tests compare against; bench/tracing.py wraps it by name"
ALLOWLIST = {
    "cli.main": "the console script; run_command is its whole body",
    "lattice.MukaiVector.__repr__": "shown in test failures and interactive use",
    "transforms.TransformLog.__repr__": "shown in test failures and interactive use",
    "values.Value.__repr__": "shown in test failures and interactive use",
    "values.Value.__hash__": "values are hashable, as equal values must be; the tests key sets and dicts by them",
    "transforms.TransformLog.__init__": "the log's read side: bench/workloads.py replays `reduce --json` logs",
    "transforms.TransformLog.from_json": "the log's read side: bench/workloads.py replays `reduce --json` logs",
    "transforms.step_from_json": "the log's read side: bench/workloads.py replays `reduce --json` logs",
    "walls.enumerate_decompositions": REFERENCE,
    "walls.enumerate_decompositions.extend": REFERENCE,
    "walls.HyperbolicPair.from_coords": REFERENCE,
    "walls.HyperbolicPair.q": REFERENCE,
    "walls.HyperbolicPair.pair": REFERENCE,
    "walls.WallClassification.__eq__": "equal results whatever basis each H has, which the tests compare",
    "surfaces.SurfaceData.__init__": "runs at import, when the invariant table is built",
    "values.Value.__init_subclass__": "runs at import, when each value class is defined",
}

# small variants of scripts/budgets.py's capped cases ("{out}" is a path)
BUDGET_VARIANTS = [
    ["atlas", "--type", "7", "--bounds", "1,1,1,1", "--w", "0,0,0,1", "--w", "1,0,0,0",
     "--w", "1,1,1,1", "--w", "1,-1,1,-1", "--out", "{out}"],
    ["wall", "classify", "--type", "1", "--v=1,0,0,-150", "--w", "0,0,0,1", "--json"],
    ["wall", "classify", "--type", "1", "--v=5,1,2,-29", "--w", "0,0,0,1", "--json"],
    ["wall", "classify", "--type", "1", "--v=3,2,-2,-48", "--w", "1,0,0,0", "--json"],
    ["wall", "classify", "--type", "1", "--v=1,0,0,-148", "--w", "0,1,-1,1", "--json"],
    ["wall", "slice", "--type", "1", "--v", "1,0,0,147", "--w", "0,1,0,0", "--H0", "1,1",
     "--emit-samples", "100", "--json"],
    ["reduce", "--type", "1", "--vector", "1000,1,0,999", "--json"],
    ["reduce", "--type", "1", "--vector", "1000,1,0,999999", "--json"],
    ["oracle", "cases", "--m", "6", "--target", "0", "--bound", "8", "--json"],
]


def load_differential():
    spec = importlib.util.spec_from_file_location("differential", ROOT / "scripts" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_calls(tmp_path) -> list[list[str]]:
    differential = load_differential()
    out = str(tmp_path / "atlas.csv")
    return (
        differential.cli_list()[::4]
        + differential.slice_list()[::4]
        + [[a.replace("{out}", out) for a in argv] for argv in BUDGET_VARIANTS]
    )


def acceptance_calls():
    """One small call of each name tests/test_acceptance.py imports."""
    t, v, w = 1, MukaiVector.of(2, 0, 1, -1), MukaiVector.of(0, 0, 0, 1)
    H = saturate_lattice(t, v, w)
    classify_wall(H)
    min_codim_oracle(H)
    with pytest.raises(NotHyperbolicError):
        saturate_lattice(1, MukaiVector.of(1, 0, 0, -1), MukaiVector.of(0, 1, 1, 0))
    with pytest.raises(PreconditionError):
        saturate_lattice(1, v, 2 * v)
    hn_codim_bound(t, [MukaiVector.of(1, 0, 0, -1), MukaiVector.of(1, 0, 1, 0)])
    approximate_isotropic_full_l(3, MukaiVector.of(2, 0, 1, 0), 2)
    mukai_pairing(v + 3 * w, w)
    square(v)
    l_invariant(3, MukaiVector.of(2, 0, 1, 0))
    pullback_canonical(2, v).pairing(pullback_canonical(2, w))
    pullback_canonical(2, v).content()
    primitive_isotropic_in_series(2, DivisorClass(1, 1))
    gieseker_report(3, MukaiVector.of(4, 0, 2, 0))
    assert isinstance(singularity_report(7, MukaiVector.of(1, 0, 0, -4)).cases[0].klass, SingClass)
    enumerate_equality_cases(6, 1, bound=4)
    surface_invariants(all_types()[-1])
    apply_transform(1, DivisorClass(1, -2), v)
    apply_transform(1, DUAL, v)
    apply_transform(1, SHIFT, v)
    apply_transform(1, PHI, v)
    apply_transform(1, PHI_INV, v)
    apply_transform(1, PSI, v)
    apply_transform(1, PSI_INV, v)
    apply_transform(6, TYPE6_A_MOVE, v)
    apply_transform(5, ORD3_B_MOVE, v)
    apply_transform(3, PSI_DUAL_MOVE, v)
    u = MukaiVector.of(18, 25, 20, -23)
    v0, log = reduce_to_table(2, u)
    matches_reduced_form(2, v0)
    count_rank_reducing(2, u, log)
    assert log.replay(2, u) == v0
    H0, x, y = DivisorClass(1, 1), Fraction(1, 2), Fraction(3, 2)
    sigma = GeometricStability(DivisorClass(x, x), DivisorClass(y, y))
    central_charge(t, v, sigma)
    bayer_macri_class(t, v, sigma)
    (slice_charge(t, w, H0, x, y) * slice_charge(t, v, H0, x, y).conj()).im
    locus_samples(wall_in_slice(t, v, MukaiVector.of(1, 0, 0, -1), H0), 2)
    locus_samples(EVERYWHERE, 2)
    locus_samples(NOWHERE, 2)


def defined_functions() -> dict[tuple[str, int], str]:
    """(file name, first line) -> dotted name of every function defined
    under src/bielliptic, nested ones included.  A decorated function's code
    starts at its first decorator line."""
    found = {}

    def visit(node, path, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(file, first)] = ".".join(path + [child.name])
                visit(child, path + [child.name], file)
            elif isinstance(child, ast.ClassDef):
                visit(child, path + [child.name], file)
            else:
                visit(child, path, file)

    for source in sorted(SRC.glob("*.py")):
        visit(ast.parse(source.read_text()), [source.stem], source.name)
    return found


def reached(corpus) -> set[tuple[str, int]]:
    """(file name, first line) of every src/bielliptic code object that ran in corpus()."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        corpus()
    finally:
        sys.setprofile(previous)
    out = set()
    for code in codes:
        path = Path(code.co_filename)
        if path.parent.resolve() == SRC:
            out.add((path.name, code.co_firstlineno))
    return out


def run_corpus(calls):
    cli.build_parser.cache_clear()  # so that the parser's builders run too
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [run_command(argv) for argv in calls]
    acceptance_calls()
    return codes


def test_every_function_is_reached_or_allowlisted(tmp_path):
    calls = cli_calls(tmp_path)
    assert 300 <= len(calls) <= 400
    codes = []
    start = time.perf_counter()
    seen = reached(lambda: codes.extend(run_corpus(calls)))
    elapsed = time.perf_counter() - start
    assert set(codes) == {0, 2, 3}  # the corpus holds valid calls, flag errors and refused inputs
    assert (tmp_path / "atlas.csv").stat().st_size > 0
    defined = defined_functions()
    names = set(defined.values())
    assert len(names) == len(defined)
    unreached = sorted(name for key, name in defined.items() if key not in seen and name not in ALLOWLIST)
    assert unreached == [], f"reached by no corpus call and not on the allowlist: {unreached}"
    stale = sorted(name for name in ALLOWLIST if name not in names)
    assert stale == [], "allowlisted but not defined"
    assert all(reason.strip() for reason in ALLOWLIST.values())
    now_reached = sorted(name for key, name in defined.items() if key in seen and name in ALLOWLIST)
    assert now_reached == [], f"allowlisted but reached, so take them off the allowlist: {now_reached}"
    assert elapsed < 2.0


def test_the_acceptance_list_calls_every_name_the_criteria_import():
    """Each name tests/test_acceptance.py imports from bielliptic occurs in a
    call of acceptance_calls: a function as the callee (or the root of an
    attribute callee, as in MukaiVector.of), any other name as the callee
    or inside an argument."""
    imported = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("bielliptic"):
            imported |= {alias.asname or alias.name for alias in node.names}
    assert len(imported) > 30
    assert sorted(imported - globals().keys()) == []
    callees, in_calls = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(acceptance_calls))):
        if isinstance(node, ast.Call):
            func = node.func
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name):
                callees.add(func.id)
            in_calls |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    functions = {name for name in imported if inspect.isfunction(globals()[name])}
    assert sorted(functions - callees) == []
    assert sorted(imported - in_calls) == []
