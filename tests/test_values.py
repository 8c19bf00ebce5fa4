"""The value classes on their one base: equality, hashing and repr come from
the fields in __slots__, and importing the library leaves dataclasses out."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bielliptic.errors import PreconditionError
from bielliptic.lattice import CoverMukaiVector, DivisorClass, MukaiVector
from bielliptic.moduli import NonEmptinessReport, SingClass, SingularityCase, SingularityReport
from bielliptic.oracle import EqualityCase
from bielliptic.stability import ComplexRational, GeometricStability, QuadraticLocus
from bielliptic.surfaces import SurfaceData, surface_invariants
from bielliptic.walls import WallClassification, classify_wall, saturate_lattice

ROOT = Path(__file__).resolve().parent.parent

VALUES = [  # (class, fields)
    (SurfaceData, (2, 1, 2, (2, 2, 2, 2))),
    (CoverMukaiVector, (1, 2, 3, 4, 1)),
    (NonEmptinessReport, (True, False, None, None, ("a note",))),
    (SingularityCase, ("a condition", SingClass.CANONICAL)),
    (SingularityReport, ((SingularityCase("a condition", SingClass.SMOOTH),), Fraction(5, 2))),
    (EqualityCase, (6, 1, 2, 3, 1, 1, 0)),
    (GeometricStability, (DivisorClass(0, 1), DivisorClass(1, 1))),
    (ComplexRational, (Fraction(1, 2), Fraction(-3))),
    (QuadraticLocus, (1, -2, 3)),
]


def _wall_classification_fields():
    wc = classify_wall(saturate_lattice(1, MukaiVector(1, 0, 0, -2), MukaiVector(0, 0, 0, 1)))
    return (wc.H, wc.max_parts, wc.tss_witness, wc.found, wc.codim_bound)


def test_importing_the_cli_leaves_dataclasses_out():
    code = "import sys, bielliptic.cli; print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


@pytest.mark.parametrize("cls, fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_equal_fields_give_equal_values_and_hashes(cls, fields):
    x, y = cls(*fields), cls(**dict(zip(cls.__slots__, fields)))
    assert x == y and hash(x) == hash(y) == hash(fields)
    assert tuple(getattr(x, name) for name in cls.__slots__) == fields
    assert x != fields and x.__eq__(fields) is NotImplemented
    assert not hasattr(x, "__dict__")


def test_wall_classification_compares_by_fields_and_is_unhashable():
    fields = _wall_classification_fields()
    wc = WallClassification(*fields)
    assert "witnesses" not in vars(wc)  # the witness walk is cached in __dict__ when first read
    names = ("H", "max_parts", "tss_witness", "found", "codim_bound")
    assert wc == WallClassification(**dict(zip(names, fields))) == classify_wall(fields[0])
    assert "witnesses" in vars(wc)
    assert wc != fields and wc.__eq__(fields) is NotImplemented
    with pytest.raises(TypeError):
        hash(wc)


def test_reprs_are_pinned():
    assert repr(surface_invariants(1)) == "SurfaceData(ord_k=2, lam=1, g_order=2, multiplicities=(2, 2, 2, 2))"
    assert repr(EqualityCase(6, 1, 2, 3, 1, 1, 0)) == "EqualityCase(m=6, l1=1, l2=2, q=3, b1=1, b2=1, target=0)"


def test_a_non_ample_omega_is_rejected():
    with pytest.raises(PreconditionError, match=r"omega must be ample, got DivisorClass\(a=1, b=0\)"):
        GeometricStability(DivisorClass(0, 0), DivisorClass(1, 0))
    with pytest.raises(PreconditionError):
        GeometricStability(beta=DivisorClass(0, 0), omega=DivisorClass(-1, -1))
