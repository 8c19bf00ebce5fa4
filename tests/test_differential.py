"""Smoke tests of scripts/differential.py on a small part of its wall list
and all of its reductions and CLI calls."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def differential(against, walls=200):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "differential.py"), "--against", str(against), "--walls", str(walls)],
        capture_output=True, text=True, timeout=60,
    )


def test_self_comparison_finds_no_difference():
    run = differential(ROOT / "src")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("differential: 200 walls (")
    assert " and 1000 cli calls, " in run.stdout
    assert " 0 differences against " in run.stdout


def test_a_changed_label_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "bielliptic", tmp_path / "bielliptic")
    walls = tmp_path / "bielliptic" / "walls.py"
    walls.write_text(walls.read_text().replace('FAKE_WALL = "FakeWall"', 'FAKE_WALL = "Fake"'))
    run = differential(tmp_path)
    assert run.returncode == 1
    assert " 0 differences " not in run.stdout and "FakeWall" in run.stderr


def test_a_changed_step_name_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "bielliptic", tmp_path / "bielliptic")
    transforms = tmp_path / "bielliptic" / "transforms.py"
    transforms.write_text(transforms.read_text().replace('PHI_INV = "phi_inv"', 'PHI_INV = "phi_inverse"'))
    run = differential(tmp_path)
    assert run.returncode == 1
    assert " 0 differences " not in run.stdout and "reduction [" in run.stderr


def test_a_changed_usage_line_is_reported(tmp_path):
    shutil.copytree(ROOT / "src" / "bielliptic", tmp_path / "bielliptic")
    cli = tmp_path / "bielliptic" / "cli.py"
    cli.write_text(cli.read_text().replace('prog="bielliptic"', 'prog="bielliptic2"'))
    run = differential(tmp_path)
    assert run.returncode == 1
    assert " 0 differences " not in run.stdout and "cli [" in run.stderr


def test_an_oracle_that_skips_its_swap_is_reported(tmp_path):
    # the --walls 200 sample holds 7 of the walls v = (m, 0, 0, -m*n),
    # m >= 2, that the oracle swaps and bounds
    shutil.copytree(ROOT / "src" / "bielliptic", tmp_path / "bielliptic")
    oracle = tmp_path / "bielliptic" / "oracle.py"
    swap = "        e1, e2 = e2, e1\n"
    assert swap in oracle.read_text()
    oracle.write_text(oracle.read_text().replace(swap, "        return None\n"))
    run = differential(tmp_path)
    assert run.returncode == 1
    assert " 0 differences " not in run.stdout and '"oracle": null' in run.stderr
