"""Smoke tests of scripts/differential.py on a small part of its wall list
and all of its reductions and CLI calls."""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def differential(against, walls=200, timeout=60):
    """Run the script (every list, long runs included, when walls is None).
    It runs in a session of its own, so that a timeout kills its children
    with it."""
    argv = [sys.executable, str(ROOT / "scripts" / "differential.py"), "--against", str(against)]
    if walls is not None:
        argv += ["--walls", str(walls)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as run:
        try:
            out, err = run.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(argv, run.returncode, out, err)


def live_members(pgid):
    """Pids of the processes of group pgid that have not exited (Linux)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process exited while the scan ran
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


def test_a_timed_out_run_leaves_no_process(monkeypatch):
    # without --walls the lists hold the long reductions, minutes a tree,
    # so both children are running when the timeout strikes
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    with pytest.raises(subprocess.TimeoutExpired):
        differential(ROOT / "src", walls=None, timeout=2)
    pgid = started[0].pid
    deadline = time.monotonic() + 10
    while live_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_members(pgid) == []


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
