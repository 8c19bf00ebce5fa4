"""Smoke test of the benchmark itself: every workload at its smallest size.

    python3 -m pytest bench/test_bench.py

Each workload runs one batch (``--seconds 0``) untraced and traced; the
last output line must carry every metric BENCHMARK.json names, with its
unit.  A copy of the benchmark with one corrupted golden digest must
report a failed operation.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(bench_dir, workload, trace):
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=bench_dir.parent, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    code, result, err = run(BENCH, workload, trace)
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_golden_digest_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden_path = tmp_path / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["cli"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    code, result, _ = run(tmp_path / "bench", "cli", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
