"""scripts/budgets.py reports the peak RSS of the child it measures."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_budgets():
    spec = importlib.util.spec_from_file_location("budgets", ROOT / "scripts" / "budgets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_peak_is_the_childs_own_after_a_large_parent(tmp_path):
    # raise this process's high-water mark to ~150 MB; a spawned child's
    # ru_maxrss starts from it, its own VmHWM does not
    ballast = b"\x01" * (150 << 20)
    del ballast
    result = load_budgets().run_case(str(ROOT / "src"), ["info", "--type", "1", "--json"], tmp_path)
    assert result["exit"] == 0
    assert 0 < result["peak_mb"] < 60
