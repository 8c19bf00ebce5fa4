import csv
import hashlib
import json

import pytest
from hypothesis import given
import hypothesis.strategies as st

from bielliptic import transforms
from bielliptic.cli import run_command
from bielliptic.lattice import MukaiVector, square
from bielliptic.transforms import TransformLog

from conftest import FIXTURES, primitive_vectors


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestInfo:
    def test_row(self, capsys):
        payload = run_json(capsys, "info", "--type", "7")
        assert payload == {
            "type": 7,
            "ord_k": 6,
            "lambda": 1,
            "g_order": 6,
            "multiplicities": [2, 3, 6],
        }

    def test_schema_flag(self, capsys):
        payload = run_json(capsys, "info", "--type", "1", "--json")
        assert payload["schema"] == 1

    def test_invalid_type_exits_3(self, capsys):
        code, _, err = run(capsys, "info", "--type", "9")
        assert code == 3
        assert "surface type" in err

    def test_flag_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "info")
        assert code == 2


class TestReduce:
    def test_documented_example(self, capsys):
        payload = run_json(capsys, "reduce", "--type", "1", "--vector", "3,1,1,0", "--json")
        assert payload["reduced"] == "1,0,0,-1"
        assert payload["square"] == 2
        assert payload["in_table"] is True

    def test_log_replays(self, capsys):
        payload = run_json(capsys, "reduce", "--type", "4", "--vector", "7,3,-2,5", "--json")
        v = MukaiVector.parse(payload["input"])
        log = TransformLog.from_json(payload["log"])
        assert log.replay(4, v) == MukaiVector.parse(payload["reduced"])

    @given(primitive_vectors(rmax=15), st.integers(1, 7))
    def test_round_trip_and_replay(self, v, t):
        code = run_command(["reduce", "--type", str(t), "--vector", v.text(), "--json"])
        assert code == 0

    def test_round_trip_parse(self, capsys):
        payload = run_json(capsys, "reduce", "--type", "2", "--vector", "5,-3,2,-7", "--json")
        for key in ("input", "reduced"):
            vec = MukaiVector.parse(payload[key])
            assert vec.text() == payload[key]

    def test_precondition_exit(self, capsys):
        code, _, err = run(capsys, "reduce", "--type", "1", "--vector", "0,1,0,0")
        assert code == 3
        assert "rank" in err

    def test_budget_exhausted_exits_3(self, capsys, monkeypatch):
        # with every step acting as the identity the loop never converges
        monkeypatch.setattr(transforms, "_act", lambda step, lam, ordk, r, a, b, s: (r, a, b, s))
        code, out, err = run(capsys, "reduce", "--type", "1", "--vector", "3,1,1,0", "--json")
        assert code == 3
        assert out == ""
        assert "reduction of 3,1,1,0 on type 1" in err
        assert "budget of 20*r + 100 = 160 rounds" in err
        assert "Traceback" not in err


class TestWall:
    def test_classify_named_instance(self, capsys):
        payload = run_json(
            capsys, "wall", "classify", "--type", "1", "--v", "1,0,0,-2", "--w", "0,0,0,1", "--json"
        )
        assert "HilbertChowDivisorial" in payload["labels"]
        assert payload["totally_semistable"] is True
        assert payload["codim_bound"] == 0

    def test_classify_precondition(self, capsys):
        code, _, err = run(
            capsys, "wall", "classify", "--type", "1", "--v", "1,0,0,-2", "--w", "2,0,0,-4"
        )
        assert code == 3
        assert "collinear" in err

    def test_slice_rejects_negative_samples(self, capsys):
        code, out, err = run(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1",
            "--H0", "1,1", "--emit-samples", "-3", "--json",
        )
        assert code == 2
        assert out == ""
        assert "--emit-samples" in err

    def test_slice_locus(self, capsys):
        payload = run_json(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1",
            "--H0", "1,1", "--emit-samples", "4", "--json",
        )
        assert payload["locus"] == {"alpha": 0, "beta": 1, "gamma": 0}
        assert len(payload["samples"]) == 4


class TestModuli:
    def test_report(self, capsys):
        payload = run_json(
            capsys, "moduli", "report", "--type", "1", "--vector", "2,0,1,-1", "--json"
        )
        assert payload["mus_nonempty"] is True
        assert payload["stable_dimension"] == 5
        assert payload["exceptional"] == "Rank2Type1B0"
        assert payload["bridgeland_nonempty"] is True
        assert payload["singularities"]["sing_dim_bound"] == "4"


class TestOracle:
    def test_cases(self, capsys):
        payload = run_json(capsys, "oracle", "cases", "--m", "2", "--target", "0", "--json")
        entries = {(c["l1"], c["l2"], c["q"], c["b1"], c["b2"]) for c in payload["cases"]}
        assert (2, 2, 2, 1, 1) in entries
        assert (1, 2, 1, 2, 1) in entries


class TestAtlas:
    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "atlas.csv"
        code, _, _ = run(
            capsys,
            "atlas", "--type", "1", "--bounds", "2,1,1,2", "--w", "0,0,0,1",
            "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"type", "v", "w", "tss", "labels", "codim_bound"}
        assert rows == sorted(rows, key=lambda r: (r["type"], r["v"], r["w"]))
        named = [r for r in rows if r["v"] == "1,0,0,-2"]
        assert named and "HilbertChowDivisorial" in named[0]["labels"]
        for row in rows:
            assert square(MukaiVector.parse(row["v"])) > 0

    @pytest.mark.parametrize("t", range(1, 8))
    def test_golden_digests(self, capsys, t):
        with open(FIXTURES.parent / "bench" / "golden.json") as fh:
            golden = json.load(fh)["atlas"]["0,0,0,1;1,0,0,0"]
        code, out, err = run(
            capsys,
            "atlas", "--type", str(t), "--bounds", "3,2,2,3",
            "--w", "0,0,0,1", "--w", "1,0,0,0",
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == golden[str(t)]
