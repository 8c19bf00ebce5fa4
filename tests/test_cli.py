import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bielliptic import cli, transforms
from bielliptic.cli import run_command
from bielliptic.errors import PreconditionError
from bielliptic.lattice import MukaiVector, square
from bielliptic.transforms import TransformLog
from bielliptic.walls import classify_wall, saturate_lattice

from conftest import FIXTURES, plane_key, primitive_vectors, saturation_key


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


class TestPair:
    NINES = "9" * 4_000

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_answer_over_the_int_text_limit_exits_3(self, capsys, json_flag):
        # both flags parse; the pairing has about 8,000 digits and cannot be written
        code, out, err = run(
            capsys, "pair", "--type", "1", "--v", f"1,0,0,-{self.NINES}", "--w", f"{self.NINES},1,1,1", *json_flag
        )
        assert (code, out) == (3, "")
        assert err == (
            f"answer not printable: it holds an integer of more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit on int-to-text conversion (sys.set_int_max_str_digits)\n"
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_flag_value_over_the_int_text_limit_exits_2(self, capsys, json_flag):
        digits = sys.get_int_max_str_digits() + 1
        code, out, err = run(capsys, "pair", "--type", "1", "--v", "1,0,0," + "9" * digits, "--w", "1,1,1,1", *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith("bad flag value: Exceeds the limit") and f"value has {digits} digits" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("r", [cli.MAX_REDUCE_RANK + 1, 10**13 + 1])
    def test_rank_over_cap_exits_3(self, capsys, monkeypatch, r):
        # refused before the reduction starts: uncapped, r = 10^7 + 1 takes
        # 10^7 steps, and the JSON log is 37 bytes a step
        monkeypatch.setattr(cli, "reduce_to_table", _must_not_run)
        code, out, err = run(capsys, "reduce", "--type", "1", "--vector", f"{r},1,0,0", "--json")
        assert (code, out) == (3, "")
        assert f"--vector {r},1,0,0 has rank {r}, over the cap of {cli.MAX_REDUCE_RANK}" in err

    def test_rank_at_cap_is_reduced(self, monkeypatch):
        class Started(Exception):
            pass

        def started(t, v):
            assert v.r == cli.MAX_REDUCE_RANK
            raise Started

        monkeypatch.setattr(cli, "reduce_to_table", started)
        with pytest.raises(Started):
            run_command(["reduce", "--type", "1", "--vector", f"{cli.MAX_REDUCE_RANK},1,0,0"])

    def test_text_mode_builds_no_log(self, capsys, monkeypatch):
        def no_log(self):
            raise AssertionError("text mode prints no log")

        monkeypatch.setattr(TransformLog, "to_json", no_log)
        code, out, err = run(capsys, "reduce", "--type", "2", "--vector", "5,-3,2,-7")
        assert (code, err) == (0, "")
        assert out.startswith("5,-3,2,-7 -> ")

    def test_budget_exhausted_exits_3(self, capsys, monkeypatch):
        # with no b ever counted reduced, the real steps cycle psi_inv and a
        # twist at r = 1 and the loop never converges
        monkeypatch.setattr(transforms, "_b_reduced", lambda b, r, ordk: False)
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

    def test_huge_max_parts_is_bounded_by_the_pairing(self, capsys):
        # every part pairs >= 1 with v, so on v^2 = 80 no decomposition has
        # more than 80 parts, and a larger --max-parts changes nothing
        argv = ["wall", "classify", "--type", "1", "--v", "1,0,0,-40", "--w", "0,0,0,1", "--json"]
        code, out, err = run(capsys, *argv, "--max-parts", "80")
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--max-parts", "1000000000") == (0, out, "")

    @pytest.mark.parametrize(
        "v, w", [("1,3000,3001,5", "0,1,1,0"), ("1,0,0,-150001", "0,0,0,1")]
    )
    def test_square_over_cap_exits_3(self, capsys, monkeypatch, v, w):
        # refused before saturating: uncapped, the first walks 9,002,995
        # lattice lines (v^2 = 18,005,990) for about 20 s
        monkeypatch.setattr(cli, "saturate_lattice", _must_not_run)
        start = time.perf_counter()
        code, out, err = run(capsys, "wall", "classify", "--type", "1", "--v", v, "--w", w)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        v2 = square(MukaiVector.parse(v))
        assert v2 > cli.MAX_WALL_SQUARE
        assert f"--v {v} has v^2 = {v2}, over the cap of {cli.MAX_WALL_SQUARE}" in err

    def test_square_at_cap_is_classified(self, monkeypatch):
        class Started(Exception):
            pass

        def started(t, v, w):
            assert square(v) == cli.MAX_WALL_SQUARE
            raise Started

        monkeypatch.setattr(cli, "saturate_lattice", started)
        v = f"1,0,0,{-cli.MAX_WALL_SQUARE // 2}"
        with pytest.raises(Started):
            run_command(["wall", "classify", "--type", "1", "--v", v, "--w", "0,0,0,1"])

    def test_slice_rejects_collinear_vectors(self, capsys):
        code, out, err = run(
            capsys, "wall", "slice", "--type", "1", "--v", "1,2,0,-1", "--w", "-3,-6,0,3", "--H0", "1,1",
        )
        assert (code, out) == (3, "")
        assert err == "precondition violated: v and w are collinear; the wall locus is degenerate\n"  # no traceback

    def test_slice_rejects_negative_samples(self, capsys):
        code, out, err = run(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1",
            "--H0", "1,1", "--emit-samples", "-3", "--json",
        )
        assert code == 2
        assert out == ""
        assert "--emit-samples" in err

    @pytest.mark.parametrize("h0", ["1,2,3", "1"])
    def test_slice_rejects_an_H0_without_two_entries(self, capsys, h0):
        code, out, err = run(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1", "--H0", h0,
        )
        assert (code, out) == (2, "")
        assert err == f"bad flag value: expected a,b with two entries, got {h0!r}\n"

    def test_slice_locus(self, capsys):
        payload = run_json(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1",
            "--H0", "1,1", "--emit-samples", "4", "--json",
        )
        assert payload["locus"] == {"alpha": 0, "beta": 1, "gamma": 0}
        assert len(payload["samples"]) == 4

    def test_slice_samples_at_cap(self, capsys):
        payload = run_json(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1",
            "--H0", "1,1", "--emit-samples", str(cli.MAX_EMIT_SAMPLES), "--json",
        )
        assert len(payload["samples"]) == cli.MAX_EMIT_SAMPLES

    @pytest.mark.parametrize("n", [cli.MAX_EMIT_SAMPLES + 1, 10**9])
    def test_slice_samples_over_cap_exits_3(self, capsys, monkeypatch, n):
        # refused before the locus is computed, so nothing is built
        monkeypatch.setattr(cli, "wall_in_slice", _must_not_run)
        code, out, err = run(
            capsys,
            "wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1",
            "--H0", "1,1", "--emit-samples", str(n), "--json",
        )
        assert (code, out) == (3, "")
        assert f"--emit-samples {n} exceeds the cap of {cli.MAX_EMIT_SAMPLES}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--type", "9", "--vector", "2000000,1,0,0"],
        ["wall", "classify", "--type", "9", "--v", "1,3000,3001,5", "--w", "0,1,1,0"],
        ["wall", "slice", "--type", "0", "--v", "1,0,0,-1", "--w", "0,0,0,-1", "--H0", "1,1",
         "--emit-samples", "20000"],
        ["pair", "--type", "8", "--v", "1,2,3", "--w", "0,0,0,1"],
    ],
    ids=["reduce", "classify", "slice", "malformed-vector"],
)
def test_bad_type_is_named_before_a_cap(capsys, argv):
    # the call breaks a cap or has a malformed vector too, but the type is
    # checked first, before any other flag value is read
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    t = argv[argv.index("--type") + 1]
    assert err == f"precondition violated: surface type must be in 1..7, got {t}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--type", "1", "--v", "-1,0,0,2", "--w", "-2,1,0,3", "--json"],
        ["wall", "classify", "--type", "1", "--v", "-1,0,0,2", "--w", "-1,0,0,0", "--json"],
        ["reduce", "--type", "1", "--vector", "-3,1,1,0"],  # rank < 1: exit 3
        ["moduli", "report", "--type", "2", "--vector", "-2,0,1,1", "--json"],
        ["wall", "slice", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,-1", "--H0", "-1,1"],
        ["atlas", "--type", "1", "--bounds", "1,1,1,1", "--w", "-1,0,0,0", "--w", "-0,0,0,1"],
    ],
    ids=["pair", "classify", "reduce", "moduli", "slice", "atlas"],
)
def test_spaced_negative_vector_is_a_value(capsys, argv):
    # "--v -1,0,0,2" reads like "--v=-1,0,0,2", not as a flag with no value
    joined = []
    for tok in argv:
        if joined and joined[-1] in ("--v", "--w", "--vector", "--H0"):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    spaced = run(capsys, *argv)
    assert spaced == run(capsys, *joined)
    assert spaced[0] in (0, 3) and "expected one argument" not in spaced[2]


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

    @pytest.mark.parametrize("bound", [cli.MAX_ORACLE_BOUND + 1, 10**12])
    def test_bound_over_cap_exits_3(self, capsys, monkeypatch, bound):
        # refused before the scan starts
        monkeypatch.setattr(cli, "enumerate_equality_cases", _must_not_run)
        code, out, err = run(
            capsys, "oracle", "cases", "--m", "6", "--target", "0", "--bound", str(bound)
        )
        assert (code, out) == (3, "")
        assert f"--bound {bound} exceeds the cap of {cli.MAX_ORACLE_BOUND}" in err

    def test_bound_at_cap_is_scanned(self, monkeypatch):
        class Started(Exception):
            pass

        def started(m, target, bound):
            assert bound == cli.MAX_ORACLE_BOUND
            raise Started

        monkeypatch.setattr(cli, "enumerate_equality_cases", started)
        with pytest.raises(Started):
            run_command(
                ["oracle", "cases", "--m", "6", "--target", "0", "--bound", str(cli.MAX_ORACLE_BOUND)]
            )


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the budget check")


class TestAtlas:
    @pytest.mark.parametrize("bounds", ["9,9,9,9", "50000,0,0,0", "10000000000,1,1,1"])
    def test_box_over_cap_exits_3(self, capsys, monkeypatch, bounds):
        # refused before the sweep starts
        monkeypatch.setattr(cli, "_atlas_rows", _must_not_run)
        code, out, err = run(capsys, "atlas", "--type", "1", "--bounds", bounds, "--w", "0,0,0,1")
        assert (code, out) == (3, "")
        assert f"--bounds {bounds} spans" in err
        assert f"over the cap of {cli.MAX_ATLAS_VECTORS}" in err

    def test_box_under_cap_is_swept(self, capsys, monkeypatch):
        class Started(Exception):
            pass

        def started(t, bounds, generators):
            assert (t, bounds) == (1, [8, 8, 8, 8])
            raise Started

        # 17**4 = 83,521 vectors: under the cap, so the sweep starts
        monkeypatch.setattr(cli, "_atlas_rows", started)
        with pytest.raises(Started):
            run_command(["atlas", "--type", "1", "--bounds", "8,8,8,8", "--w", "0,0,0,1"])

    @pytest.mark.parametrize(
        "bounds, v2", [("0,129,1,0", 258), ("0,4000,1,0", 8000), ("2,22,22,2", 976)]
    )
    def test_square_over_cap_exits_3(self, capsys, monkeypatch, bounds, v2):
        # refused before the sweep starts: uncapped, a thin box costs about
        # the square of its largest v^2 (0,4000,1,0 took 9 s), and 2,22,22,2
        # (50,625 vectors) twice what 8,8,8,8 (83,521) costs
        monkeypatch.setattr(cli, "_atlas_rows", _must_not_run)
        code, out, err = run(capsys, "atlas", "--type", "1", "--bounds", bounds, "--w", "0,0,0,1")
        assert (code, out) == (3, "")
        assert err == (
            f"precondition violated: --bounds {bounds} reaches v^2 = {v2}, "
            f"over the cap of {cli.MAX_ATLAS_SQUARE}\n"
        )

    def test_generators_over_cap_exits_3(self, capsys, monkeypatch):
        # each --w is one more sweep of the box
        monkeypatch.setattr(cli, "_atlas_rows", _must_not_run)
        n = cli.MAX_ATLAS_GENERATORS + 1
        code, out, err = run(
            capsys, "atlas", "--type", "1", "--bounds", "1,1,1,1", *["--w", "0,0,0,1"] * n
        )
        assert (code, out) == (3, "")
        assert err == (
            f"precondition violated: --w is given {n} times, "
            f"over the cap of {cli.MAX_ATLAS_GENERATORS}\n"
        )

    @pytest.mark.parametrize("bounds", ["8,8,8,8", "0,128,1,0", "128,0,0,1"])
    def test_square_and_generators_at_cap_are_swept(self, monkeypatch, bounds):
        class Started(Exception):
            pass

        def started(t, bounds, generators):
            R, A, B, S = bounds
            assert 2 * (A * B + R * S) == cli.MAX_ATLAS_SQUARE
            assert len(generators) == cli.MAX_ATLAS_GENERATORS
            raise Started

        monkeypatch.setattr(cli, "_atlas_rows", started)
        generators = ["--w", "0,0,0,1"] * cli.MAX_ATLAS_GENERATORS
        with pytest.raises(Started):
            run_command(["atlas", "--type", "1", "--bounds", bounds, *generators])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--type", "9"], "surface type must be in 1..7, got 9"),
            (["--type", "1", "--w", "0,0,0,0"], "--w 0,0,0,0 is the zero vector"),
            (["--type", "1", "--bounds", "1,1,1"], "--bounds wants R,A,B,S nonnegative"),
        ],
        ids=["type", "zero-generator", "bounds"],
    )
    def test_bad_flag_exits_3_before_the_sweep(self, capsys, monkeypatch, tmp_path, flags, message):
        # the sweep skips rows that fail a precondition; a bad flag must not
        # reach it and come out as an empty CSV with exit 0.  It also wins
        # over an --out that cannot be opened (exit 2).
        monkeypatch.setattr(cli, "_atlas_rows", _must_not_run)
        monkeypatch.setattr(cli, "saturate_lattice", _must_not_run)
        monkeypatch.setattr(cli, "classify_wall", _must_not_run)
        code, out, err = run(
            capsys,
            "atlas", "--bounds", "1,1,1,1", "--w", "0,0,0,1", *flags,
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert (code, out) == (3, "")
        assert message in err

    def test_max_parts_flag_exits_2_before_the_sweep(self, capsys, monkeypatch):
        # atlas takes no --max-parts: a row reads only whether a witness
        # exists and the codimension bound, and neither depends on it
        monkeypatch.setattr(cli, "_atlas_rows", _must_not_run)
        monkeypatch.setattr(cli, "saturate_lattice", _must_not_run)
        monkeypatch.setattr(cli, "classify_wall", _must_not_run)
        code, out, err = run(
            capsys,
            "atlas", "--type", "1", "--max-parts", "4", "--bounds", "1,1,1,1", "--w", "0,0,0,1",
        )
        assert (code, out) == (2, "")
        assert "--max-parts" in err

    def test_unwritable_out_exits_2(self, capsys, monkeypatch, tmp_path):
        # --out is opened before the sweep: a box this size would take seconds
        monkeypatch.setattr(cli, "_atlas_rows", _must_not_run)
        monkeypatch.setattr(cli, "saturate_lattice", _must_not_run)
        monkeypatch.setattr(cli, "classify_wall", _must_not_run)
        code, out, err = run(
            capsys,
            "atlas", "--type", "1", "--bounds", "8,8,8,8",
            "--w", "0,0,0,1", "--w", "1,0,0,0", "--w", "1,1,1,1",
            "--out", str(tmp_path / "no" / "such" / "dir.csv"),
        )
        assert (code, out) == (2, "")
        assert "--out" in err

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

    def test_lines_are_the_bytes_csv_writes(self, capsys):
        # The sweep writes each row as a line of text.  csv must read it
        # back and write the same bytes, and the rows must come in (v, w)
        # order where one name begins another: the generators 0,0,0,1 and
        # 0,0,0,10, and v = 1,0,0,-1 and 1,0,0,-10.  Negative entries, a
        # generator with content 2, one that D moves and a repeated one
        # are in the list
        generators = ["0,0,0,1", "0,0,0,10", "0,2,-2,0", "1,-1,0,2", "0,0,0,1"]
        argv = ["atlas", "--type", "1", "--bounds", "1,1,1,10"]
        code, out, err = run(capsys, *argv, *(f for w in generators for f in ("--w", w)))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        again = io.StringIO()
        csv.writer(again).writerows(rows)
        assert again.getvalue() == out
        header, body = rows[0], rows[1:]
        assert header == ["type", "v", "w", "tss", "labels", "codim_bound"]
        assert body == sorted(body)
        pairs = {(v, w) for _, v, w, *_ in body}
        assert {("1,0,0,-1", "0,0,0,1"), ("1,0,0,-1", "0,0,0,10")} <= pairs
        assert {("1,0,0,-10", "0,0,0,1"), ("-1,-1,-1,1", "0,2,-2,0"), ("-1,-1,-1,10", "0,2,-2,0")} <= pairs

    @pytest.mark.parametrize("t", range(1, 8))
    def test_golden_digests(self, capsys, t):
        with open(FIXTURES.parent / "bench" / "golden.json") as fh:
            golden = json.load(fh)["atlas"]
        assert len(golden) == 7
        for pair, digests in sorted(golden.items()):
            w1, w2 = pair.split(";")
            code, out, err = run(
                capsys, "atlas", "--type", str(t), "--bounds", "3,2,2,3", "--w", w1, "--w", w2
            )
            assert (code, err) == (0, ""), pair
            assert hashlib.sha256(out.encode()).hexdigest() == digests[str(t)], pair

    def test_each_plane_is_built_once_per_generator(self, capsys, monkeypatch):
        # The sweep keys its plane memo by u, the primitive part of
        # v - (y.v) w0 with its first nonzero entry positive, so one plane
        # through w0 must reach wall_plane once.  Without the sign flip u and
        # -u would build it twice.  For a generator that the dual D keeps the
        # sweep visits only one v of each orbit {+-v, +-Dv}, and on this box
        # those never meet a plane with both signs of u, so 1,1,1,0 and
        # 0,1,0,0, which D moves, are in the list
        calls, build = [], cli.wall_plane

        def recorder(t, w0, u):
            calls.append((t, w0, plane_key(MukaiVector(*w0), MukaiVector(*u))))
            return build(t, w0, u)

        monkeypatch.setattr(cli, "wall_plane", recorder)
        for t in range(1, 8):
            code, _, err = run(
                capsys, "atlas", "--type", str(t), "--bounds", "3,2,2,3",
                "--w", "0,0,0,1", "--w", "1,0,0,0", "--w", "1,1,1,0", "--w", "0,1,0,0",
            )
            assert (code, err) == (0, "")
        assert calls
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize(
        "t, bounds, least, shared",
        [pytest.param(t, "2,1,1,2", 101, 0, id=str(t)) for t in range(1, 8)]
        + [
            pytest.param(t, bounds, least, shared, id=f"{t}-{bounds}")
            for t, bounds, least, shared in [
                (1, "0,2,2,3", 50, 0), (6, "0,1,1,2", 10, 0), (2, "3,0,0,3", 50, 0),
                (4, "0,0,2,3", 0, 0), (3, "0,2,2,0", 10, 0), (5, "3,0,0,3", 50, 0),
                (7, "3,2,2,3", 2000, 0),
                # 110 walls with 9 keys, each of them on two planes or more
                (3, "1,1,1,1", 100, 9),
            ]
        ],
    )
    def test_rows_match_one_wall_at_a_time(self, capsys, t, bounds, least, shared):
        # The sweep builds each plane once.  A non-primitive generator
        # (0,0,0,2 beside 0,0,0,1), a non-isotropic one (1,1,1,0) and a
        # repeated one put many rows on a plane seen before; each row must
        # still equal the wall classified on its own.  The sweep classifies
        # one v of each class {v, -v}, or {+-v, +-Dv} for a generator that
        # the dual D: (r, a, b, s) -> (r, -a, -b, s) keeps up to sign
        # (2,0,0,-1 and 0,0,0,1 it fixes, 0,1,-1,0 it negates; 1,1,1,0 it
        # moves), and copies its row to the other members.  The boxes with
        # zero bounds put r = 0, or a = b = 0, on the box's edge (r = a = 0
        # gives v^2 = 0, so 0,0,2,3 has no rows); in 3,0,0,3 every v has
        # Dv = v and in 0,2,2,0 every v has Dv = -v, so each class there
        # must be written twice, not four times.  The reference classifies
        # every v on its own.  The sweep classifies one wall per
        # walls.wall_key, so a key that walls on distinct planes share
        # (counted in `shared`) must give each of them its own row.
        generators = [
            "0,0,0,1", "0,0,0,2", "1,1,1,0", "1,0,0,0", "0,0,0,1", "2,0,0,-1", "0,1,-1,0"
        ]
        argv = ["atlas", "--type", str(t), "--bounds", bounds]
        code, out, err = run(capsys, *argv, *(f for w in generators for f in ("--w", w)))
        assert (code, err) == (0, "")
        R, A, B, S = map(int, bounds.split(","))
        expected, planes = [], {}
        for r in range(-R, R + 1):
            for a in range(-A, A + 1):
                for b in range(-B, B + 1):
                    for s in range(-S, S + 1):
                        v = MukaiVector(r, a, b, s)
                        if square(v) <= 0:
                            continue
                        for w in generators:
                            try:
                                c = classify_wall(saturate_lattice(t, v, MukaiVector.parse(w)))
                            except PreconditionError:
                                continue
                            key = saturation_key(t, v, MukaiVector.parse(w))
                            planes.setdefault(key, set()).add(plane_key(v, MukaiVector.parse(w)))
                            codim = c.codim_bound
                            expected.append(
                                [
                                    str(t), v.text(), w,
                                    "true" if c.totally_semistable else "false",
                                    ";".join(sorted(c.labels)),
                                    "inf" if codim is None else str(codim),
                                ]
                            )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) >= least
        assert rows == sorted(expected)
        assert sum(len(on) > 1 for on in planes.values()) >= shared


class TestEntryPoint:
    """`python -m bielliptic.cli` and the package import, each in a fresh interpreter."""

    @staticmethod
    def _python(*args):
        env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )

    def test_module_entry_matches_in_process(self, capsys):
        argv = ["info", "--type", "7", "--json"]
        proc = self._python("-m", "bielliptic.cli", *argv)
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stderr) == (code, err) == (0, "")
        assert proc.stdout == out

    def test_package_imports(self):
        proc = self._python("-c", "import bielliptic")
        assert (proc.returncode, proc.stderr) == (0, "")


def _bench_workloads():
    """bench/workloads.py, loaded by path (read only)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", FIXTURES.parent / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_golden_digest():
    workloads = _bench_workloads()
    with open(FIXTURES.parent / "bench" / "golden.json") as fh:
        golden = json.load(fh)["cli"]
    calls = workloads.cli_calls(
        random.Random(workloads.CLI_GOLDEN_SEED), workloads.CLI_CALLS_PER_BATCH
    )
    # twice in one process: the one shared parser must carry nothing between calls
    assert [workloads.cli_golden_digest(calls) for _ in range(2)] == [golden, golden]
    assert cli.build_parser() is cli.build_parser()


# Text mode pins what the golden corpus, which passes --json on every valid
# call, does not: the same calls without the flag, plus calls of the kinds
# that the corpus lacks or draws rarely.
_TEXT_CALLS = [
    ["info", "--type", "3"],
    ["pair", "--type", "1", "--v", "2,0,0,0", "--w", "1,1,1,1"],  # no l(v): not primitive
    ["reduce", "--type", "5", "--vector", "7,3,-2,5"],
    ["wall", "classify", "--type", "1", "--v", "1,0,0,-40", "--w", "0,0,0,1"],  # a witness
    ["wall", "classify", "--type", "1", "--v", "2,0,0,-2", "--w", "0,0,0,1"],  # none
    ["wall", "slice", "--type", "1", "--v", "0,1,-1,0", "--w", "0,0,0,1", "--H0", "1,1",
     "--emit-samples", "2"],  # everywhere
    ["wall", "slice", "--type", "1", "--v", "0,0,0,1", "--w", "0,1,0,0", "--H0", "1,1",
     "--emit-samples", "2"],  # nowhere
    ["wall", "slice", "--type", "2", "--v", "1,0,0,0", "--w", "0,1,1,0", "--H0", "1,1"],
    ["moduli", "report", "--type", "1", "--vector", "1,0,0,1"],  # v^2 < 0: no singularities
    ["moduli", "report", "--type", "6", "--vector", "2,0,1,-1", "--generic-surface"],
    ["oracle", "cases", "--m", "6", "--target", "1", "--bound", "1"],
    ["atlas", "--type", "2", "--bounds", "1,1,1,1", "--w", "0,0,0,1", "--w", "1,1,1,0"],
    ["atlas", "--type", "1", "--bounds", "1,1,1,1", "--w", "0,0,0,0"],
]


def test_cli_text_digest():
    workloads = _bench_workloads()
    calls = workloads.cli_calls(
        random.Random(workloads.CLI_GOLDEN_SEED), workloads.CLI_CALLS_PER_BATCH
    )
    argvs = [[a for a in argv if a != "--json"] for argv, _, _ in calls] + _TEXT_CALLS
    digest = workloads.cli_golden_digest([(argv, None, None) for argv in argvs])
    assert digest == "f0eb946e419987373d64fedbb24b3824e0c5caa6b7fb6f9807fdc83137d8baab"


# ---------------------------------------------------------------------------
# fuzz: argv drawn from the parser's grammar plus junk ends in exit 0, 2 or 3

_JUNK = st.one_of(
    st.sampled_from(
        ["", "x", "1,2", "1,2,3", "1,2,3,4,5", "1.5,0,0,0", "1,,2,3", "a,b,c,d", "-",
         "--", "-1", "0", "10" * 30, "9" * 5000, "--json", "--nope", "-h", "wall", "1,1"]
    ),
    st.text(max_size=6),
)


def _value(valid, invalid):
    """Of six draws, four are valid values, one is out of range and one is junk."""
    return st.integers(0, 5).flatmap(
        lambda i: (valid if i < 4 else invalid if i == 4 else _JUNK).map(str)
    )


def _joined(*parts):
    return st.tuples(*parts).map(lambda p: ",".join(map(str, p)))


_SMALL = st.integers(-4, 4)
_VECTOR = _value(_joined(_SMALL, _SMALL, _SMALL, _SMALL), _joined(_SMALL, _SMALL, _SMALL))
_TYPE = ("--type", _value(st.integers(1, 7), st.sampled_from([-1, 0, 8, 9])))
# huge values: the witness walk takes one step per candidate or part, so they answer as fast as 4
_MAX_PARTS = (
    "--max-parts",
    _value(st.one_of(st.integers(2, 4), st.sampled_from([10**9, 10**30])), st.integers(-1, 1)),
)
_JSON = ("--json", None)
# (leading tokens, [(flag, value strategy, or None for a switch)])
_GRAMMAR = [
    (["info"], [_TYPE, _JSON]),
    (["pair"], [_TYPE, ("--v", _VECTOR), ("--w", _VECTOR), _JSON]),
    (["reduce"], [_TYPE, ("--vector", _VECTOR), _JSON]),
    (["wall", "classify"], [_TYPE, ("--v", _VECTOR), ("--w", _VECTOR), _MAX_PARTS, _JSON]),
    (["wall", "slice"], [
        _TYPE, ("--v", _VECTOR), ("--w", _VECTOR),
        ("--H0", _value(_joined(st.integers(1, 4), st.integers(1, 4)), _joined(st.integers(-1, 0), st.integers(-1, 4)))),
        ("--emit-samples", _value(st.integers(0, 8), st.sampled_from([-1, cli.MAX_EMIT_SAMPLES + 1, 10**12]))),
        _JSON,
    ]),
    (["moduli", "report"], [_TYPE, ("--vector", _VECTOR), ("--generic-surface", None), _JSON]),
    (["oracle", "cases"], [
        ("--m", _value(st.sampled_from([2, 3, 4, 6]), st.sampled_from([0, 1, 5, 7]))),
        ("--target", _value(st.sampled_from([0, 1]), st.sampled_from([-1, 2]))),
        ("--bound", _value(
            st.integers(1, 6),
            st.one_of(st.integers(-1, 0), st.sampled_from([cli.MAX_ORACLE_BOUND + 1, 10**12])),
        )),
        _JSON,
    ]),
    (["atlas"], [
        _TYPE,
        ("--bounds", _value(
            _joined(*[st.integers(0, 1)] * 4),
            st.sampled_from(["9,9,9,9", "100000,0,0,0", "-1,0,0,0", "1,1,1"]),
        )),
        ("--w", _VECTOR),
        ("--w", _VECTOR),
        ("--out", _value(st.just("atlas.csv"), st.sampled_from([".", "no/such/dir/atlas.csv"]))),
    ]),
]


@st.composite
def _argvs(draw):
    lead, flags = draw(st.sampled_from(_GRAMMAR))
    argv = list(lead)
    for flag, values in flags:
        # usually once; sometimes missing (even when required) or given twice
        times = draw(st.integers(0, 9).map(lambda i: 1 if i < 8 else 0 if i == 8 else 2))
        for _ in range(times):
            if values is None:
                argv.append(flag)
            elif draw(st.booleans()):
                argv.append(f"{flag}={draw(values)}")
            else:
                argv += [flag, draw(values)]  # also for a value that starts with "-"
    for _ in range(draw(st.integers(0, 5).map(lambda i: max(0, i - 3)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


# four draws in five follow the grammar, the fifth is junk alone
_FUZZED_ARGV = st.integers(0, 4).flatmap(lambda i: _argvs() if i < 4 else st.lists(_JUNK, max_size=4))


@given(_FUZZED_ARGV)
@example(["pair", "--type=1", "--v=0,0,0,0", "--w=--"])
@example(["wall", "slice", "--type=1", "--v=1,0,0,-1", "--w=0,0,0,-1", "--H0=1,1", "--emit-samples=--"])
@example(["atlas", "--type=1", "--bounds=0,0,0,1", "--w=0,0,0,1", "--w=--"])
@example(["atlas", "--type=1", "--bounds=0,0,0,1", "--w=0,0,0,1", "--max-parts=4"])
@example(["wall", "classify", "--type", "1", "--v", "-1,0,0,2", "--w", "-", "--json"])
@example(["pair", "--type", "1", "--v", "--w", "-1,0,0,2"])
@example(["reduce", "--type", "1", "--vector", "-1,0"])
@settings(max_examples=600, deadline=None)
def test_fuzzed_argv_ends_in_a_named_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()


# ---------------------------------------------------------------------------
# dispatch: one parse by the leaf parser that argv's command words name
# stands for argparse's nested parse through the top parser


def _parse_outcome(parse, argv):
    """(namespace less the command dests, SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = {k: v for k, v in vars(parse(argv)).items() if k != "command" and not k.endswith("_command")}
        except SystemExit as e:
            code = e.code
    return ns, code, out.getvalue(), err.getvalue()


@given(_FUZZED_ARGV)
@example(["-h"])
@example(["info", "-h"])
@example(["pair", "-h"])
@example(["reduce", "-h"])
@example(["wall", "classify", "-h"])
@example(["wall", "slice", "-h"])
@example(["moduli", "report", "-h"])
@example(["oracle", "cases", "-h"])
@example(["atlas", "-h"])
@example(["wall"])
@example(["wall", "--help"])
@example(["info", "classify"])
@example(["wall", "classify", "--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,1", "junk", "--nope"])
@example(["reduce", "--vec", "1,0,0,0"])
@example(["pair", "--w=--"])
@settings(max_examples=400, deadline=None)
def test_dispatch_matches_nested_parse(argv):
    parser, leaves = cli.build_parser()
    nested = _parse_outcome(parser.parse_args, argv)
    assert _parse_outcome(lambda a: cli._parse(parser, leaves, a), argv) == nested


_LEAF_CALLS = {
    ("info",): ["--type", "1"],
    ("pair",): ["--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,1"],
    ("reduce",): ["--type", "1", "--vector", "2,1,0,0"],
    ("wall", "classify"): ["--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,1"],
    ("wall", "slice"): ["--type", "1", "--v", "1,0,0,-1", "--w", "0,0,0,1", "--H0", "1,1"],
    ("moduli", "report"): ["--type", "1", "--vector", "1,0,0,-1"],
    ("oracle", "cases"): ["--m", "2", "--target", "0", "--bound", "2"],
    ("atlas",): ["--type", "1", "--bounds", "0,0,0,1", "--w", "0,0,0,1"],
}


@pytest.mark.parametrize("words", list(_LEAF_CALLS), ids=" ".join)
def test_a_call_is_one_parse(monkeypatch, capsys, words):
    calls = 0
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_command([*words, *_LEAF_CALLS[words]]) == 0
    assert calls == 1
    assert set(cli.build_parser()[1]) == set(_LEAF_CALLS)
