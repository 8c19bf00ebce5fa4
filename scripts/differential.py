#!/usr/bin/env python3
"""Compare this checkout's wall classifier, reduction loop and CLI with
another checkout's on fixed-seed lists of walls, reductions and CLI calls.

    python3 scripts/differential.py --against PATH [--walls N]

PATH is another checkout, or its src directory.  Each tree's library runs
in its own child process over the same lists and writes one JSON line per
wall: the class and message of the error saturate_lattice raises, or the
classify_wall result (tss, the tss witness, the sorted labels, the
codimension bound, the witnesses of every label) and the classify_key row
of the wall's wall_key.  The witnesses are skipped above v^2 = 3,000,
where the witness walk can list every positive class; up to v^2 = 60 the
row also holds min_codim_oracle's bound, which the oracle recomputes on
its own, and whether <v, e2> = 0 on the wall's basis, where the oracle
swaps e1 and e2.  It then writes one
JSON line per reduction: the reduced vector's text, matches_reduced_form
of it, the log's length and the SHA-256 of the log's JSON; then one per
CLI call, made through cli.run_command with its output captured: the exit
status and the SHA-256 of stdout, a NUL and stderr.  The script prints one
summary line, lists the first differing walls, reductions or calls on
stderr and exits 1 on any difference.

The list is the atlas box 3,2,2,3 against 0,0,0,1 and 1,0,0,0 on all 7
types; 2,000 random walls with 0 < v^2 <= 3,000; and 20 walls with v^2
from 10^4 to 3*10^5, drawn as in ROADMAP's Baselines (r <= 9, |a|, |b| <=
400, |s| <= 30,000, w in the box 3, random type); and 210 walls that reach
the oracle's swap with a bound: v = (m, 0, 0, -m*n) for m = 2, n <= 7 and
m = 3, n <= 3 (so v^2 <= 60), against (0,1,-1,0), (0,1,-2,0) and
(0,2,-1,0), which pair to 0 with v, on all 7 types.  The reductions are
1,000 (type, v) pairs drawn as the bench's reduce workload draws them,
alternately with r, |a|, |b|, |s| <= 40 and <= 10^6, plus one input per
branch of the reduction loop and per way a PHI_INV run ends, and 49 long
runs: r = 10^6 with a = 1, 2, 3 and s = +-(10^12 - 1), and the twist-heavy
cap 1000000,1,0,999999, on all 7 types.  The long runs take about 2.5
minutes a tree on a 2-core VM, nearly all of it in writing and hashing
their logs' JSON (a twist per step, each of its own (a, b)), so only a run
without --walls compares them.  The CLI calls are 1,000 argv drawn from
every subcommand but atlas: about 700 valid ones, --json or not, and 300
invalid ones (an unknown or trailing flag, an abbreviated flag, -h, a
missing command word, a bad value), plus -h on the top parser and on each
command; then 200 `wall slice` calls with vector entries up to about 10^6
and --emit-samples 1 to 12, half of them on a circle through a rational
point of the sample scan's box (slice_list).  --walls N compares N walls
spread evenly over the wall list, every reduction but the long runs and
every call.  Interrupted (Ctrl-C or SIGTERM), the script ends its two
children before it exits.
Standard library only.
"""

import argparse
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WITNESS_SQUARE = 3_000  # the largest v^2 whose witnesses are compared
ORACLE_SQUARE = 60  # the largest v^2 whose oracle bound is compared

CHILD = """\
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from bielliptic.cli import run_command
from bielliptic.errors import BiellipticError, PreconditionError
from bielliptic.lattice import MukaiVector, l_invariant_any, mukai_pairing, square
from bielliptic.oracle import min_codim_oracle
from bielliptic.transforms import matches_reduced_form, reduce_to_table
from bielliptic.walls import classify_key, classify_wall, saturate_lattice, wall_key
with open(sys.argv[2]) as f:
    walls, reductions, calls = json.load(f)
for t, vt, wt in walls:
    v = MukaiVector.of(*vt)
    try:
        H = saturate_lattice(t, v, MukaiVector.of(*wt))
    except PreconditionError as e:
        print(json.dumps({"error": [type(e).__name__, str(e)]}))
        continue
    c = classify_wall(H)
    tss, labels, codim = classify_key(t, wall_key(H.gram, H.vxy, l_invariant_any(t, v), H.rays))
    row = {
        "tss": c.totally_semistable,
        "tss_witness": c.tss_witness.text() if c.tss_witness else None,
        "labels": sorted(c.labels),
        "codim_bound": c.codim_bound,
        "key_row": [bool(tss), sorted(labels), codim],
    }
    if square(v) <= int(sys.argv[3]):
        row["witnesses"] = {label: [u.text() for u in us] for label, us in sorted(c.witnesses.items())}
    if square(v) <= int(sys.argv[4]):
        row["oracle"] = min_codim_oracle(H)
        row["oracle_swaps"] = mukai_pairing(v, MukaiVector.of(*H.basis[1])) == 0
    print(json.dumps(row))
for t, vt in reductions:
    try:
        v0, log = reduce_to_table(t, MukaiVector.of(*vt))
    except BiellipticError as e:
        print(json.dumps({"error": [type(e).__name__, str(e)]}))
        continue
    digest = hashlib.sha256(json.dumps(log.to_json()).encode()).hexdigest()
    print(json.dumps([v0.text(), matches_reduced_form(t, v0), len(log), digest]))
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    print(json.dumps([code, hashlib.sha256((out.getvalue() + "\\0" + err.getvalue()).encode()).hexdigest()]))
"""


def square(v) -> int:
    r, a, b, s = v
    return 2 * (a * b - r * s)


def box_walls() -> list:
    """Every wall of the atlas sweep on the box 3,2,2,3, both generators, all types."""
    vs = [
        (r, a, b, s)
        for r in range(4) for a in range(-2, 3) for b in range(-2, 3) for s in range(-3, 4)
        if (r, a, b, s) > (0, 0, 0, 0) and a * b > r * s
    ]
    return [[t, v, w] for t in range(1, 8) for v in vs for w in ((0, 0, 0, 1), (1, 0, 0, 0))]


def random_walls(rng: random.Random, n: int, lo: int, hi: int, bounds: tuple) -> list:
    """n walls (t, v, w) with lo <= v^2 <= hi, v drawn from the box bounds
    (r from 0) and w from the box 3, not zero."""
    rb, ab, bb, sb = bounds
    out = []
    while len(out) < n:
        v = (rng.randint(0, rb), rng.randint(-ab, ab), rng.randint(-bb, bb), rng.randint(-sb, sb))
        w = (rng.randint(0, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        if lo <= square(v) <= hi and any(w):
            out.append([rng.randint(1, 7), v, w])
    return out


def swap_walls() -> list:
    """v = (m, 0, 0, -m*n) with v^2 = 2*m^2*n <= ORACLE_SQUARE for m = 2, 3
    against three w with <v, w> = 0, on all 7 types.  Their basis has
    <v, e2> = 0, and as content(v) = m >= 2 a positive class lies on the
    line <v, p> = v^2 / m, so the oracle's swap path returns a bound."""
    vs = [(m, 0, 0, -m * n) for m in (2, 3) for n in range(1, ORACLE_SQUARE // (2 * m * m) + 1)]
    return [[t, v, w] for t in range(1, 8) for v in vs for w in ((0, 1, -1, 0), (0, 1, -2, 0), (0, 2, -1, 0))]


def wall_list() -> list:
    return (
        box_walls()
        + random_walls(random.Random(1), 2_000, 1, WITNESS_SQUARE, (6, 40, 40, 250))
        + random_walls(random.Random(5), 20, 10_000, 300_000, (9, 400, 400, 30_000))
        + swap_walls()
    )


# one input per branch of reduce_to_table and per way a PHI_INV run ends, as
# tests/test_transforms.py pins them in REFERENCE_BRANCHES
BRANCH_REDUCTIONS = [
    [6, (3, -1, -3, -3)], [1, (2, -1, -2, -2)], [6, (2, -1, -2, -2)], [2, (2, -1, -2, -2)],
    [5, (3, -3, -1, -3)], [1, (3, -3, -2, -3)], [5, (2, -2, -1, -2)], [6, (3, 1, 2, 0)],
    [6, (9, -6, -3, -8)], [6, (9, -6, -2, -9)], [3, (3, -3, -2, -3)], [6, (18, 25, 20, -23)],
    [1, (1000, 1, 0, 0)], [1, (1000, 1, 0, 999)],
    [2, (10, 1, 0, 3)], [6, (17, 2, 0, -5)], [1, (13, 3, 0, 7)], [1, (9, 3, 1, 2)],
    [2, (20, 3, 1, -5)], [4, (1000, 1, 0, -999)], [6, (1000, 1, 0, -999)], [7, (1000, 3, 5, -99999)],
]
# long PHI_INV runs on every type: r = 10^6, a = 1..3 and |s| = 10^12 - 1 of
# both signs, and the twist-heavy cap, a twist between every two steps
LONG_RUNS = [
    [t, v]
    for t in range(1, 8)
    for v in [(10**6, a, 0, sign * (10**12 - 1)) for a in (1, 2, 3) for sign in (1, -1)] + [(10**6, 1, 0, 999_999)]
]


def primitive(rng: random.Random, n: int) -> tuple:
    """A primitive (r, a, b, s) with 1 <= r <= n and |a|, |b|, |s| <= n."""
    while True:
        v = (rng.randint(1, n),) + tuple(rng.randint(-n, n) for _ in range(3))
        if math.gcd(*v) == 1:
            return v


def reduction_list(long_runs: bool) -> list:
    rng = random.Random(3)
    drawn = [[rng.randint(1, 7), primitive(rng, n)] for _ in range(500) for n in (40, 10**6)]
    return drawn + BRANCH_REDUCTIONS + (LONG_RUNS if long_runs else [])


def _vector(rng: random.Random) -> str:
    return ",".join(str(rng.randint(lo, 4)) for lo in (0, -4, -4, -4))


# command words -> [(flag, draw of a valid value, or None for a switch)]
CLI_GRAMMAR = {
    ("info",): [("--type", lambda rng: str(rng.randint(1, 7)))],
    ("pair",): [("--type", lambda rng: str(rng.randint(1, 7))), ("--v", _vector), ("--w", _vector)],
    ("reduce",): [("--type", lambda rng: str(rng.randint(1, 7))), ("--vector", _vector)],
    ("wall", "classify"): [
        ("--type", lambda rng: str(rng.randint(1, 7))), ("--v", _vector), ("--w", _vector),
        ("--max-parts", lambda rng: str(rng.randint(2, 4))),
    ],
    ("wall", "slice"): [
        ("--type", lambda rng: str(rng.randint(1, 7))), ("--v", _vector), ("--w", _vector),
        ("--H0", lambda rng: f"{rng.randint(1, 3)},{rng.randint(1, 3)}"),
        ("--emit-samples", lambda rng: str(rng.randint(0, 3))),
    ],
    ("moduli", "report"): [
        ("--type", lambda rng: str(rng.randint(1, 7))), ("--vector", _vector), ("--generic-surface", None),
    ],
    ("oracle", "cases"): [
        ("--m", lambda rng: str(rng.choice((2, 3, 4, 6)))), ("--target", lambda rng: str(rng.randint(0, 1))),
        ("--bound", lambda rng: str(rng.randint(1, 6))),
    ],
}
LEAVES = [*CLI_GRAMMAR, ("atlas",)]
BAD_VALUES = ["0", "8", "1,2,3", "x", "-", "--", "-1"]


def valid_call(rng: random.Random, words: tuple) -> list:
    """words, then every flag of the command once, in random order and
    spelling (--flag value or --flag=value); --json half the time."""
    flags = CLI_GRAMMAR[words] + [("--json", None)] * rng.randint(0, 1)
    rng.shuffle(flags)
    argv = list(words)
    for flag, draw in flags:
        if draw is None:
            argv.append(flag)
        elif rng.random() < 0.5:
            argv.append(f"{flag}={draw(rng)}")
        else:
            argv += [flag, draw(rng)]
    return argv


def invalid_call(rng: random.Random, words: tuple) -> list:
    argv = valid_call(rng, words)
    kind = rng.randrange(6)
    if kind == 0:  # an unknown flag anywhere after the command words
        argv.insert(rng.randint(len(words), len(argv)), rng.choice(["--nope", "--json=1", "-x"]))
    elif kind == 1:  # a trailing token
        argv.append(rng.choice(["extra", "1,0,0,0", "--", "classify"]))
    elif kind == 2:  # an abbreviated flag: argparse takes a unique prefix
        i = rng.choice([i for i, a in enumerate(argv) if a.startswith("--")])
        flag, eq, value = argv[i].partition("=")
        argv[i] = flag[: rng.randint(3, max(3, len(flag) - 1))] + eq + value
    elif kind == 3:  # -h or --help on the command
        argv.insert(rng.randint(len(words), len(argv)), rng.choice(["-h", "--help", "--he"]))
    elif kind == 4:  # a missing command word
        del argv[rng.randrange(len(words))]
    else:  # a bad value in place of a value or of a flag
        i = rng.randrange(len(words), len(argv))
        flag, eq, _ = argv[i].partition("=")
        argv[i] = flag + eq + rng.choice(BAD_VALUES) if eq else rng.choice(BAD_VALUES)
    return argv


def cli_list() -> list:
    rng = random.Random(7)
    calls = [["-h"]] + [[*words, "-h"] for words in LEAVES]
    while len(calls) < 1_000:
        words = rng.choice(list(CLI_GRAMMAR))
        calls.append(valid_call(rng, words) if rng.random() < 0.7 else invalid_call(rng, words))
    return calls


def _wide_vector(rng: random.Random) -> tuple:
    return tuple(rng.randint(lo, 10**6) for lo in (0, -10**6, -10**6, -10**6))


def slice_list() -> list:
    """200 `wall slice` calls with v's entries up to 10^6 and 1 to 12
    samples.  Half take a w of the same size; the other half take
    w = v + (q^2, 2pq, 0, p^2 + m^2), whose circle at H0 = 1,1 passes
    through the point (p/q, m/q) of the scan box."""
    rng = random.Random(11)
    calls = []
    for i in range(200):
        v, h0 = _wide_vector(rng), f"{rng.randint(1, 3)},{rng.randint(1, 3)}"
        if i % 2:
            w = _wide_vector(rng)
        else:
            q = rng.randint(1, 12)
            p, m = rng.randint(-12 * q, 12 * q), rng.randint(1, 12 * q)
            w, h0 = tuple(x + y for x, y in zip(v, (q * q, 2 * p * q, 0, p * p + m * m))), "1,1"
        calls.append(["wall", "slice", "--type", str(rng.randint(1, 7)), "--v", ",".join(map(str, v)),
                      "--w", ",".join(map(str, w)), "--H0", h0, "--emit-samples", str(rng.randint(1, 12)),
                      *(["--json"] if rng.random() < 0.5 else [])])
    return calls


def src_of(path: str) -> str:
    """The src directory of a checkout, or path itself when it holds the library."""
    p = Path(path).resolve()
    return str(p / "src" if (p / "src" / "bielliptic").is_dir() else p)


def main() -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # so that the finally runs
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="the other checkout, or its src directory")
    p.add_argument("--walls", type=int, help="compare this many walls spread over the list (default all)")
    args = p.parse_args()
    if args.walls is not None and args.walls < 1:
        p.error(f"--walls wants a positive count, got {args.walls}")
    walls = wall_list()
    if args.walls is not None and args.walls < len(walls):
        walls = [walls[i * len(walls) // args.walls] for i in range(args.walls)]
    reductions = reduction_list(long_runs=args.walls is None)
    calls, slices = cli_list(), slice_list()
    cases = (
        [f"wall {w}" for w in walls] + [f"reduction {red}" for red in reductions]
        + [f"cli {c}" for c in calls + slices]
    )
    trees = [str(ROOT / "src"), src_of(args.against)]
    with tempfile.TemporaryDirectory() as tmp:
        case_file = Path(tmp) / "cases.json"
        case_file.write_text(json.dumps([walls, reductions, calls + slices]))
        start = time.perf_counter()
        outs = [open(Path(tmp) / f"out{i}", "w+") for i in range(2)]
        children = []
        try:
            for src, out in zip(trees, outs):
                children.append(subprocess.Popen(
                    [sys.executable, "-S", "-c", CHILD, src, str(case_file), str(WITNESS_SQUARE), str(ORACLE_SQUARE)],
                    stdout=out, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                ))
            codes = [child.wait() for child in children]
        finally:  # interrupted (Ctrl-C, or SIGTERM through the handler above): end the children too
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        seconds = time.perf_counter() - start
        lines = []
        for out in outs:
            out.seek(0)
            lines.append(out.read().splitlines())
            out.close()
    if any(codes):
        print(f"differential: a child failed (exit {codes[0]} here, {codes[1]} against {trees[1]})")
        sys.exit(1)
    ours, theirs = lines
    diffs = [i for i in range(len(cases)) if i >= min(len(ours), len(theirs)) or ours[i] != theirs[i]]
    for i in diffs[:5]:
        print(f"{cases[i]}:\n  here:    {ours[i] if i < len(ours) else None}\n"
              f"  against: {theirs[i] if i < len(theirs) else None}", file=sys.stderr)
    errors = sum(line.startswith('{"error"') for line in ours[:len(walls)])
    oracles = sum('"oracle": ' in line for line in ours[:len(walls)])
    swaps = sum('"oracle_swaps": true' in line for line in ours[:len(walls)])
    print(f"differential: {len(walls)} walls ({errors} rejected, "
          f"{sum(square(v) <= WITNESS_SQUARE for _, v, _ in walls)} with witnesses, "
          f"{oracles} with the oracle, {swaps} of them with <v, e2> = 0, "
          f"v^2 up to {max(square(v) for _, v, _ in walls)}), {len(reductions)} reductions "
          f"and {len(calls)} cli calls, {len(slices)} wide wall slice calls, "
          f"{len(diffs)} differences "
          f"against {trees[1]}, {seconds:.2f} s")
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
