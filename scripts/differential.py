#!/usr/bin/env python3
"""Compare this checkout's wall classifier with another checkout's on one
fixed-seed list of walls.

    python3 scripts/differential.py --against PATH [--walls N]

PATH is another checkout, or its src directory.  Each tree's library runs
in its own child process over the same list and writes one JSON line per
wall: the class and message of the error saturate_lattice raises, or the
classify_wall result (tss, the tss witness, the sorted labels, the
codimension bound, the witnesses of every label) and the classify_key row
of the wall's wall_key.  The witnesses are skipped above v^2 = 3,000,
where the witness walk can list every positive class.  The script prints
one summary line, lists the first differing walls on stderr and exits 1 on
any difference.

The list is the atlas box 3,2,2,3 against 0,0,0,1 and 1,0,0,0 on all 7
types; 2,000 random walls with 0 < v^2 <= 3,000; and 20 walls with v^2
from 10^4 to 3*10^5, drawn as in ROADMAP's Baselines (r <= 9, |a|, |b| <=
400, |s| <= 30,000, w in the box 3, random type).  --walls N compares N
walls spread evenly over the list.  Standard library only.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WITNESS_SQUARE = 3_000  # the largest v^2 whose witnesses are compared

CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from bielliptic.errors import PreconditionError
from bielliptic.lattice import MukaiVector, l_invariant_any, square
from bielliptic.walls import classify_key, classify_wall, saturate_lattice, wall_key
with open(sys.argv[2]) as f:
    walls = json.load(f)
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
    print(json.dumps(row))
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


def wall_list() -> list:
    return (
        box_walls()
        + random_walls(random.Random(1), 2_000, 1, WITNESS_SQUARE, (6, 40, 40, 250))
        + random_walls(random.Random(5), 20, 10_000, 300_000, (9, 400, 400, 30_000))
    )


def src_of(path: str) -> str:
    """The src directory of a checkout, or path itself when it holds the library."""
    p = Path(path).resolve()
    return str(p / "src" if (p / "src" / "bielliptic").is_dir() else p)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, help="the other checkout, or its src directory")
    p.add_argument("--walls", type=int, help="compare this many walls spread over the list (default all)")
    args = p.parse_args()
    if args.walls is not None and args.walls < 1:
        p.error(f"--walls wants a positive count, got {args.walls}")
    walls = wall_list()
    if args.walls is not None and args.walls < len(walls):
        walls = [walls[i * len(walls) // args.walls] for i in range(args.walls)]
    trees = [str(ROOT / "src"), src_of(args.against)]
    with tempfile.TemporaryDirectory() as tmp:
        wall_file = Path(tmp) / "walls.json"
        wall_file.write_text(json.dumps(walls))
        start = time.perf_counter()
        outs = [open(Path(tmp) / f"out{i}", "w+") for i in range(2)]
        children = [
            subprocess.Popen(
                [sys.executable, "-S", "-c", CHILD, src, str(wall_file), str(WITNESS_SQUARE)],
                stdout=out, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            )
            for src, out in zip(trees, outs)
        ]
        codes = [child.wait() for child in children]
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
    diffs = [i for i in range(len(walls)) if i >= min(len(ours), len(theirs)) or ours[i] != theirs[i]]
    for i in diffs[:5]:
        print(f"wall {walls[i]}:\n  here:    {ours[i] if i < len(ours) else None}\n"
              f"  against: {theirs[i] if i < len(theirs) else None}", file=sys.stderr)
    errors = sum(line.startswith('{"error"') for line in ours)
    print(f"differential: {len(walls)} walls ({errors} rejected, "
          f"{sum(square(v) <= WITNESS_SQUARE for _, v, _ in walls)} with witnesses, "
          f"v^2 up to {max(square(v) for _, v, _ in walls)}), {len(diffs)} differences "
          f"against {trees[1]}, {seconds:.2f} s")
    sys.exit(1 if diffs else 0)


if __name__ == "__main__":
    main()
