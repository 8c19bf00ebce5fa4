#!/usr/bin/env python3
"""Re-measure the CLI's input budgets: run each cap's worst known input in a
fresh child process and print its wall time and peak RSS.

    python3 scripts/budgets.py [--runs N] [--src PATH]

Each case is one `bielliptic.cli.run_command` call in a new interpreter, so
no parser, memo or allocator state carries over from an earlier case.  Per
run it prints the exit status, the wall seconds from spawn to exit, the
seconds inside `run_command` and the peak RSS in MB (the child writes both
to stderr), and the size and SHA-256 of what the call wrote (its stdout, or
the `--out` CSV of `atlas`).  The peak is the child's own `VmHWM`, read
from /proc/self/status just before it exits: its `ru_maxrss` would start
from this script's high-water mark, which a spawned child inherits at exec.
`--src` runs another checkout's library, so two trees can be compared on
the same inputs.  Standard library only; Linux.
"""

import argparse
import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the generator set of the atlas cap: 8 distinct generators (the cap), both
# kinds of orbit under the derived dual, and one non-isotropic class
ATLAS_GENERATORS = ("0,0,0,1", "1,0,0,0", "0,0,1,0", "0,1,0,0", "1,2,1,2", "2,1,2,1", "1,1,1,1", "1,-1,1,-1")

CASES = [  # (name, argv); "{out}" is a path in a fresh directory
    ("atlas 8,8,8,8 type 7, 8 generators",
     ["atlas", "--type", "7", "--bounds", "8,8,8,8",
      *(f for w in ATLAS_GENERATORS for f in ("--w", w)), "--out", "{out}"]),
    # the `wall classify` walls named in README at the MAX_WALL_SQUARE cap
    ("wall Hilbert-Chow 1,0,0,-150000 --json",
     ["wall", "classify", "--type", "1", "--v=1,0,0,-150000", "--w", "0,0,0,1", "--json"]),
    ("wall FakeWall/Flopping 5,1,2,-29999",
     ["wall", "classify", "--type", "1", "--v=5,1,2,-29999", "--w", "0,0,0,1"]),
    ("wall FakeWall/Flopping 5,1,2,-29999 --json",
     ["wall", "classify", "--type", "1", "--v=5,1,2,-29999", "--w", "0,0,0,1", "--json"]),
    ("wall Flopping 3,2,-2,-49998",
     ["wall", "classify", "--type", "1", "--v=3,2,-2,-49998", "--w", "1,0,0,0"]),
    ("wall Flopping 3,2,-2,-49998 --json",
     ["wall", "classify", "--type", "1", "--v=3,2,-2,-49998", "--w", "1,0,0,0", "--json"]),
    ("wall NoWall 1,0,0,-149998 --json",
     ["wall", "classify", "--type", "1", "--v=1,0,0,-149998", "--w", "0,1,-1,1", "--json"]),
    # MAX_EMIT_SAMPLES on the circle x^2 + y^2 = 147, which holds the whole
    # scan box |x| <= 12 and no rational point: all 1,884 x values are tried
    ("wall slice x^2+y^2=147 --emit-samples 10000",
     ["wall", "slice", "--type", "1", "--v", "1,0,0,147", "--w", "0,1,0,0", "--H0", "1,1",
      "--emit-samples", "10000", "--json"]),
    # MAX_REDUCE_RANK and MAX_ORACLE_BOUND
    ("reduce 1000000,1,0,0", ["reduce", "--type", "1", "--vector", "1000000,1,0,0"]),
    ("reduce 1000000,1,0,0 --json", ["reduce", "--type", "1", "--vector", "1000000,1,0,0", "--json"]),
    # a twist between every two phi_inv steps: 999,999 twists in 1,999,998 steps
    ("reduce 1000000,1,0,999999", ["reduce", "--type", "1", "--vector", "1000000,1,0,999999"]),
    ("reduce 1000000,1,0,999999 --json", ["reduce", "--type", "1", "--vector", "1000000,1,0,999999", "--json"]),
    # the same run with every twist of its own (a, b), so that the JSON log
    # shares no twist item: the worst case known
    ("reduce 1000000,1,0,999999999999", ["reduce", "--type", "1", "--vector", "1000000,1,0,999999999999"]),
    ("reduce 1000000,1,0,999999999999 --json",
     ["reduce", "--type", "1", "--vector", "1000000,1,0,999999999999", "--json"]),
    ("oracle cases m=6 bound 80", ["oracle", "cases", "--m", "6", "--target", "0", "--bound", "80", "--json"]),
]

CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from bielliptic.cli import run_command
start = time.perf_counter()
code = run_command(sys.argv[2:])
sys.stdout.flush()
elapsed = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(f"{elapsed:.4f} {peak_kb}", file=sys.stderr)
sys.exit(code)
"""


def run_case(src: str, argv: list[str], tmp: Path) -> dict:
    out_csv = tmp / "out.csv"
    argv = [a.replace("{out}", str(out_csv)) for a in argv]
    stdout, stderr = tmp / "stdout", tmp / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CHILD, src, *argv], os.environ, file_actions=actions)
    _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    written = (out_csv if out_csv.exists() else stdout).read_bytes()
    try:
        command_s, peak_kb = map(float, stderr.read_text().split()[-2:])
    except ValueError:  # the child died before it timed its call
        command_s = peak_kb = float("nan")
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "command_s": command_s,
        "peak_mb": peak_kb / 1024,
        "bytes": len(written),
        "sha256": hashlib.sha256(written).hexdigest(),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=1, help="runs of each case (default 1)")
    p.add_argument("--src", default=str(ROOT / "src"), help="the library to run (default this checkout's src)")
    args = p.parse_args()
    print(f"# {time.strftime('%Y-%m-%d %H:%M:%S')} host {os.uname().nodename}, {os.cpu_count()} CPUs, "
          f"Python {sys.version.split()[0]}, src {args.src}")
    print(f"{'case':44} {'exit':>4} {'wall_s':>7} {'cmd_s':>7} {'peak_MB':>7} {'bytes':>10}  sha256")
    for name, argv in CASES:
        for _ in range(args.runs):
            with tempfile.TemporaryDirectory() as tmp:
                r = run_case(args.src, argv, Path(tmp))
            print(f"{name:44} {r['exit']:>4} {r['wall_s']:7.3f} {r['command_s']:7.3f} "
                  f"{r['peak_mb']:7.1f} {r['bytes']:>10}  {r['sha256']}")


if __name__ == "__main__":
    main()
