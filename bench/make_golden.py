#!/usr/bin/env python3
"""Recompute bench/golden.json from the library as it is now.

The digests pin the output bytes of every atlas call the atlas workload
can make and of the fixed cli corpus.  Regenerate them only when a change
is meant to alter CLI output, and say so in that change.

    python3 bench/make_golden.py
"""

import json
import pathlib
import random
import sys

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> None:
    atlas = {}
    for pair in workloads.ATLAS_GENERATORS:
        digests = atlas[";".join(pair)] = {}
        for t in range(1, 8):
            argv = workloads.atlas_argv(t, pair)
            code, out, err = workloads.run_cli(argv)
            if code != 0 or err:
                raise SystemExit(f"{' '.join(argv)}: exit {code} {err}")
            digests[str(t)] = workloads.sha256(out)
    calls = workloads.cli_calls(random.Random(workloads.CLI_GOLDEN_SEED), workloads.CLI_CALLS_PER_BATCH)
    golden = {"atlas": atlas, "cli": workloads.cli_golden_digest(calls)}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
