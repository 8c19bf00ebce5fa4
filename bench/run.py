#!/usr/bin/env python3
"""Fixed-seed benchmark of the bielliptic calculator.

    python3 bench/run.py --workload {atlas,walls-deep,reduce,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  One closed loop in one thread runs the
workload's operations, batch by batch, for about S seconds, then checks
every output.  The last line of stdout is one JSON object: with --trace 0
it holds the end-to-end metrics, with --trace 1 the per-layer metrics.
The exit status is 1 when an operation or an output check failed, 2 when
the library cannot be found or imported.  See README.md beside this file.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBES = 11  # fresh processes per set-up, cold-start and import figure
LAYERS = ("lattice", "linalg", "walls", "transforms", "moduli", "stability", "oracle", "cli")
# spans the output checks record; they stay out of the layer totals
CHECK_SPANS = ("oracle.min_codim_oracle", "transforms.replay")
SUBCOMMANDS = (
    "info", "pair", "reduce", "wall_classify", "wall_slice", "moduli_report", "oracle_cases", "atlas",
)
BANDS = ("v2_le_20", "v2_21_50", "v2_51_80")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("atlas", "walls-deep", "reduce", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Timings:
    """Per-operation batch, work items and latency, in flat arrays so that
    the record of a long run adds nothing for the garbage collector to scan."""

    def __init__(self):
        self.batch = array("i")
        self.items = array("q")
        self.latency = array("d")
        self.slowdown = array("d")  # the host's slowdown around each operation
        self.first_ops = []  # the first batch, kept for the tracing overhead

    def __len__(self):
        return len(self.latency)

    def nominal(self):
        """Latencies at the nominal speed of the host (speed.py)."""
        return [t / s for t, s in zip(self.latency, self.slowdown)]


def measure(batches, seconds, tracer, checks, trace, probes):
    """Run whole batches until the next one would end past ``seconds``.

    Each batch is checked as soon as it is done, outside the timed
    interval, so that only one batch of results is held at a time.
    ``probes`` are called between operations, spread evenly over the run,
    so that their figures see the same host as the operations do; their
    time does not count against ``seconds``.  The reference loop of
    ``speed`` is sampled after every SAMPLE_EVERY_S of timed work, and each
    operation records the slowdown around it.  Returns the timings, the
    failures, and the exact tracer counts after the first batch.
    """
    timings, failures, first_counts = Timings(), [], None
    start = time.perf_counter()
    probe_s, done = 0.0, 0
    host = speed.Speed()
    pending, pending_s = 0, 0.0  # operations timed since the last sample

    def flush():
        nonlocal pending, pending_s
        if pending:
            timings.slowdown.extend([host.slowdown()] * pending)
            pending, pending_s = 0, 0.0

    def run_probes(until):
        nonlocal probe_s, done
        if done >= until:
            return
        flush()
        while done < until:
            t0 = time.perf_counter()
            for p in probes:
                p()
            probe_s += time.perf_counter() - t0
            done += 1
        host.rebase()

    for n, batch in enumerate(batches, 1):
        results = []
        host.rebase()
        for op in batch:
            run_probes(min(PROBES, int(PROBES * (time.perf_counter() - start - probe_s) / max(seconds, 1e-9))))
            tracer.op = len(timings)
            tracer.on = trace
            error, result, items = None, None, 0
            t0 = time.perf_counter()
            try:
                result, items = op.run()
            except Exception:
                error = traceback.format_exc()
            latency = time.perf_counter() - t0
            tracer.on = False
            timings.latency.append(latency)
            timings.batch.append(op.batch)
            timings.items.append(items)
            results.append((op, result, error))
            pending += 1
            pending_s += latency
            if pending_s >= speed.SAMPLE_EVERY_S:
                flush()
        flush()
        failures += check_batch(results, checks)
        if first_counts is None:
            first_counts = dict(tracer.counts)
            timings.first_ops = batch
        elapsed = time.perf_counter() - start - probe_s
        if elapsed + elapsed / n > seconds:
            run_probes(PROBES)
            return timings, failures, first_counts


def check_batch(results, checks):
    """(label, reason) for every operation that raised or failed its check."""
    failures = []
    for op, result, error in results:
        if error is not None:
            failures.append((op.label, error.strip().splitlines()[-1]))
            continue
        try:
            reason = op.check(result, checks)
        except Exception:
            reason = "check raised " + traceback.format_exc().strip().splitlines()[-1]
        if reason:
            failures.append((op.label, reason))
    return failures


class Probe:
    """Times one command in a fresh process, once per call."""

    def __init__(self, argv, env, label):
        self.argv, self.env, self.label = argv, env, label
        self.times: list[float] = []
        self.failed = 0

    def __call__(self):
        t0 = time.perf_counter()
        done = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True, timeout=60)
        self.times.append(time.perf_counter() - t0)
        self.failed += done.returncode != 0 or bool(done.stderr)

    def median(self) -> float:
        return statistics.median(self.times)

    def scaled(self, reference) -> float:
        """The median time at the nominal speed of the host: each call is
        scaled by the reference process timed right before it."""
        return statistics.median(
            t / r * speed.CHILD_NOMINAL_S for t, r in zip(self.times, reference.times))


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def rss_mb() -> float:
    """Resident memory now, once the results of the run are garbage: what
    the process keeps, such as a cache, rather than one input's peak.  The
    C allocator first hands back the free pages it can, so that the holes
    a seed's largest results left behind count less."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)  # glibc only
    except AttributeError:
        pass
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def end_to_end(timings, setup_s):
    rss = rss_mb()  # before the lists below
    latencies = timings.nominal()
    # throughput of each batch; the median shrugs off the rare batch that
    # holds a very long reduction
    per_batch = {}
    for batch, items, latency in zip(timings.batch, timings.items, latencies):
        done = per_batch.setdefault(batch, [0, 0.0])
        done[0] += items
        done[1] += latency
    return {
        "setup_s": (setup_s, "s"),
        "rss_mb": (rss, "MB"),
        "items_per_s": (statistics.median(n / t for n, t in per_batch.values()), "1/s"),
        "latency_gmean_ms": (statistics.geometric_mean(latencies) * 1e3, "ms"),
    }


def per_layer(tracer, checks, first_counts, import_s, cold_start_s, overhead_pct):
    stats = tracer.stats

    def mean(name, scale, self_time=False):
        calls, total, own, _ = stats.get(name, (0, 0.0, 0.0, 0))
        return (own if self_time else total) / calls * scale if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e6, 1e3
    sat = stats.get("walls.saturate_lattice", (0, 0.0, 0.0, 0))
    replay = stats.get("transforms.replay", (0, 0.0, 0.0, 0))
    run_calls = sum(stats.get(f"cli.run_command.{s}", (0,))[0] for s in SUBCOMMANDS)
    m = {
        "lattice.of_us": (mean("lattice.of", us), "us"),
        "lattice.pairing_us": (mean("lattice.pairing", us), "us"),
        "linalg.saturation_basis_us": (mean("linalg.saturation_basis", us), "us"),
        "walls.saturate_lattice_us": (mean("walls.saturate_lattice", us, self_time=True), "us"),
        "walls.isotropic_rays_us": (mean("walls.isotropic_rays", us), "us"),
        "walls.hn_codim_bound_us": (mean("walls.hn_codim_bound", us), "us"),
        "walls.rejected_ratio": (ratio(sat[3], sat[0]), "ratio"),
    }
    for band in BANDS:
        m[f"walls.classify_wall_ms.{band}"] = (mean(f"walls.classify_wall.{band}", ms), "ms")
    for band in BANDS:
        m[f"walls.enumerate_decompositions_ms.{band}"] = (
            mean(f"walls.enumerate_decompositions.{band}", ms), "ms")
    m.update({
        "walls.decompositions": (first_counts.get("walls.decompositions", 0), "count"),
        "transforms.reduce_to_table_us.r_le_40": (mean("transforms.reduce_to_table.r_le_40", us), "us"),
        "transforms.reduce_to_table_us.r_le_1e6": (mean("transforms.reduce_to_table.r_le_1e6", us), "us"),
        "transforms.apply_transform_us": (ratio(replay[1], checks.replayed_steps) * us, "us"),
        "transforms.steps": (checks.steps, "count"),
        "transforms.rank_reducing_ratio": (ratio(checks.rank_reducing, checks.steps), "ratio"),
        "transforms.stuck_type6": (checks.stuck_type6, "count"),
        "moduli.gieseker_report_us": (mean("moduli.gieseker_report", us), "us"),
        "moduli.singularity_report_us": (mean("moduli.singularity_report", us), "us"),
        "stability.wall_in_slice_us": (mean("stability.wall_in_slice", us), "us"),
        "stability.locus_samples_us": (mean("stability.locus_samples", us), "us"),
        "oracle.min_codim_oracle_ms": (mean("oracle.min_codim_oracle", ms), "ms"),
        "oracle.agreements": (ratio(checks.oracle_agreed, checks.oracle_checked), "ratio"),
        "oracle.enumerate_equality_cases_ms": (mean("oracle.enumerate_equality_cases", ms), "ms"),
        "cli.import_ms": (import_s * ms, "ms"),
        "cli.cold_start_ms": (cold_start_s * ms, "ms"),
        "cli.build_parser_ms": (mean("cli.build_parser", ms), "ms"),
        "cli.output_bytes": (ratio(checks.output_bytes, run_calls), "bytes"),
    })
    for sub in SUBCOMMANDS:
        m[f"cli.run_command_ms.{sub}"] = (mean(f"cli.run_command.{sub}", ms), "ms")
    for layer in LAYERS:
        rows = [st for name, st in stats.items()
                if name.startswith(layer + ".") and name not in CHECK_SPANS]
        m[f"{layer}.calls"] = (sum(st[0] for st in rows), "count")
        m[f"{layer}.busy_s"] = (sum(st[2] for st in rows), "s")
        m[f"{layer}.failures"] = (sum(st[3] for st in rows), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans"] = (len(tracer.start), "count")
    return m


def main() -> int:
    args = parse_args()
    if not (SRC / "bielliptic" / "__init__.py").is_file():
        print(f"bench: no library under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import tracing
        import workloads
    except ImportError as e:
        print(f"bench: cannot import the library: {e}", file=sys.stderr)
        return 2

    golden = json.loads((BENCH / "golden.json").read_text())
    tracer = tracing.Tracer()
    installed = tracing.install(tracer) if args.trace else None
    checks = workloads.Checks(tracer, golden)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # -S: the host's site hooks (.pth files) are not the library's start-up cost
    py = [sys.executable, "-S"]
    if args.trace:
        probes = [Probe([*py, "-c", "pass"], env, "bare interpreter"),
                  Probe([*py, "-c", "import bielliptic.cli"], env, "import probe"),
                  Probe([*py, "-m", "bielliptic.cli", "info", "--type", "1", "--json"], env, "cold start")]
    else:
        probes = [Probe([*py, str(BENCH / "speed.py")], env, "reference process"),
                  Probe([*py, str(BENCH / "setup_probe.py"), args.workload, str(args.seed)], env, "setup probe")]

    timings, failures, first_counts = measure(
        workloads.BATCHES[args.workload](random.Random(args.seed)),
        args.seconds, tracer, checks, bool(args.trace), probes,
    )
    attempted = len(timings) + PROBES * len(probes)
    failures += [(p.label, "probe process failed") for p in probes for _ in range(p.failed)]
    if args.workload == "cli":
        calls = workloads.cli_calls(random.Random(workloads.CLI_GOLDEN_SEED), workloads.CLI_CALLS_PER_BATCH)
        attempted += 1
        if workloads.cli_golden_digest(calls) != golden["cli"]:
            failures.append(("cli golden corpus", "stdout differs from its golden digest"))

    if args.trace:
        # the first batch again, untraced, for the tracing overhead
        installed.remove()
        untraced = 0.0
        for op in timings.first_ops:
            t0 = time.perf_counter()
            op.run()
            untraced += time.perf_counter() - t0
        traced = sum(timings.latency[: len(timings.first_ops)])
        import_s = probes[1].median() - probes[0].median()
        metrics = per_layer(tracer, checks, first_counts, import_s, probes[2].median(),
                            100 * (traced - untraced) / untraced)
        tracer.write(ROOT / ".bench_trace" / f"{args.workload}.tsv.gz")
    else:
        metrics = end_to_end(timings, probes[1].scaled(probes[0]))

    failed = len(failures)
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"({platform.python_implementation()}) {platform.platform()}")
    print(f"# samples: operations={len(timings)} batches={timings.batch[-1] + 1} "
          f"items={sum(timings.items)} probes={PROBES} per figure")
    print(f"# host slowdown against nominal speed: {statistics.median(timings.slowdown):.3f} in process"
          + ("" if args.trace else f", {probes[0].median() / speed.CHILD_NOMINAL_S:.3f} in fresh processes"))
    if not args.trace:
        latencies = timings.nominal()
        # the median and the tail follow the seed's walls too much to bound on
        # walls-deep (README.md); they are reported, not gated
        print(f"# latency at nominal speed: p50 {statistics.median(latencies) * 1e3:.6g} ms, "
              f"p75 {percentile(latencies, 75) * 1e3:.6g} ms over {len(latencies)} operations")
    print(f"# failed_ops: {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
