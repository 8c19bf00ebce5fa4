"""The four benchmark workloads: their inputs, timed operations and checks.

Every workload is a closed loop in one thread: the next operation starts
when the previous one returns.  Inputs come in batches drawn from a
``random.Random(seed)``; the library sees only the drawn inputs.  Each
operation has a check that runs after the timed interval.  README.md in
this directory says why each workload exists.
"""

import contextlib
import csv
import hashlib
import io
import json
from fractions import Fraction
from math import gcd

from bielliptic import cli, moduli, oracle, surfaces, transforms, walls
from bielliptic.lattice import MukaiVector

ATLAS_BOUNDS = "3,2,2,3"
# Sweep 0 is scripts/run_atlas.py.  Later sweeps take the next pair, so no
# (type, generators) call repeats within a run of up to 7 sweeps.  The pairs
# are isotropic classes whose sweeps cost within ~10 % of sweep 0, so a run's
# figures do not hinge on how many sweeps fit in it.
ATLAS_GENERATORS = (
    ("0,0,0,1", "1,0,0,0"),
    ("1,2,1,2", "0,0,0,1"),
    ("2,1,2,1", "1,0,0,0"),
    ("1,-1,1,-1", "0,0,0,1"),
    ("1,1,2,2", "1,0,0,0"),
    ("1,1,1,1", "0,0,0,1"),
    ("0,0,0,1", "0,0,1,0"),
)
ATLAS_ORACLE_ROWS = 3  # rows of each atlas call checked against the oracle

WALL_BANDS = ((20, 40), (41, 60), (61, 80))
WALLS_PER_BAND = 26
HILBERT_CHOW_N = (10, 20, 30, 40)
REDUCE_PAIRS_PER_BATCH = 125
CLI_CALLS_PER_BATCH = 200
CLI_GOLDEN_SEED = 0  # seed of the fixed cli corpus whose stdout digest is committed


class Op:
    """One timed operation: ``run()`` returns (result, work items done) and
    ``check(result, checks)`` returns None or the reason it is wrong."""

    __slots__ = ("batch", "label", "run", "check")

    def __init__(self, batch, label, run, check):
        self.batch = batch
        self.label = label
        self.run = run
        self.check = check


class Checks:
    """State shared by the output checks, and the exact counts they take."""

    def __init__(self, tracer, golden):
        self.tracer = tracer
        self.golden = golden
        # exact counts over the first batch of inputs
        self.stuck_type6 = 0
        self.steps = 0
        self.rank_reducing = 0
        # over every checked operation
        self.oracle_checked = 0
        self.oracle_agreed = 0
        self.replayed_steps = 0
        self.output_bytes = 0

    def oracle_agrees(self, H, codim_bound) -> bool:
        expected = self.tracer.call("oracle.min_codim_oracle", oracle.min_codim_oracle, H)
        self.oracle_checked += 1
        self.oracle_agreed += expected == codim_bound
        return expected == codim_bound

    def reduction(self, batch, t, v, v0, log, in_table):
        """The reason the reduction of v to v0 is wrong, or None."""
        if self.tracer.call("transforms.replay", log.replay, t, v) != v0:
            return f"log does not replay {v.text()} to {v0.text()}"
        self.replayed_steps += len(log)
        if _square(v0.as_tuple()) != _square(v.as_tuple()):
            return f"square not preserved: {v.text()} -> {v0.text()}"
        if batch == 0:
            self.steps += len(log)
            self.rank_reducing += transforms.count_rank_reducing(t, v, log)
        if not in_table:
            if not _stuck_type6(t, v):
                return f"type {t}: {v.text()} -> {v0.text()} is not a row pattern"
            self.stuck_type6 += batch == 0
        return None


def _square(p) -> int:
    r, a, b, s = p
    return 2 * a * b - 2 * r * s


def _pair(p, q) -> int:
    return p[1] * q[2] + q[1] * p[2] - p[0] * q[3] - q[0] * p[3]


def _stuck_type6(t: int, v: MukaiVector) -> bool:
    """The type-6 residue class that no implemented move reduces."""
    return t == 6 and v.r % 3 == 0 and (v.a % 3, v.b % 3) in ((1, 2), (2, 1))


def _text(p) -> str:
    return ",".join(map(str, p))


def _vec(p) -> MukaiVector:
    return MukaiVector.of(*p)


def _primitive(rng, rmax: int, cmax: int):
    """A primitive (r, a, b, s) with 1 <= r <= rmax and |a|, |b|, |s| <= cmax."""
    while True:
        p = (rng.randint(1, rmax),) + tuple(rng.randint(-cmax, cmax) for _ in range(3))
        if gcd(gcd(p[0], p[1]), gcd(p[2], p[3])) == 1:
            return p


def _box(rng, c: int):
    return tuple(rng.randint(-c, c) for _ in range(4))


def _wall(rng, v2_lo: int, v2_hi: int, vbox: int, wbox: int):
    """v with v2_lo <= v^2 <= v2_hi and w spanning a hyperbolic plane with it."""
    while True:
        v = _box(rng, vbox)
        if v2_lo <= _square(v) <= v2_hi:
            break
    return v, _hyperbolic_partner(rng, v, wbox)


def _hyperbolic_partner(rng, v, wbox: int):
    while True:
        w = _box(rng, wbox)
        # rank 2 and signature (1, -1); saturating keeps the sign
        if _square(v) * _square(w) - _pair(v, w) ** 2 < 0:
            return w


def run_cli(argv):
    """run_command with stdout and stderr captured; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# atlas: the scripts/run_atlas.py sweep, in process


def atlas_argv(t, pair):
    return ["atlas", "--type", str(t), "--bounds", ATLAS_BOUNDS, "--w", pair[0], "--w", pair[1]]


def atlas_batches(rng):
    sweep = 0
    while True:
        pair = ATLAS_GENERATORS[sweep % len(ATLAS_GENERATORS)]
        types = list(surfaces.all_types())
        rng.shuffle(types)
        batch = []
        for t in types:
            argv = atlas_argv(t, pair)
            picks = [rng.random() for _ in range(ATLAS_ORACLE_ROWS)]
            batch.append(Op(sweep, " ".join(argv), _atlas_run(argv), _atlas_check(t, pair, picks)))
        yield batch
        sweep += 1


def _atlas_run(argv):
    def run():
        result = run_cli(argv)
        return result, result[1].count("\n") - 1

    return run


def _atlas_check(t, pair, picks):
    def check(result, checks):
        code, out, err = result
        if code != 0 or err:
            return f"exit {code}: {err.strip()}"
        checks.output_bytes += len(out)
        if sha256(out) != checks.golden["atlas"][";".join(pair)][str(t)]:
            return "CSV differs from its golden digest"
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for f in picks:
            _, v, w, _, _, codim = rows[int(f * len(rows))]
            H = walls.saturate_lattice(t, MukaiVector.parse(v), MukaiVector.parse(w))
            if not checks.oracle_agrees(H, None if codim == "inf" else int(codim)):
                return f"row {v} / {w}: codim bound {codim} disagrees with the oracle"
        return None

    return check


# ---------------------------------------------------------------------------
# walls-deep: few, expensive wall classifications


def walls_batches(rng):
    batch_no = 0
    while True:
        specs = []
        for lo, hi in WALL_BANDS:
            # v^2 is even; spread the targets evenly over the band so that
            # batches differ in their walls, not in their mix of v^2
            for i in range(WALLS_PER_BAND):
                target = 2 * round((lo + i * (hi - lo) / (WALLS_PER_BAND - 1)) / 2)
                target = min(max(target, lo + lo % 2), hi - hi % 2)
                while True:
                    v = _box(rng, 6)
                    if _square(v) == target:
                        break
                specs.append((rng.randint(1, 7), v, _hyperbolic_partner(rng, v, 3)))
        # Hilbert-Chow walls (1, 0, 0, -n), (0, 0, 0, 1), v^2 = 2n: about a
        # third of a batch's time.  Batch j takes type j mod 7 + 1 and lowers
        # n by j // 7, so none repeats and batch costs stay level.
        for n in HILBERT_CHOW_N:
            specs.append((batch_no % 7 + 1, (1, 0, 0, batch_no // 7 - n), (0, 0, 0, 1)))
        rng.shuffle(specs)
        yield [
            Op(batch_no, f"wall type {t} v {_text(v)} w {_text(w)}", _wall_run(t, v, w), _wall_check)
            for t, v, w in specs
        ]
        batch_no += 1


def _wall_run(t, v, w):
    v, w = _vec(v), _vec(w)

    def run():
        H = walls.saturate_lattice(t, v, w)
        return (H, walls.classify_wall(H)), 1

    return run


def _wall_check(result, checks):
    H, c = result
    if not checks.oracle_agrees(H, c.codim_bound):
        return f"codim bound {c.codim_bound} disagrees with the oracle"
    return None


# ---------------------------------------------------------------------------
# reduce: reductions and moduli reports at two rank scales


def reduce_batches(rng):
    batch_no = 0
    while True:
        batch = []
        for _ in range(REDUCE_PAIRS_PER_BATCH):
            # one operation is one vector at each scale, so that the latency
            # distribution has one mode rather than one per scale
            pair = [(rng.randint(1, 7), _vec(_primitive(rng, n, n))) for n in (40, 10**6)]
            label = " and ".join(f"type {t} {v.text()}" for t, v in pair)
            batch.append(Op(batch_no, label, _reduce_run(pair), _reduce_check(batch_no, pair)))
        yield batch
        batch_no += 1


def _reduce_one(t, v):
    v0, log = transforms.reduce_to_table(t, v)
    in_table = transforms.matches_reduced_form(t, v0)
    report = moduli.gieseker_report(t, v)
    sing = moduli.singularity_report(t, v) if _square(v.as_tuple()) >= 0 else None
    return v0, log, in_table, report, sing


def _reduce_run(pair):
    def run():
        return [_reduce_one(t, v) for t, v in pair], len(pair)

    return run


def _reduce_check(batch_no, pair):
    def check(result, checks):
        for (t, v), (v0, log, in_table, report, sing) in zip(pair, result):
            reason = checks.reduction(batch_no, t, v, v0, log, in_table)
            if reason:
                return reason
            v2 = _square(v.as_tuple())
            if report.muss_nonempty != (v2 >= 0):
                return f"type {t} {v.text()}: muss_nonempty {report.muss_nonempty} with v^2 = {v2}"
            if v2 > 0 and report.stable_dimension != v2 + 1:
                return f"type {t} {v.text()}: stable dimension {report.stable_dimension}"
            ordk = surfaces.surface_invariants(t).ord_k
            if sing is not None and sing.sing_dim_bound != Fraction(v2 + 2 * ordk, ordk):
                return f"type {t} {v.text()}: singular locus bound {sing.sing_dim_bound}"
        return None

    return check


# ---------------------------------------------------------------------------
# cli: a mix of one-shot in-process CLI calls, a tenth of them invalid


def _cli_valid(rng):
    """(argv, kind) for one valid call."""
    t = rng.randint(1, 7)
    ty = ["--type", str(t)]
    kind = rng.choices(
        ("info", "pair", "reduce40", "reduce1e6", "classify", "slice", "moduli", "oracle"),
        # a circle's slice scan takes ~40 ms against ~4 ms for the rest; a
        # larger share would make those scans most of the workload's time
        weights=(12, 12, 14, 14, 18, 5, 15, 10),
    )[0]
    if kind == "info":
        return ["info", *ty, "--json"], kind
    if kind == "pair":
        return ["pair", *ty, f"--v={_text(_box(rng, 9))}", f"--w={_text(_box(rng, 9))}", "--json"], kind
    if kind in ("reduce40", "reduce1e6"):
        n = 40 if kind == "reduce40" else 10**6
        return ["reduce", *ty, f"--vector={_text(_primitive(rng, n, n))}", "--json"], kind
    if kind == "classify":
        v, w = _wall(rng, 1, 20, vbox=4, wbox=2)
        return ["wall", "classify", *ty, f"--v={_text(v)}", f"--w={_text(w)}", "--json"], kind
    if kind == "slice":
        while True:
            v, w = _box(rng, 4), _box(rng, 4)
            if any(v[i] * w[j] != v[j] * w[i] for i in range(4) for j in range(i + 1, 4)):
                break
        h0 = f"{rng.randint(1, 4)},{rng.randint(1, 4)}"
        samples = str(rng.randint(1, 6))
        argv = ["wall", "slice", *ty, f"--v={_text(v)}", f"--w={_text(w)}", f"--H0={h0}"]
        return argv + ["--emit-samples", samples, "--json"], kind
    if kind == "moduli":
        v = (rng.randint(1, 6),) + tuple(rng.randint(-6, 6) for _ in range(3))
        flag = ["--generic-surface"] if rng.random() < 0.3 else []
        return ["moduli", "report", *ty, f"--vector={_text(v)}", *flag, "--json"], kind
    m, target = rng.choice((2, 3, 4, 6)), rng.randint(0, 1)
    return ["oracle", "cases", "--m", str(m), "--target", str(target), "--bound", str(rng.randint(3, 10)), "--json"], kind


def _cli_invalid(rng):
    """(argv, expected exit code) for one invalid call."""
    t = str(rng.randint(1, 7))
    case = rng.randint(0, 6)
    if case == 0:  # collinear wall
        v = _primitive(rng, 4, 4)
        k = rng.choice((-2, 2, 3))
        w = _text(tuple(k * x for x in v))
        return ["wall", "classify", "--type", t, f"--v={_text(v)}", f"--w={w}", "--json"], 3
    if case == 1:  # rank-0 reduce
        return ["reduce", "--type", t, f"--vector={_text((0,) + _box(rng, 9)[1:])}", "--json"], 3
    if case == 2:  # bad surface type
        return ["info", "--type", str(rng.choice((0, 8, 9, -1))), "--json"], 3
    if case == 3:  # vector with three entries
        return ["reduce", "--type", t, f"--vector={_text(_box(rng, 9)[:3])}", "--json"], 2
    if case == 4:  # non-ample H0
        v, w = _box(rng, 4), _box(rng, 4)
        return ["wall", "slice", "--type", t, f"--v={_text(v)}", f"--w={_text(w)}", f"--H0=0,{rng.randint(1, 4)}", "--json"], 3
    if case == 5:  # m outside the argparse choices
        return ["oracle", "cases", "--m", str(rng.choice((1, 5, 7))), "--target", "0", "--json"], 2
    # v^2 <= 0 for a wall
    v = (1, 0, 0, rng.randint(0, 5))
    return ["wall", "classify", "--type", t, f"--v={_text(v)}", "--w=0,1,0,0", "--json"], 3


def cli_calls(rng, n):
    """n (argv, kind, expected exit code) triples; about a tenth invalid."""
    calls = []
    for _ in range(n):
        if rng.random() < 0.1:
            argv, code = _cli_invalid(rng)
            calls.append((argv, "invalid", code))
        else:
            argv, kind = _cli_valid(rng)
            calls.append((argv, kind, 0))
    return calls


def cli_batches(rng):
    batch_no = 0
    while True:
        yield [
            Op(batch_no, " ".join(argv), _cli_run(argv), _cli_check(batch_no, argv, kind, code))
            for argv, kind, code in cli_calls(rng, CLI_CALLS_PER_BATCH)
        ]
        batch_no += 1


def _cli_run(argv):
    def run():
        return run_cli(argv), 1

    return run


def _flag(argv, name):
    """The value given to option ``name`` in argv, as ``name value`` or ``name=value``."""
    if name in argv:
        return argv[argv.index(name) + 1]
    return next(a.split("=", 1)[1] for a in argv if a.startswith(name + "="))


def _cli_check(batch_no, argv, kind, want):
    def check(result, checks):
        code, out, err = result
        if "Traceback" in err or "Traceback" in out:
            return "traceback"
        if code != want:
            return f"exit {code}, expected {want}: {err.strip()}"
        if want != 0:
            return None if not out and err else "an invalid call must name its error on stderr only"
        if err:
            return f"stderr on success: {err.strip()}"
        checks.output_bytes += len(out)
        payload = json.loads(out)
        if payload.get("schema") != 1:
            return "missing schema 1"
        return _CLI_PAYLOAD_CHECKS[kind](argv, payload, batch_no, checks)

    return check


def _check_info(argv, p, batch_no, checks):
    d = surfaces.surface_invariants(int(_flag(argv, "--type")))
    return None if (p["ord_k"], p["lambda"]) == (d.ord_k, d.lam) else "wrong invariants"


def _check_pair(argv, p, batch_no, checks):
    v = tuple(map(int, _flag(argv, "--v").split(",")))
    w = tuple(map(int, _flag(argv, "--w").split(",")))
    got = (p["pairing"], p["v_square"], p["w_square"])
    return None if got == (_pair(v, w), _square(v), _square(w)) else f"pairing {got}"


def _check_reduce(argv, p, batch_no, checks):
    t = int(_flag(argv, "--type"))
    v = MukaiVector.parse(_flag(argv, "--vector"))
    log = transforms.TransformLog.from_json(p["log"])
    return checks.reduction(batch_no, t, v, MukaiVector.parse(p["reduced"]), log, p["in_table"])


def _check_classify(argv, p, batch_no, checks):
    t = int(_flag(argv, "--type"))
    H = walls.saturate_lattice(t, MukaiVector.parse(_flag(argv, "--v")), MukaiVector.parse(_flag(argv, "--w")))
    return None if checks.oracle_agrees(H, p["codim_bound"]) else "codim bound disagrees with the oracle"


def _check_slice(argv, p, batch_no, checks):
    samples = p.get("samples", [])
    if len(samples) > int(_flag(argv, "--emit-samples")):
        return "too many samples"
    locus = p["locus"]
    for xs, ys in samples:
        x, y = Fraction(xs), Fraction(ys)
        if y <= 0:
            return f"sample {xs}, {ys} has y <= 0"
        if isinstance(locus, dict):
            if locus["alpha"] * (x * x + y * y) + locus["beta"] * x + locus["gamma"] != 0:
                return f"sample {xs}, {ys} is off the locus"
        elif locus != "everywhere":
            return f"sample on an empty locus {locus}"
    return None


def _check_moduli(argv, p, batch_no, checks):
    v = tuple(map(int, _flag(argv, "--vector").split(",")))
    if p["bridgeland_nonempty"] != (_square(v) >= 0):
        return "Bridgeland non-emptiness disagrees with v^2"
    return None


def _check_oracle(argv, p, batch_no, checks):
    m, target = int(_flag(argv, "--m")), int(_flag(argv, "--target"))
    for c in p["cases"]:
        lhs = -((c["b1"] * c["l1"]) // m) - ((c["b2"] * c["l2"]) // m) + c["b1"] * c["b2"] * c["q"]
        if lhs != target:
            return f"case {c} misses the floor equation"
    return None


_CLI_PAYLOAD_CHECKS = {
    "info": _check_info,
    "pair": _check_pair,
    "reduce40": _check_reduce,
    "reduce1e6": _check_reduce,
    "classify": _check_classify,
    "slice": _check_slice,
    "moduli": _check_moduli,
    "oracle": _check_oracle,
}


def cli_golden_digest(calls) -> str:
    """SHA-256 of exit code, stdout and stderr of each call, in order."""
    h = hashlib.sha256()
    for argv, _, _ in calls:
        code, out, err = run_cli(argv)
        h.update(f"{code}\n{out}{err}".encode())
    return h.hexdigest()


BATCHES = {
    "atlas": atlas_batches,
    "walls-deep": walls_batches,
    "reduce": reduce_batches,
    "cli": cli_batches,
}
