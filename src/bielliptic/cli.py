"""Command-line front end.

Subcommands: info, pair, reduce, wall classify, wall slice, moduli report,
oracle cases, atlas.  Every subcommand but atlas, which writes CSV, accepts
--json and emits a stable schema ({"schema": 1, ...}); exit status 2 for flag
errors, 3 for violated preconditions (named on stderr) and for an answer
with an integer too long for Python's int-to-text limit, 0 on success.
"""

import argparse
import functools
import json
import sys
from math import gcd, prod

from bielliptic.errors import PreconditionError
from bielliptic.lattice import DivisorClass, MukaiVector, l_invariant, mukai_pairing, square
from bielliptic.linalg import unit_dual
from bielliptic.moduli import bridgeland_nonempty, gieseker_report, singularity_report
from bielliptic.oracle import enumerate_equality_cases
from bielliptic.stability import locus_samples, wall_in_slice
from bielliptic.surfaces import surface_invariants
from bielliptic.transforms import matches_reduced_form, reduce_to_table
from bielliptic.walls import classify_key, classify_wall, saturate_lattice, wall_key, wall_plane

SCHEMA = 1
# Input budgets, checked before any work; a breach exits 3.
MAX_EMIT_SAMPLES = 10_000  # points `wall slice --emit-samples` may ask for
MAX_ATLAS_VECTORS = 100_000  # vectors in the `atlas --bounds` box
MAX_ATLAS_SQUARE = 256  # largest v^2 in that box; a wall's weight walk is at worst linear in it
MAX_ATLAS_GENERATORS = 8  # `atlas --w` flags; each one is a sweep of the box
MAX_ORACLE_BOUND = 80  # `oracle cases --bound`; the scan is linear in it
# v^2 of `wall classify --v`: the witness walk is linear in it, and so is the weight
# walk when the best weight lies far below v^2/2; a wall with no positive class up
# to v^2/2 reads no line
MAX_WALL_SQUARE = 300_000
MAX_REDUCE_RANK = 1_000_000  # rank of `reduce --vector`; a reduction takes about r steps


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _parse_divisor(text: str) -> DivisorClass:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a,b with two entries, got {text!r}")
    return DivisorClass(int(parts[0]), int(parts[1]))


def _cmd_info(args) -> tuple[dict, list[str]]:
    d = surface_invariants(args.type)
    row = {
        "type": args.type,
        "ord_k": d.ord_k,
        "lambda": d.lam,
        "g_order": d.g_order,
        "multiplicities": list(d.multiplicities),
    }
    # the text line is JSON too, without the schema; --json prints no text line
    return row, [] if args.json else [json.dumps(row, sort_keys=True)]


def _cmd_pair(args) -> tuple[dict, list[str]]:
    v = MukaiVector.parse(args.v)
    w = MukaiVector.parse(args.w)
    payload = {
        "type": args.type,
        "v": v.text(),
        "w": w.text(),
        "pairing": mukai_pairing(v, w),
        "v_square": square(v),
        "w_square": square(w),
    }
    if v.is_primitive():
        payload["l_v"] = l_invariant(args.type, v)
    if w.is_primitive():
        payload["l_w"] = l_invariant(args.type, w)
    return payload, [
        f"<v, w> = {payload['pairing']}",
        f"v^2 = {payload['v_square']}, w^2 = {payload['w_square']}",
    ]


def _cmd_reduce(args) -> tuple[dict, list[str]]:
    v = MukaiVector.parse(args.vector)
    if v.r > MAX_REDUCE_RANK:
        raise PreconditionError(
            f"--vector {v.text()} has rank {v.r}, over the cap of {MAX_REDUCE_RANK}"
        )
    v0, log = reduce_to_table(args.type, v)
    payload = {
        "type": args.type,
        "input": v.text(),
        "reduced": v0.text(),
        "square": square(v0),
        "in_table": matches_reduced_form(args.type, v0),
    }
    if args.json:  # the text line shows no log, and it costs about as much as the reduction
        payload["log"] = log.to_json()
    return payload, [f"{v.text()} -> {v0.text()}  (square {payload['square']}, {len(log)} steps)"]


def _cmd_wall_classify(args) -> tuple[dict, list[str]]:
    v = MukaiVector.parse(args.v)
    w = MukaiVector.parse(args.w)
    if square(v) > MAX_WALL_SQUARE:
        raise PreconditionError(
            f"--v {v.text()} has v^2 = {square(v)}, over the cap of {MAX_WALL_SQUARE}"
        )
    c = classify_wall(saturate_lattice(args.type, v, w), max_parts=args.max_parts)
    payload = {
        "type": args.type,
        "v": v.text(),
        "w": w.text(),
        "totally_semistable": c.totally_semistable,
        "witness": c.tss_witness.text() if c.tss_witness else None,
        "labels": sorted(c.labels),
        "codim_bound": c.codim_bound,
    }
    if args.json:  # the text lines show no witness, and a Flopping / FakeWall one costs a walk
        payload["witnesses"] = {label: [u.text() for u in us] for label, us in sorted(c.witnesses.items())}
    return payload, [
        f"labels: {', '.join(payload['labels'])}",
        f"totally semistable: {c.totally_semistable}"
        + (f" (witness {payload['witness']})" if payload["witness"] else ""),
        f"codim bound: {'+inf' if c.codim_bound is None else c.codim_bound}",
    ]


def _cmd_wall_slice(args) -> tuple[dict, list[str]]:
    if args.emit_samples > MAX_EMIT_SAMPLES:
        raise PreconditionError(
            f"--emit-samples {args.emit_samples} exceeds the cap of {MAX_EMIT_SAMPLES}"
        )
    v = MukaiVector.parse(args.v)
    w = MukaiVector.parse(args.w)
    H0 = _parse_divisor(args.H0)
    locus = wall_in_slice(args.type, v, w, H0)
    if isinstance(locus, str):  # EVERYWHERE or NOWHERE
        locus_json: dict | str = locus
        text = f"locus: {locus}"
    else:
        locus_json = {"alpha": locus.alpha, "beta": locus.beta, "gamma": locus.gamma}
        text = (
            f"locus: {locus.alpha}(x^2+y^2) + {locus.beta}x + {locus.gamma} = 0"
        )
    payload = {
        "type": args.type,
        "v": v.text(),
        "w": w.text(),
        "H0": f"{H0.a},{H0.b}",
        "locus": locus_json,
    }
    lines = [text]
    if args.emit_samples:
        samples = locus_samples(locus, args.emit_samples)
        payload["samples"] = [[str(x), str(y)] for x, y in samples]  # Fractions: "p/q" or "p"
        lines += [f"sample: x={x} y={y}" for x, y in samples]
    return payload, lines


def _cmd_moduli_report(args) -> tuple[dict, list[str]]:
    v = MukaiVector.parse(args.vector)
    t = args.type
    rep = gieseker_report(t, v)
    payload = {
        "type": t,
        "vector": v.text(),
        "muss_nonempty": rep.muss_nonempty,
        "mus_nonempty": rep.mus_nonempty,
        "stable_dimension": rep.stable_dimension,
        "exceptional": rep.exceptional.value if rep.exceptional else None,
        "notes": list(rep.notes),
        "bridgeland_nonempty": bridgeland_nonempty(t, v),
    }
    lines = [
        f"slope-semistable nonempty: {rep.muss_nonempty}",
        f"slope-stable nonempty: {rep.mus_nonempty}"
        + (f" (dimension {rep.stable_dimension})" if rep.stable_dimension is not None else ""),
        f"Bridgeland nonempty: {payload['bridgeland_nonempty']}",
    ]
    if v.is_primitive() and square(v) >= 0:
        sing = singularity_report(t, v, generic_surface=args.generic_surface)
        payload["singularities"] = {
            "sing_dim_bound": str(sing.sing_dim_bound),
            "cases": [
                {"condition": c.condition, "class": c.klass.value} for c in sing.cases
            ],
        }
        lines += [
            f"singular locus dimension bound: {sing.sing_dim_bound}"
        ] + [f"  [{c.klass.value}] {c.condition}" for c in sing.cases]
    return payload, lines


def _cmd_oracle_cases(args) -> tuple[dict, list[str]]:
    if args.bound > MAX_ORACLE_BOUND:
        raise PreconditionError(
            f"--bound {args.bound} exceeds the cap of {MAX_ORACLE_BOUND}"
        )
    cases = enumerate_equality_cases(args.m, args.target, bound=args.bound)
    payload = {
        "m": args.m,
        "target": args.target,
        "bound": args.bound,
        "cases": [
            {"l1": c.l1, "l2": c.l2, "q": c.q, "b1": c.b1, "b2": c.b2} for c in cases
        ],
    }
    return payload, [
        f"l1={c.l1} l2={c.l2} q={c.q} b1={c.b1} b2={c.b2}"
        for c in cases
    ]


def _atlas_rows(t: int, bounds: list[int], generators: list[MukaiVector]) -> list[str]:
    """The unsorted CSV lines of every wall (v, w) with v in the box, each
    as csv.writer's excel dialect writes it: t,"v","w",tss,labels,codim."""
    # A row is a function of walls.wall_key: classify each key once, on the
    # key's own frame (walls.classify_key), for the plane Z*w0 + Z*u the key
    # is read off, with y.w0 = 1 and u the primitive part of v - (y.v) w0,
    # first nonzero entry positive, so v = (y.v, g); and each orbit of v
    # under {+-1, +-D} has one row, D the derived dual, so only its
    # representative is classified (README, "The atlas sweep").
    data = surface_invariants(t)
    ordk, mb = data.ord_k, data.ord_k // data.lam  # l(p) = gcd(r, a, mb*b, ordk*s)
    sweeps = [  # w's text and a quote, whether D keeps it, w0 = w / content(w), y, w's planes
        (f'{w.text()}",', w.a == w.b == 0 or w.r == w.s == 0,
         w0 := w.primitive_part()[1].as_tuple(), unit_dual(w0), {}) for w in generators
    ]
    tails: dict[tuple, str] = {}  # key -> tss,labels,codim and the line end
    rb, ab, bb, sb = bounds
    rows = []
    for r in range(rb + 1):
        for a in range(-ab, ab + 1):
            for b in range(-bb, bb + 1):
                for s in range(-sb, sb + 1):
                    if (r, a, b, s) <= (0, 0, 0, 0) or a * b <= r * s:  # v^2 = 2(ab - rs)
                        continue
                    lv = gcd(r, a, mb * b, ordk * s)
                    pair = (f'{t},"{r},{a},{b},{s}","', f'{t},"{-r},{-a},{-b},{-s}","')
                    dual = (r, -a, -b, s) if r else (0, a, b, -s)
                    if dual > (r, a, b, s):
                        orbit = None
                    elif dual == (r, a, b, s):
                        orbit = pair
                    else:
                        dr, da, db, ds = dual
                        orbit = (*pair, f'{t},"{dr},{da},{db},{ds}","', f'{t},"{-dr},{-da},{-db},{-ds}","')
                    for wt, w_kept, w0, (y0, y1, y2, y3), planes in sweeps:
                        names = orbit if w_kept else pair
                        if names is None:
                            continue
                        alpha = r * y0 + a * y1 + b * y2 + s * y3
                        p0, p1, p2, p3 = w0
                        u0, u1, u2, u3 = r - alpha * p0, a - alpha * p1, b - alpha * p2, s - alpha * p3
                        g = gcd(u0, u1, u2, u3)
                        if not g:  # v and w are collinear
                            continue
                        if (u0 or u1 or u2 or u3) < 0:
                            g = -g
                        u = (u0 // g, u1 // g, u2 // g, u3 // g)
                        # u names the plane, which is built when first seen
                        gram, rays = planes.get(u) or planes.setdefault(u, wall_plane(t, w0, u))
                        if rays is None:  # not hyperbolic
                            continue
                        key = wall_key(gram, (alpha, g), lv, rays)
                        tail = tails.get(key)
                        if tail is None:
                            tss, labels, codim = classify_key(t, key)
                            tail = tails[key] = (
                                f"{'true' if tss else 'false'},{';'.join(sorted(labels))},"
                                f"{'inf' if codim is None else codim}\r\n"
                            )
                        line = wt + tail
                        for name in names:
                            rows.append(name + line)
    return rows


def _cmd_atlas(args) -> None:
    # the sweep skips rows that are not walls, so a bad flag must fail here
    t = args.type
    bounds = [int(x) for x in args.bounds.split(",")]
    if len(bounds) != 4 or any(b < 0 for b in bounds):
        raise PreconditionError(f"--bounds wants R,A,B,S nonnegative, got {args.bounds}")
    box = prod(2 * b + 1 for b in bounds)
    if box > MAX_ATLAS_VECTORS:
        raise PreconditionError(
            f"--bounds {args.bounds} spans {box} vectors, over the cap of {MAX_ATLAS_VECTORS}"
        )
    v2 = 2 * (bounds[1] * bounds[2] + bounds[0] * bounds[3])  # the largest 2(ab - rs)
    if v2 > MAX_ATLAS_SQUARE:
        raise PreconditionError(
            f"--bounds {args.bounds} reaches v^2 = {v2}, over the cap of {MAX_ATLAS_SQUARE}"
        )
    if len(args.w) > MAX_ATLAS_GENERATORS:
        raise PreconditionError(
            f"--w is given {len(args.w)} times, over the cap of {MAX_ATLAS_GENERATORS}"
        )
    generators = [MukaiVector.parse(w) for w in args.w]
    for w in generators:
        if w.content() == 0:
            raise PreconditionError(f"--w {w.text()} is the zero vector; it spans no wall")
    # open --out before the sweep, so an unwritable path costs no work
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as e:
        raise ValueError(f"--out {args.out}: {e.strerror}") from None
    try:
        rows = _atlas_rows(t, bounds, generators)
        # (v, w) order: all lines start with t," and a name's closing " sorts
        # below the digits, "," and "-", so a name sorts before any it begins
        rows.sort()
        out.write("type,v,w,tss,labels,codim_bound\r\n")
        out.writelines(rows)
    finally:
        if args.out:
            out.close()


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]:
    """The CLI's parser and its leaf parsers keyed by their command words,
    built once per process; parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="bielliptic",
        description="Exact Mukai-lattice calculator for the seven bielliptic families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {}

    def add_leaf(subparsers, words, func, help):
        p = subparsers.add_parser(words[-1], help=help)
        p.set_defaults(func=func)
        leaves[words] = p
        return p

    def add_type(p):
        p.add_argument("--type", type=int, required=True, help="surface type 1..7")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit versioned JSON")

    p = add_leaf(sub, ("info",), _cmd_info, "invariants of one of the seven families")
    add_type(p)
    add_json(p)

    p = add_leaf(sub, ("pair",), _cmd_pair, "Mukai pairing and squares")
    add_type(p)
    p.add_argument("--v", required=True, help="vector r,a,b,s")
    p.add_argument("--w", required=True, help="vector r,a,b,s")
    add_json(p)

    p = add_leaf(sub, ("reduce",), _cmd_reduce, "reduce a primitive vector to a row pattern")
    add_type(p)
    p.add_argument("--vector", required=True, help="vector r,a,b,s")
    add_json(p)

    p = sub.add_parser("wall", help="wall-lattice computations")
    wall_sub = p.add_subparsers(dest="wall_command", required=True)

    q = add_leaf(wall_sub, ("wall", "classify"), _cmd_wall_classify, "classify the wall spanned by v, w")
    add_type(q)
    q.add_argument("--v", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--max-parts", type=int, default=4, dest="max_parts")
    add_json(q)

    q = add_leaf(wall_sub, ("wall", "slice"), _cmd_wall_slice, "wall locus in the (x, y) slice")
    add_type(q)
    q.add_argument("--v", required=True)
    q.add_argument("--w", required=True)
    q.add_argument("--H0", required=True, help="ample divisor a,b")
    q.add_argument("--emit-samples", type=_nonnegative_int, default=0, dest="emit_samples")
    add_json(q)

    p = sub.add_parser("moduli", help="moduli reports")
    moduli_sub = p.add_subparsers(dest="moduli_command", required=True)
    q = add_leaf(moduli_sub, ("moduli", "report"), _cmd_moduli_report,
                 "non-emptiness / dimension / singularities")
    add_type(q)
    q.add_argument("--vector", required=True)
    q.add_argument("--generic-surface", action="store_true", dest="generic_surface")
    add_json(q)

    p = sub.add_parser("oracle", help="brute-force case enumerations")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    q = add_leaf(oracle_sub, ("oracle", "cases"), _cmd_oracle_cases, "equality-case families")
    q.add_argument("--m", type=int, required=True, choices=(2, 3, 4, 6))
    q.add_argument("--target", type=int, required=True, choices=(0, 1))
    q.add_argument("--bound", type=int, default=8)
    add_json(q)

    p = add_leaf(sub, ("atlas",), _cmd_atlas, "sweep and classify a box of vectors (CSV)")
    add_type(p)
    p.add_argument("--bounds", required=True, help="R,A,B,S box bounds")
    p.add_argument("--w", action="append", required=True, help="generator (repeatable)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    return parser, leaves


def _parse(parser, leaves, argv: list[str]) -> argparse.Namespace:
    """What parser.parse_args(argv) gives, less the command dests, from one
    parse by the leaf parser that argv's command words name."""
    words = 2 if tuple(argv[:2]) in leaves else 1
    leaf = leaves.get(tuple(argv[:words]))
    if leaf is None:  # argv names no command: the top parser prints usage, help or the error
        return parser.parse_args(argv)
    args, extra = leaf.parse_known_args(argv[words:])
    if extra:  # as parse_args reports what its subparsers leave over
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _over_int_text_limit(e: ValueError) -> bool:
    """True iff e is what Python raises writing an int of more digits than
    sys.get_int_max_str_digits() as text.  Reading such a text as an int, as
    a flag value over the limit does, raises a ValueError with another
    message (it gives the value's digit count)."""
    limit = sys.get_int_max_str_digits()
    if not limit:  # 0: no limit
        return False
    try:
        str(1 << 4 * limit)  # about 1.2 * limit digits; fails fast, before any conversion
    except ValueError as probe:
        return e.args == probe.args
    return False


def run_command(argv: list[str]) -> int:
    """Parse, run and print; returns the exit status (2 flags, 3 preconditions)."""
    parser, leaves = build_parser()
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse reads -1,0,0,2 as an option
        flag, val = argv[i - 1], argv[i]
        if flag in ("--v", "--w", "--vector", "--H0") and val[:1] == "-" and val[1:2].isdigit():
            argv[i - 1 : i + 1] = [f"{flag}={val}"]
    try:
        args = _parse(parser, leaves, argv)
        # argparse before Python 3.12 parses "--flag=--" to an empty list
        for name, value in vars(args).items():
            if value == [] or (isinstance(value, list) and [] in value):
                parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if getattr(args, "type", None) is not None:  # first, before any cap or vector
            surface_invariants(args.type)
        result = args.func(args)
        if result is not None:  # atlas has written its CSV
            payload, lines = result
            if args.json:
                payload["schema"] = SCHEMA
                print(json.dumps(payload, sort_keys=True))
            else:
                for line in lines:
                    print(line)
        return 0
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        if _over_int_text_limit(e):
            print(
                f"answer not printable: it holds an integer of more than {sys.get_int_max_str_digits()} "
                "digits, Python's limit on int-to-text conversion (sys.set_int_max_str_digits)",
                file=sys.stderr,
            )
            return 3
        print(f"bad flag value: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
