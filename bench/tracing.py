"""Span recording for the traced benchmark run.

The library is not edited.  In a traced run the benchmark replaces public
functions of the ``bielliptic`` modules, in every module namespace that
holds them, with wrappers that record a span around each call; untraced
runs call the library as it is.  Spans keep their name, start, end, parent
span and the benchmark operation they belong to.  They stay in memory in
flat arrays and are written out once, when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

import gzip
import sys
from array import array
from time import perf_counter

from bielliptic import cli, lattice, linalg, moduli, oracle, stability, transforms, walls


class Tracer:
    """Records spans and per-name totals (calls, time, self time, failures)."""

    def __init__(self):
        self.on = False
        self.op = -1  # index of the benchmark operation being run
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        # name -> [calls, total seconds, self seconds, failures]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())
        return idx

    def exit(self, failed: bool) -> None:
        t1 = perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t1
        dur = t1 - self.start[idx]
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats.get(self.names[self.name_id[idx]])
        if st is None:
            st = self.stats[self.names[self.name_id[idx]]] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        st[3] += failed

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a root span, with the wrappers below it silenced.

        Used for the output checks, which run outside the timed interval:
        their own library calls must not count towards the layer totals.
        """
        was_on, self.on = self.on, False
        self.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.exit(True)
            self.on = was_on
            raise
        self.exit(False)
        self.on = was_on
        return result

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names, nid, parent, op = self.names, self.name_id, self.parent, self.op_id
            start, end = self.start, self.end
            f.writelines(
                f"{i}\t{parent[i]}\t{op[i]}\t{names[nid[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\n"
                for i in range(len(start))
            )


def _wrap(tracer: Tracer, fn, name, hook):
    """A traced stand-in for fn; ``name`` is a string or a function of the
    call's arguments, ``hook(result, *args)`` sees each result."""
    named = callable(name)

    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        tracer.enter(name(*args, **kwargs) if named else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(True)
            raise
        tracer.exit(False)
        if hook is not None:
            hook(result, *args)
        return result

    traced.__wrapped__ = fn
    return traced


def _v2_band(v2: int) -> str:
    if v2 <= 20:
        return "v2_le_20"
    return "v2_21_50" if v2 <= 50 else "v2_51_80"


def _square(v) -> int:
    r, a, b, s = v.as_tuple()
    return 2 * a * b - 2 * r * s


def _subcommand(argv) -> str:
    if argv and argv[0] in ("wall", "moduli", "oracle") and len(argv) > 1:
        return f"{argv[0]}_{argv[1]}"
    return argv[0] if argv else "none"


class Installed:
    """The wrappers put in place by ``install``; ``remove`` restores the library."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap the traced public functions wherever a bielliptic module holds them."""
    modules = [m for name, m in sys.modules.items() if name.startswith("bielliptic.")]
    inst = Installed()

    def everywhere(fn, name, hook=None):
        traced = _wrap(tracer, fn, name, hook)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    inst.patch(mod, attr, traced)

    def count_decompositions(result, *args):
        tracer.add("walls.decompositions", len(result))

    inst.patch(
        lattice.MukaiVector,
        "of",
        staticmethod(_wrap(tracer, lattice.MukaiVector.of, "lattice.of", None)),
    )
    everywhere(lattice.mukai_pairing, "lattice.pairing")
    everywhere(linalg.saturation_basis, "linalg.saturation_basis")
    everywhere(walls.saturate_lattice, "walls.saturate_lattice")
    everywhere(walls.isotropic_rays, "walls.isotropic_rays")
    everywhere(walls.hn_codim_bound, "walls.hn_codim_bound")
    everywhere(
        walls.classify_wall,
        lambda H, *a, **k: "walls.classify_wall." + _v2_band(_square(H.v)),
    )
    everywhere(
        walls.enumerate_decompositions,
        lambda H, *a, **k: "walls.enumerate_decompositions." + _v2_band(_square(H.v)),
        count_decompositions,
    )
    everywhere(
        transforms.reduce_to_table,
        lambda t, v: "transforms.reduce_to_table." + ("r_le_40" if v.r <= 40 else "r_le_1e6"),
    )
    everywhere(transforms.matches_reduced_form, "transforms.matches_reduced_form")
    everywhere(moduli.gieseker_report, "moduli.gieseker_report")
    everywhere(moduli.singularity_report, "moduli.singularity_report")
    everywhere(moduli.bridgeland_nonempty, "moduli.bridgeland_nonempty")
    everywhere(stability.wall_in_slice, "stability.wall_in_slice")
    everywhere(stability.locus_samples, "stability.locus_samples")
    everywhere(oracle.enumerate_equality_cases, "oracle.enumerate_equality_cases")
    everywhere(cli.build_parser, "cli.build_parser")
    everywhere(cli.run_command, lambda argv: "cli.run_command." + _subcommand(argv))
    return inst
