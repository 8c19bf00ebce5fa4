"""Cohomological actions of the (anti-)autoequivalences and the reduction
of a primitive Mukai vector to one of the registered row patterns.

The two relative Fourier-Mukai transforms act by

    Phi    (r, a, b, s) -> (r + lam*a, a, b + lam*s, s)
    PhiInv (r, a, b, s) -> (r - lam*a, a, b - lam*s, s)
    Psi    (r, a, b, s) -> (r + ord*b, a + ord*s, b, s)
    PsiInv (r, a, b, s) -> (r - ord*b, a - ord*s, b, s)

together with twisting by a line bundle, the derived dual (negating c1),
and the shift (negating everything).  Three composite moves, one per hard
region, are exposed as single steps so that a replay log stays short:

    Type6AMove  (lambda = 3)  dual . shift . PhiInv . twist(A0) . dual
    Ord3BMove   (ord = 3)     dual . shift . PsiInv . twist(B0) . dual
    PsiDualMove (ord = 4, 6)  dual . shift . PsiInv

Every step preserves the Mukai pairing (the composites include a shift
exactly when they involve an odd number of anti-equivalences).
"""

from collections.abc import Iterable
from enum import Enum

from bielliptic.errors import PreconditionError, ReductionBudgetError
from bielliptic.lattice import DivisorClass, MukaiVector, square
from bielliptic.surfaces import surface_invariants
from bielliptic.values import Value


class _Atom(Enum):
    DUAL = "dual"
    SHIFT = "shift"
    PHI = "phi"
    PHI_INV = "phi_inv"
    PSI = "psi"
    PSI_INV = "psi_inv"
    TYPE6_A_MOVE = "type6_a_move"
    ORD3_B_MOVE = "ord3_b_move"
    PSI_DUAL_MOVE = "psi_dual_move"


DUAL = _Atom.DUAL
SHIFT = _Atom.SHIFT
PHI = _Atom.PHI
PHI_INV = _Atom.PHI_INV
PSI = _Atom.PSI
PSI_INV = _Atom.PSI_INV
TYPE6_A_MOVE = _Atom.TYPE6_A_MOVE
ORD3_B_MOVE = _Atom.ORD3_B_MOVE
PSI_DUAL_MOVE = _Atom.PSI_DUAL_MOVE

TransformStep = DivisorClass | _Atom  # a twist step is the class D of O(D)

_STEP_NAMES = {a.value: a for a in _Atom}
_ATOM_JSON = {a: {"step": a.value, "params": None} for a in _Atom}


def step_from_json(obj: dict) -> TransformStep:
    """Parse one item as TransformLog.to_json writes it; any other item raises
    ValueError naming it.  Twist parameters must be ints (not bools)."""
    name, params = (obj.get("step"), obj.get("params")) if isinstance(obj, dict) else (None, None)
    if name == "twist" and isinstance(params, dict) and params.keys() == {"a", "b"}:
        if all(x.__class__ is int for x in params.values()):
            return DivisorClass(params["a"], params["b"])
    elif name.__class__ is str and name in _STEP_NAMES and params is None:
        return _STEP_NAMES[name]
    raise ValueError(f"malformed or unknown transform step {obj!r}")


def _act(step: TransformStep, lam: int, ordk: int, r: int, a: int, b: int, s: int):
    """One step's lattice action on (r, a, b, s); the step is not validated."""
    if step.__class__ is DivisorClass:
        x, y = step.a, step.b
        return r, a + r * x, b + r * y, s + a * y + b * x + r * x * y
    if step is PHI_INV:
        return r - lam * a, a, b - lam * s, s
    if step is PSI_INV:
        return r - ordk * b, a - ordk * s, b, s
    if step is DUAL:
        return r, -a, -b, s
    if step is PSI_DUAL_MOVE:
        return ordk * b - r, a - ordk * s, b, -s
    if step is TYPE6_A_MOVE:
        T = s - b
        return 2 * r - 3 * a, r - a, -b - 3 * T, -T
    if step is ORD3_B_MOVE:
        T = s - a
        return 2 * r - 3 * b, -a - 3 * T, r - b, -T
    if step is PHI:
        return r + lam * a, a, b + lam * s, s
    if step is PSI:
        return r + ordk * b, a + ordk * s, b, s
    if step is SHIFT:
        return -r, -a, -b, -s
    raise PreconditionError(f"unknown transform step {step!r}")


def apply_transform(t: int, step: TransformStep, v: MukaiVector) -> MukaiVector:
    """Apply one step's lattice action; validates the step against the type."""
    data = surface_invariants(t)
    lam, ordk = data.lam, data.ord_k
    if step is TYPE6_A_MOVE and lam != 3:
        raise PreconditionError(f"type6_a_move needs lambda = 3, type {t} has {lam}")
    if step is ORD3_B_MOVE and ordk != 3:
        raise PreconditionError(f"ord3_b_move needs ord_k = 3, type {t} has {ordk}")
    if step is PSI_DUAL_MOVE and ordk not in (4, 6):
        raise PreconditionError(f"psi_dual_move needs ord_k in (4, 6), type {t} has {ordk}")
    return MukaiVector(*_act(step, lam, ordk, v.r, v.a, v.b, v.s))


class TransformLog(Value):
    """Replayable sequence of steps; replay(t, v) reproduces the output.

    A twist is held as its (a, b) int pair and an atom as itself; the
    DivisorClass values are built only when the steps are read."""

    __slots__ = ("_items",)

    def __init__(self, steps: Iterable[TransformStep] = ()):
        self._items = tuple((st.a, st.b) if st.__class__ is DivisorClass else st for st in steps)

    @classmethod
    def _of_items(cls, items: list) -> "TransformLog":
        """The log of items as the reduction loop emits them, unconverted:
        __init__'s pass over them costs about 85 ns an item."""
        log = object.__new__(cls)
        log._items = tuple(items)
        return log

    def _iter_steps(self):
        """The steps one at a time, so that replay holds one twist at once."""
        for item in self._items:
            yield DivisorClass(*item) if item.__class__ is tuple else item

    @property
    def steps(self) -> tuple[TransformStep, ...]:
        return tuple(self._iter_steps())

    def replay(self, t: int, v: MukaiVector) -> MukaiVector:
        for step in self._iter_steps():
            v = apply_transform(t, step, v)
        return v

    def to_json(self) -> list[dict]:
        """One item per step, as step_from_json reads it.  The items are
        read-only: an atom's item is one dict shared by every log, and a
        twist's one dict shared by every twist of its (a, b) in this list."""
        twists: dict = {}
        return [
            (twists.get(item) or twists.setdefault(item, {"step": "twist", "params": {"a": item[0], "b": item[1]}}))
            if item.__class__ is tuple else _ATOM_JSON[item]
            for item in self._items
        ]

    @classmethod
    def from_json(cls, items: list[dict]) -> "TransformLog":
        return cls(step_from_json(item) for item in items)

    def __repr__(self) -> str:
        return f"TransformLog(steps={self.steps!r})"

    def __len__(self) -> int:
        return len(self._items)


# ---------------------------------------------------------------------------
# reduced-form membership

# admissible values of a/r: {0} for lambda = 1, {0, 1/lambda} otherwise;
# admissible b/r: {0, 1/ord} plus {1/2} for ord 4 and [1/3, 1/2] for ord 6.


def _a_reduced(a: int, r: int, lam: int) -> bool:
    return a == 0 or (lam > 1 and lam * a == r)


def _b_reduced(b: int, r: int, ordk: int) -> bool:
    if b == 0 or ordk * b == r:
        return True
    if ordk == 4:
        return 2 * b == r
    if ordk == 6:
        return r <= 3 * b and 2 * b <= r
    return False


def matches_reduced_form(t: int, v: MukaiVector) -> bool:
    """True iff v twist-normalizes to one of the registered row patterns."""
    data = surface_invariants(t)
    if v.r < 1:
        return False
    a = v.a % v.r
    b = v.b % v.r
    return _a_reduced(a, v.r, data.lam) and _b_reduced(b, v.r, data.ord_k)


# ---------------------------------------------------------------------------
# the reduction loop


_ESCAPE_TWIST = DivisorClass(0, -1)  # the ord-3 escape before PSI


def reduce_to_table(t: int, v: MukaiVector) -> tuple[MukaiVector, TransformLog]:
    """Drive a primitive positive-rank vector to a reduced row pattern.

    Rank-reducing steps strictly decrease the rank and keep it positive, so
    at most rank(v) of them occur; the square and primitivity are preserved
    throughout and the returned log replays the input to the output.  The
    loop runs at most 20*r + 100 rounds; running out raises
    ReductionBudgetError.

    One residue class on type 6 is genuinely irreducible under this move
    set: for 3 | r and (a, b) = +-(1, 2) mod 3 every step fixes the pair
    {(r, a, b), (r, -a, -b)} mod 3, while all row patterns avoid those
    residues.  Such vectors are returned in the canonical stuck form
    (3q, q*A0 + 2q*B0, s), which matches_reduced_form rejects.
    """
    if v.r < 1:
        raise PreconditionError(f"reduction needs rank >= 1, got {v.r}")
    if not v.is_primitive():
        raise PreconditionError(f"reduction needs a primitive vector, got {v.text()}")

    data = surface_invariants(t)
    lam, ordk = data.lam, data.ord_k
    act = _act
    items: list = []  # a twist as its (a, b) pair, see TransformLog
    emit = items.append
    r, a, b, s = v.r, v.a, v.b, v.s
    budget = 20 * r + 100
    fuel = budget

    while True:
        fuel -= 1
        if fuel < 0:
            raise ReductionBudgetError(
                f"reduction of {v.text()} on type {t} did not converge within "
                f"its budget of 20*r + 100 = {budget} rounds"
            )
        # one twist putting a and b into [0, r); after a dual it completes
        # the flip a -> (r - a) mod r, b -> (r - b) mod r
        x = -(a // r)
        y = -(b // r)
        if x or y:
            emit((x, y))
            a, b, s = a + r * x, b + r * y, s + a * y + b * x + r * x * y  # _act's twist line

        if not (a == 0 or (lam > 1 and lam * a == r)):  # _a_reduced, inlined
            if 2 * a > r:
                step = DUAL
            elif lam * a < r:
                la = lam * a
                emit(PHI_INV)
                r, b = r - la, b - lam * s  # _act's PHI_INV line
                # The rest of the PHI_INV run, each round what an outer
                # round would do.  PHI_INV (a row operation on
                # [[r, b], [a, s]]) and the twist (0, y) (a column
                # operation) leave a as it is, and a > 0 here; the run's
                # condition gives a < r, so the normalising twist has x = 0,
                # and the a-branch picks PHI_INV again exactly while
                # lam*a < r and 2a <= r: r > lam*a for lam > 1, r >= 2a for
                # lam = 1.  Each round spends one unit of fuel; with none
                # left the outer loop raises.
                stop = la if lam > 1 else 2 * a - 1
                while r > stop and fuel:
                    fuel -= 1
                    y = -(b // r)
                    if y:
                        emit((0, y))
                        b, s = b + r * y, s + a * y
                    emit(PHI_INV)
                    r, b = r - la, b - lam * s
                continue
            else:
                # lambda = 3 and r/3 < a <= r/2
                step = TYPE6_A_MOVE
        elif _b_reduced(b, r, ordk):
            return MukaiVector(r, a, b, s), TransformLog._of_items(items)
        elif 2 * b > r and (a == 0 or 2 * a == r):
            step = DUAL
        elif ordk * b < r:
            step = PSI_INV
        elif ordk == 3:
            if 3 * b < 2 * r:
                step = ORD3_B_MOVE
            elif 3 * b == 2 * r:
                # a = r/3 here; the escape below is rank-neutral and moves b
                # off the stuck residue unless r = 3 (k | s forces k = 1).
                if s % (r // 3) == 0:
                    return MukaiVector(r, a, b, s), TransformLog._of_items(items)
                step = TYPE6_A_MOVE
            else:
                emit((0, -1))
                r, a, b, s = act(_ESCAPE_TWIST, lam, ordk, r, a, b, s)
                step = PSI
        else:
            # ord 4 or 6, r/ord < b < 2r/ord after the safe flip
            step = PSI_DUAL_MOVE
        emit(step)
        r, a, b, s = act(step, lam, ordk, r, a, b, s)


def count_rank_reducing(t: int, v: MukaiVector, log: TransformLog) -> int:
    """Number of log steps that strictly decreased the rank."""
    n = 0
    for step in log.steps:
        w = apply_transform(t, step, v)
        if w.r < v.r:
            n += 1
        v = w
    return n


# ---------------------------------------------------------------------------
# exceptional rank-two families


class ExceptionalKind(Enum):
    RANK2_TRIVIAL = "Rank2Trivial"
    RANK2_TYPE1_B0 = "Rank2Type1B0"


def detect_exceptional(t: int, v: MukaiVector) -> ExceptionalKind | None:
    """Twist-orbit test for the two exceptional rank-two vectors.

    (2, 0, -1) twisted by any line bundle: ord(K) = 2, rank 2, both c1
    coefficients even, square 4.  (2, B0, -1) twisted, on type 1 only:
    rank 2, a even, b odd, square 4.
    """
    data = surface_invariants(t)
    if v.r != 2 or square(v) != 4:
        return None
    if data.ord_k == 2 and v.a % 2 == 0 and v.b % 2 == 0:
        return ExceptionalKind.RANK2_TRIVIAL
    if t == 1 and v.a % 2 == 0 and v.b % 2 == 1:
        return ExceptionalKind.RANK2_TYPE1_B0
    return None
