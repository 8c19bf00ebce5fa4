"""Exception hierarchy shared by all modules."""


class BiellipticError(Exception):
    """Base class for all library errors."""


class PreconditionError(BiellipticError):
    """An operation was called on input violating its stated precondition."""


class ReductionBudgetError(PreconditionError):
    """A reduction ran out of its round budget without reaching a row pattern."""


class InvalidSurfaceError(PreconditionError):
    """Surface type index outside 1..7."""


class DegenerateChargeError(PreconditionError):
    """Central charge of the reference vector vanishes."""


class NotHyperbolicError(PreconditionError):
    """A rank-2 sublattice does not have signature (1,-1)."""
