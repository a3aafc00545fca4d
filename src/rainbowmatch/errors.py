"""Exception hierarchy shared by the whole package.

Every error raised on a user-facing path derives from RainbowError so CLI
code can map "bad input" and "internal failure" to distinct exit codes.
"""


class RainbowError(Exception):
    """Base class for all package errors."""


class BadShape(RainbowError):
    """A grid of rows is not square or rows have unequal lengths."""


class NotLatin(RainbowError):
    """A square grid has a repeated symbol in some row or column."""


class SelfLoop(RainbowError):
    """A graph edge joins a vertex to itself."""


class DuplicateEdge(RainbowError):
    """The same vertex pair appears twice in an edge list."""


class ImproperColoring(RainbowError):
    """Two edges of equal color share an endpoint."""


class InfeasibleParameters(RainbowError):
    """Requested parameters admit no instance (e.g. degree >= order)."""


class PreconditionViolated(RainbowError):
    """An instance fails the stated hypothesis of a solver."""


class BudgetExceeded(RainbowError):
    """An exact search hit its node or size budget."""


def require_type(value, kind: type) -> None:
    """BadShape naming the expected type, unless value is a kind."""
    if not isinstance(value, kind):
        raise BadShape(f"expected a {kind.__name__}, got {type(value).__name__}")


def require_int(name: str, value, least: int) -> None:
    """PreconditionViolated unless value is an int (a bool is not) of at
    least least."""
    if type(value) is not int:
        raise PreconditionViolated(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise PreconditionViolated(f"{name} must be at least {least}, got {value}")


class InternalInvariantBroken(RainbowError):
    """A step the construction guarantees to succeed failed anyway.

    Raising this is a bug report about the solver (or a disproof of the
    guarantee), never about the input.
    """
