"""Exception hierarchy shared by the whole package.

Every error raised on a user-facing path derives from RainbowError so CLI
code can map "bad input" and "internal failure" to distinct exit codes.
"""

import math


class RainbowError(Exception):
    """Base class for all package errors."""


class BadShape(RainbowError):
    """An argument has the wrong type or shape: a grid that is not
    square, a malformed line, edge or cell, or an instance of another
    class."""


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


def require_trace(trace) -> None:
    """PreconditionViolated unless trace, a solver's event hook, is None
    or callable."""
    if trace is not None and not callable(trace):
        raise PreconditionViolated(f"trace must be None or callable, got {type(trace).__name__}")


def require_stats(stats) -> None:
    """PreconditionViolated unless stats, a builder's count sink, is None
    or a dict."""
    if stats is not None and not isinstance(stats, dict):
        raise PreconditionViolated(f"stats must be None or a dict, got {type(stats).__name__}")


def require_cycle_bound(k) -> None:
    """PreconditionViolated unless k, a bound on forbidden cycle lengths,
    is math.inf or an int (a bool is not) of at least 0."""
    if type(k) is not float or k != math.inf:
        if type(k) is not int:
            kind = type(k).__name__
            raise PreconditionViolated(f"cycle bound must be an int or math.inf, got {kind}")
        if k < 0:
            raise PreconditionViolated(f"cycle bound must be at least 0, got {k}")


class InternalInvariantBroken(RainbowError):
    """A step the construction guarantees to succeed failed anyway.

    Raising this is a bug report about the solver (or a disproof of the
    guarantee), never about the input.
    """
