"""Exception types shared across the package, and the setting checks."""

import math
import numbers


class MexecError(Exception):
    """Base class for all mexec errors."""


class ParseError(MexecError):
    """Syntax error in a .mx source or constraint, with position info."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class UndeclaredIdentifier(ParseError):
    pass


class DuplicateFunction(ParseError):
    pass


class UnknownFunction(MexecError):
    pass


class UnsupportedPointerUse(ParseError):
    pass


class NaNOperand(MexecError):
    pass


class StepBudgetExceeded(MexecError):
    pass


class CallDepthExceeded(MexecError):
    pass


class ArityMismatch(MexecError):
    pass


class MalformedPath(MexecError):
    pass


class InvalidBox(MexecError):
    """A search box bound that is not finite, or lo >= hi."""


class InvalidBracket(MexecError):
    pass


class UnknownVariable(MexecError):
    pass


class NonNumericExpression(MexecError):
    pass


def check_count(name, value, least):
    """Raise MexecError naming the setting unless it is an integer >= least."""
    if not isinstance(value, numbers.Integral):
        raise MexecError(f"bad {name} {value!r}, need an integer")
    if value < least:
        raise MexecError(f"bad {name} {value!r}, need at least {least}")


def check_number(name, value, positive=False, finite=True):
    """Raise MexecError naming the setting unless it is a real number,
    > 0 if `positive` and >= 0 if not, and finite if `finite`."""
    if not (isinstance(value, numbers.Real)
            and (value > 0 if positive else value >= 0)
            and (value < math.inf or not finite)):
        need = ("positive" if positive else "nonnegative") + (
            " finite" if finite else "")
        raise MexecError(f"bad {name} {value!r}, need a {need} number")
