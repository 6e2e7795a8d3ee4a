"""Exception types shared across the package."""


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
