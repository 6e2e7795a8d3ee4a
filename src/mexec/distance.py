"""Branch distance: how far a comparison `a op b` is from holding.

The distance is nonnegative and zero exactly when the comparison holds.
Equality-flavored comparators use a squared difference; strict comparators
add a small epsilon so that a point sitting exactly on the boundary still
registers a positive distance.
"""

import math
import operator

from .errors import NaNOperand

COMPARATORS = ("==", "!=", "<", "<=", ">", ">=")

_NEGATION = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


def negate_op(op):
    """Logical negation of a comparator, e.g. <= becomes >."""
    return _NEGATION[op]


_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(op, a, b):
    """Evaluate the comparison `a op b` as a boolean."""
    if op not in _COMPARE:
        raise ValueError(f"unknown comparator {op!r}")
    return _COMPARE[op](a, b)


def branch_distance(op, a, b, epsilon=1e-6):
    """Distance of `a op b` from holding; zero iff the comparison holds.

    Cases:
      ==  -> (a - b)^2
      <=  -> 0 if a <= b else (a - b)^2
      <   -> 0 if a < b else (a - b)^2 + epsilon
      !=  -> 0 if a != b else epsilon
      >=  -> distance(<=, b, a)
      >   -> distance(<, b, a)
    """
    if math.isnan(a) or math.isnan(b):
        raise NaNOperand(f"NaN operand in comparison {a!r} {op} {b!r}")
    if op == ">=":
        return branch_distance("<=", b, a, epsilon)
    if op == ">":
        return branch_distance("<", b, a, epsilon)
    if op == "==":
        d = a - b
        return d * d
    if op == "<=":
        if a <= b:
            return 0.0
        d = a - b
        return d * d
    if op == "<":
        if a < b:
            return 0.0
        d = a - b
        return d * d + epsilon
    if op == "!=":
        return 0.0 if a != b else epsilon
    raise ValueError(f"unknown comparator {op!r}")
