"""Constraint satisfiability by minimization.

A conjunction of arithmetic comparisons over named reals compiles into
the sum of its branch distances; a root of that sum is a model.  The
check can answer "sat" with a verified model or "unknown", never
"unsat": failing to find a root proves nothing.
"""

from dataclasses import dataclass, field

from .errors import NonNumericExpression, ParseError, UnknownVariable
from .interp import compile_comparisons
from .lang import (
    MAX_EXPR_DEPTH, Call, Deref, Var, _Parser, check_call, is_name,
    memoised, tokenize, walk,
)
from .optimize import Objective
from . import driver


@dataclass
class Constraint:
    """A parsed constraint, read-only once `parse_constraint` returns it;
    its generated source and code and its replay check are kept in
    `_memo`."""
    conjuncts: list                     # list of Compare nodes
    variables: list                     # ordered names
    text: str = ""
    _memo: dict = field(default_factory=dict, compare=False, repr=False)


def _collect_vars(cmp, names):
    """Add the variables of a conjunct to the dict `names` in order of
    first appearance, rejecting pointers, bad calls and operators nested
    too deeply."""
    for node in walk(cmp, MAX_EXPR_DEPTH):
        if isinstance(node, Deref):
            raise NonNumericExpression(
                "pointers are not allowed in constraints")
        if isinstance(node, Call):
            check_call(node, {})
        elif isinstance(node, Var):
            names.setdefault(node.name)


def parse_constraint(text, variables=None):
    """Parse `expr op expr && ...` into a Constraint over `variables`,
    distinct identifiers covering the text's, else the text's in
    order."""
    conjuncts = []
    names = {}
    parser = _Parser(tokenize(text))
    while True:
        while parser.peek().kind == "&&":
            parser.next()
        if parser.peek().kind == "eof":
            break
        try:
            cmp = parser.parse_compare()
        except RecursionError:
            raise ParseError("constraint nested too deeply") from None
        tail = parser.peek()
        if tail.kind not in ("&&", "eof"):
            raise ParseError(f"trailing input {tail.text!r} in conjunct",
                             tail.line, tail.col)
        _collect_vars(cmp, names)
        conjuncts.append(cmp)
    order = list(names)
    if variables is not None:
        order, named = list(variables), order
        for name in order:
            if not is_name(name):
                raise UnknownVariable(f"bad variable {name!r}, need an "
                                      "identifier that is not a keyword")
        if len(set(order)) < len(order) or not set(named) <= set(order):
            raise UnknownVariable(f"bad variables {order}, need distinct "
                                  f"names covering {named}")
    return Constraint(conjuncts=conjuncts, variables=order, text=text)


def compile_constraint(constraint, epsilon=1e-6):
    """Objective summing the distance of every conjunct from holding;
    its namespace gives the constraint its `_holds` check."""
    distance, holds = compile_comparisons(constraint, epsilon)
    constraint._memo.setdefault("holds", holds)
    return Objective(distance, len(constraint.variables))


def _holds(constraint, x):
    """Whether every conjunct holds at `x`; the check is set up once per
    constraint."""
    holds = memoised(constraint, "holds",
                     lambda: compile_comparisons(constraint)[1])
    return holds(x)


def check_sat(constraint, cfg=None):
    """Minimize the compiled objective over restarts; a replay-confirmed
    root yields verdict sat, anything else stays unknown."""
    if cfg is None:
        cfg = driver.SearchConfig()
    distance = compile_constraint(constraint, cfg.epsilon).fn
    result = driver.SearchResult(mode="sat", verdict="unknown",
                                 variables=list(constraint.variables))

    def admit(x, f):
        result.residual = (f if result.residual is None
                           else min(result.residual, f))
        if f == 0.0 and _holds(constraint, x):
            result.verdict = "sat"
            result.model = x
            result.inputs.append(x)
            result.residual = 0.0
            return True
        return False

    return driver.search(result, cfg, len(constraint.variables),
                         lambda: distance, admit)
