"""Constraint satisfiability by minimization.

A conjunction of arithmetic comparisons over named reals compiles into
the sum of its branch distances; a root of that sum is a model.  The
check can answer "sat" with a verified model or "unknown", never
"unsat": failing to find a root proves nothing.
"""

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import NonNumericExpression, ParseError, UnknownVariable
from .interp import compile_comparisons
from .lang import Call, Binary, Compare, Deref, Promote, Unary, Var
from .lang import _Parser, check_call, tokenize
from .optimize import Objective
from . import driver


@dataclass
class Constraint:
    conjuncts: list                     # list of Compare nodes
    variables: list                     # ordered names
    text: str = ""


def _collect_vars(expr, seen, order):
    if isinstance(expr, Var):
        if expr.name not in seen:
            seen.add(expr.name)
            order.append(expr.name)
    elif isinstance(expr, Deref):
        raise NonNumericExpression("pointers are not allowed in constraints")
    elif isinstance(expr, (Unary, Promote)):
        _collect_vars(expr.operand, seen, order)
    elif isinstance(expr, (Binary, Compare)):
        _collect_vars(expr.lhs, seen, order)
        _collect_vars(expr.rhs, seen, order)
    elif isinstance(expr, Call):
        check_call(expr, {})
        for a in expr.args:
            _collect_vars(a, seen, order)


def parse_constraint(text, variables=None):
    """Parse `expr op expr && expr op expr && ...` into a Constraint."""
    conjuncts = []
    seen = set()
    order = []
    for part in text.split("&&"):
        part = part.strip()
        if not part:
            continue
        parser = _Parser(tokenize(part))
        cmp = parser.parse_compare()
        tail = parser.peek()
        if tail.kind != "eof":
            raise ParseError(f"trailing input {tail.text!r} in conjunct",
                             tail.line, tail.col)
        _collect_vars(cmp, seen, order)
        conjuncts.append(cmp)
    if variables is not None:
        unknown = [v for v in order if v not in variables]
        if unknown:
            raise UnknownVariable(f"undeclared variables {unknown}")
        order = list(variables)
    return Constraint(conjuncts=conjuncts, variables=order, text=text)


def compile_constraint(constraint, epsilon=1e-6):
    """Objective summing the distance of every conjunct from holding."""
    distance, _ = compile_comparisons(
        constraint.conjuncts, constraint.variables, epsilon)
    return Objective(distance, len(constraint.variables))


@dataclass
class SatResult:
    verdict: str                        # 'sat' or 'unknown'
    model: Optional[list] = None
    residual: float = 0.0
    eval_count: int = 0
    starts_used: int = 0
    wall_time: float = 0.0
    variables: list = field(default_factory=list)


def _holds(constraint, x):
    _, holds = compile_comparisons(constraint.conjuncts,
                                   constraint.variables)
    return holds(x)


def check_sat(constraint, cfg=None):
    """Minimize the compiled objective over restarts; a replay-confirmed
    root yields verdict sat, anything else stays unknown."""
    if cfg is None:
        cfg = driver.SearchConfig()
    started = time.perf_counter()
    arity = len(constraint.variables)
    box = cfg.resolved_box(arity)
    rng = random.Random(cfg.seed)
    inner = compile_constraint(constraint, cfg.epsilon)
    objective = Objective(lambda x: inner.fn(driver._clamp(x, box)),
                          arity)
    result = SatResult(verdict="unknown", residual=float("inf"),
                       variables=list(constraint.variables))

    if arity == 0:
        residual = objective([])
        result.residual = residual
        result.eval_count = objective.eval_count
        if residual == 0.0:
            result.verdict = "sat"
            result.model = []
        result.wall_time = time.perf_counter() - started
        return result

    for _start in range(cfg.n_start):
        result.starts_used += 1
        x_star, f_star = driver._minimize_once(objective, cfg, box, rng)
        x_star = driver._clamp(x_star, box)
        if f_star < result.residual:
            result.residual = f_star
        if f_star == 0.0 and _holds(constraint, x_star):
            result.verdict = "sat"
            result.model = list(x_star)
            result.residual = 0.0
            break
    result.eval_count = objective.eval_count
    result.wall_time = time.perf_counter() - started
    return result
