"""Source-level normalizations applied before execution.

Two passes run over a parsed program:

* pointer lowering rewrites pointer-to-real parameters into plain scalars,
  so the search space is a flat real vector;
* integer promotion wraps integer-valued comparison operands in an
  explicit to-real conversion, so branch distances always compare reals.

Both passes leave conditional labels untouched.
"""

import copy

from .errors import UnsupportedPointerUse
from .lang import (
    Assign, Binary, Block, Call, Compare, Decl, Deref, ExprStmt, If, Incr,
    Num, Promote, Return, Unary, Var, While, walk,
)


def _rewrite_expr(expr, pointers, in_condition_top=False):
    """Replace *p reads with scalar reads; reject pointer arithmetic."""
    if isinstance(expr, Deref):
        if expr.name in pointers:
            return Var(line=expr.line, col=expr.col, name=expr.name)
        return expr
    if isinstance(expr, Var):
        if expr.name in pointers and not in_condition_top:
            raise UnsupportedPointerUse(
                f"pointer {expr.name!r} used as a value",
                expr.line, expr.col)
        return expr
    if isinstance(expr, Unary):
        expr.operand = _rewrite_expr(expr.operand, pointers)
        return expr
    if isinstance(expr, Promote):
        expr.operand = _rewrite_expr(expr.operand, pointers)
        return expr
    if isinstance(expr, Binary):
        expr.lhs = _rewrite_expr(expr.lhs, pointers)
        expr.rhs = _rewrite_expr(expr.rhs, pointers)
        return expr
    if isinstance(expr, Compare):
        # bare pointer operands stay put; the conditional is already
        # flagged uninstrumentable and the operand reads the raw slot
        expr.lhs = _rewrite_expr(expr.lhs, pointers,
                                 in_condition_top=not expr.instrumentable)
        expr.rhs = _rewrite_expr(expr.rhs, pointers,
                                 in_condition_top=not expr.instrumentable)
        return expr
    if isinstance(expr, Call):
        expr.args = [_rewrite_expr(a, pointers) for a in expr.args]
        return expr
    return expr


def _rewrite_stmt(stmt, pointers):
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            _rewrite_stmt(s, pointers)
    elif isinstance(stmt, Decl):
        if stmt.init is not None:
            stmt.init = _rewrite_expr(stmt.init, pointers)
    elif isinstance(stmt, Assign):
        stmt.expr = _rewrite_expr(stmt.expr, pointers)
        if isinstance(stmt.target, Deref) and stmt.target.name in pointers:
            stmt.target = Var(line=stmt.target.line, col=stmt.target.col,
                              name=stmt.target.name)
    elif isinstance(stmt, Incr):
        stmt.target = _rewrite_expr(stmt.target, pointers)
    elif isinstance(stmt, If):
        stmt.cond = _rewrite_expr(stmt.cond, pointers)
        _rewrite_stmt(stmt.then, pointers)
        if stmt.els is not None:
            _rewrite_stmt(stmt.els, pointers)
    elif isinstance(stmt, While):
        stmt.cond = _rewrite_expr(stmt.cond, pointers)
        _rewrite_stmt(stmt.body, pointers)
    elif isinstance(stmt, Return):
        if stmt.expr is not None:
            stmt.expr = _rewrite_expr(stmt.expr, pointers)
    elif isinstance(stmt, ExprStmt):
        stmt.expr = _rewrite_expr(stmt.expr, pointers)


def lower_pointers(program):
    """Return a copy with pointer parameters turned into scalars."""
    program = copy.deepcopy(program)
    for fn in program.functions:
        pointers = {name for name, kind in fn.params if kind == "ptr"}
        if not pointers:
            continue
        fn.params = [(name, "real") for name, _kind in fn.params]
        _rewrite_stmt(fn.body, pointers)
    return program


_INT_VALUED_CALLS = ("hiword", "loword", "floor")


def _is_integer_valued(expr):
    if isinstance(expr, Num):
        return expr.is_int
    if isinstance(expr, Call):
        return expr.name in _INT_VALUED_CALLS
    if isinstance(expr, Unary):
        return _is_integer_valued(expr.operand)
    if isinstance(expr, Binary) and expr.op in ("+", "-", "*"):
        return _is_integer_valued(expr.lhs) and _is_integer_valued(expr.rhs)
    return False


def promote_integers(cond):
    """Wrap integer-valued comparison operands in a to-real conversion."""
    if not cond.instrumentable:
        return cond
    if _is_integer_valued(cond.lhs):
        cond.lhs = Promote(line=cond.lhs.line, col=cond.lhs.col,
                           operand=cond.lhs)
    if _is_integer_valued(cond.rhs):
        cond.rhs = Promote(line=cond.rhs.line, col=cond.rhs.col,
                           operand=cond.rhs)
    return cond


def _promote_conditions(program):
    for fn in program.functions:
        for node in walk(fn.body):
            if isinstance(node, (If, While)):
                promote_integers(node.cond)
    return program


def promote_program(program):
    """Return a copy with integer promotion applied to every conditional."""
    return _promote_conditions(copy.deepcopy(program))


def prepare(program):
    """Full normalization pipeline: lower pointers, then promote integers.

    Labels assigned at parse time are carried through unchanged; the
    passes neither add nor remove conditionals.  The input program is
    left as it is: lowering works on a copy.
    """
    return _promote_conditions(lower_pointers(program))
