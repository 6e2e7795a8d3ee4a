"""Reference tree-walking interpreter, the oracle for the compiled engine.

It walks the parsed AST statement by statement and expression by
expression, with the package's own arithmetic rules written out again
here, and produces the same ExecutionTrace as `mexec.interp.execute`.
The tests check the compiled engine against it; it is not shipped.
"""

import math
import struct
import sys

from mexec.distance import branch_distance, compare, negate_op
from mexec.errors import (
    ArityMismatch, CallDepthExceeded, NaNOperand, StepBudgetExceeded,
    UnknownFunction,
)
from mexec.interp import (
    BVA, COVERAGE, MAX_CALL_DEPTH, PATH, SENTINEL, ExecutionTrace,
)
from mexec.lang import (
    Assign, Binary, Call, Deref, ExprStmt, If, Num, Return, Unary, Var,
    While,
)
from mexec.saturation import pen

_R0 = {COVERAGE: 1.0, PATH: 0.0, BVA: 1.0}

# Python frames one .mx call level can take here, with room to spare
_FRAMES_PER_CALL = 40


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value


def _pow(a, b):
    try:
        return math.pow(a, b)
    except OverflowError:
        if a < 0 and b == int(b) and int(b) % 2 == 1:
            return -math.inf
        return math.inf
    except ValueError:
        return math.nan


def _words(x):
    return struct.unpack(">II", struct.pack(">d", x))


def _call_builtin(name, args):
    try:
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "tan":
            return math.tan(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "log":
            return math.log(args[0])
        if name == "sqrt":
            return math.sqrt(args[0])
        if name == "fabs":
            return math.fabs(args[0])
        if name == "floor":
            x = args[0]
            return float(math.floor(x)) if math.isfinite(x) else x
        if name == "pow":
            return _pow(args[0], args[1])
        if name == "hiword":
            x = args[0]
            return math.nan if math.isnan(x) else float(_words(x)[0])
        if name == "loword":
            x = args[0]
            return math.nan if math.isnan(x) else float(_words(x)[1])
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan
    raise UnknownFunction(f"unknown builtin {name!r}")


class _Interp:
    def __init__(self, program, cfg, sat_state, step_budget):
        self.program = program
        self.cfg = cfg
        self.sat_state = sat_state
        self.step_budget = step_budget
        self.trace = ExecutionTrace()
        self.r = _R0.get(cfg.mode, 0.0)
        self.path_cursor = 0
        self.depth = 0

    # -- expressions

    def eval_expr(self, expr, env):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, (Var, Deref)):
            return env[expr.name]
        if isinstance(expr, Unary):
            return -self.eval_expr(expr.operand, env)
        if isinstance(expr, Binary):
            a = self.eval_expr(expr.lhs, env)
            b = self.eval_expr(expr.rhs, env)
            if expr.op == "+":
                return a + b
            if expr.op == "-":
                return a - b
            if expr.op == "*":
                return a * b
            if expr.op == "/":
                try:
                    return a / b
                except ZeroDivisionError:
                    if a == 0 or math.isnan(a):
                        return math.nan
                    return math.copysign(math.inf, a) * math.copysign(1.0, b)
            if expr.op == "^":
                return _pow(a, b)
            raise ValueError(f"unhandled operator {expr.op!r}")
        if isinstance(expr, Call):
            args = [self.eval_expr(a, env) for a in expr.args]
            fn = self.program.function(expr.name)
            if fn is None:
                return _call_builtin(expr.name, args)
            self.trace.covered_calls.add((expr.line, expr.col))
            return self.call_function(fn, args)
        raise ValueError(f"unhandled expression {expr!r}")

    def call_function(self, fn, args):
        if len(args) != len(fn.params):
            raise ArityMismatch(
                f"{fn.name} expects {len(fn.params)} arguments, "
                f"got {len(args)}")
        if self.depth >= MAX_CALL_DEPTH:
            raise CallDepthExceeded(f"calls nested deeper than "
                                    f"{MAX_CALL_DEPTH}")
        env = {name: float(v) for (name, _k), v in zip(fn.params, args)}
        self.depth += 1
        try:
            self.exec_stmts(fn.body, env)
        except _ReturnSignal as ret:
            return ret.value
        finally:
            self.depth -= 1
        return 0.0

    # -- statements

    def tick(self, stmt):
        self.trace.steps += 1
        if self.trace.steps > self.step_budget:
            raise StepBudgetExceeded(
                f"more than {self.step_budget} statements executed")
        if stmt.line:
            self.trace.covered_lines.add(stmt.line)

    def exec_stmts(self, stmts, env):
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt, env):
        if isinstance(stmt, Assign):
            self.tick(stmt)
            env[stmt.target.name] = self.eval_expr(stmt.expr, env)
            return
        if isinstance(stmt, ExprStmt):
            self.tick(stmt)
            self.eval_expr(stmt.expr, env)
            return
        if isinstance(stmt, Return):
            self.tick(stmt)
            raise _ReturnSignal(self.eval_expr(stmt.expr, env))
        if isinstance(stmt, If):
            self.tick(stmt)
            if self.eval_condition(stmt.cond, env):
                self.exec_stmts(stmt.then, env)
            else:
                self.exec_stmts(stmt.els, env)
            return
        if isinstance(stmt, While):
            while True:
                self.tick(stmt)
                if not self.eval_condition(stmt.cond, env):
                    break
                self.exec_stmts(stmt.body, env)
            return
        raise TypeError(f"unhandled statement {stmt!r}")

    def eval_condition(self, cond, env):
        a = self.eval_expr(cond.lhs, env)
        b = self.eval_expr(cond.rhs, env)
        if cond.label is None:
            return compare(cond.op, a, b)
        label = cond.label
        eps = self.cfg.epsilon
        self.trace.covered_conditionals.add(label)
        mode = self.cfg.mode
        if mode == COVERAGE:
            self.r = pen(label, cond.op, a, b, self.sat_state, self.r, eps)
        elif mode == PATH:
            target = self.cfg.target_path
            if (self.path_cursor < len(target)
                    and target[self.path_cursor][0] == label):
                side = target[self.path_cursor][1]
                op = cond.op if side == "T" else negate_op(cond.op)
                self.r += branch_distance(op, a, b, eps)
                self.path_cursor += 1
        elif mode == BVA:
            self.r *= branch_distance("==", a, b, eps)
        outcome = compare(cond.op, a, b)
        branch = (label, "T" if outcome else "F")
        self.trace.path.append(branch)
        self.trace.covered_branches.add(branch)
        return outcome


def execute(program, inputs, cfg, sat_state=None, entry=None,
            step_budget=1_000_000):
    """Run `entry` on `inputs` by walking the AST; see
    `mexec.interp.execute` for the trace it returns."""
    if entry is None:
        entry = program.functions[-1].name
    fn = program.function(entry)
    if fn is None:
        raise UnknownFunction(f"no function named {entry!r}")
    if len(inputs) != len(fn.params):
        raise ArityMismatch(
            f"{entry} expects {len(fn.params)} inputs, got {len(inputs)}")
    interp = _Interp(program, cfg, sat_state, step_budget)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _FRAMES_PER_CALL * MAX_CALL_DEPTH))
    try:
        interp.trace.return_value = interp.call_function(fn, list(inputs))
        interp.trace.final_r = interp.r
        if math.isnan(interp.r) or math.isinf(interp.r):
            interp.trace.aborted = "non-finite representing value"
        if not -sys.float_info.max <= interp.r <= SENTINEL:
            interp.trace.final_r = SENTINEL
    except NaNOperand:
        interp.trace.final_r = SENTINEL
        interp.trace.aborted = "nan operand"
    except StepBudgetExceeded:
        interp.trace.final_r = SENTINEL
        interp.trace.aborted = "step budget exceeded"
    except CallDepthExceeded:
        interp.trace.final_r = SENTINEL
        interp.trace.aborted = "recursion depth"
    finally:
        sys.setrecursionlimit(limit)
    return interp.trace
