"""Representing functions compiled to Python.

The parsed program is translated to Python source, one Python function
per .mx function, once per program, mode and flavour, and for the fast
flavour once per entry: the source and its compiled code are kept on
the Program, the one cache of both.  Each mode call execs that code
into a namespace of its own.
One generator emits two flavours of the same program:

* the fast flavour computes only the final representing value r.  Its
  one evaluation is the line runner that `_bind` gives an
  optimize.Objective: it builds the point x + t*d (a point request is
  t = -0.0 along zeros), counts one evaluation, clamps the point into
  the objective's box, runs the entry and maps a non-finite or
  above-sentinel r to the sentinel; at the last clamped point it ran it
  returns the value kept;
* the tracing flavour also records coverage facts (lines, conditionals,
  call sites, the branch path, steps) in an ExecutionTrace, whose
  covered branches are the set of its path; `execute`, admission
  replays and reports use it.

A `sat` constraint compiles to the same runner, its r the sum of its
comparisons' branch distances; its source and code are kept on the
Constraint.

At each labeled conditional the mode decides how r changes, by the same
lines in both flavours: coverage takes the penalty (saturation.pen) from
the saturation table, path adds the distance toward the target branch,
boundary-value analysis multiplies by the equality distance, and plain
leaves r alone.  An evaluation aborts, and reports the sentinel, on a
NaN operand of a comparison whose distance is computed, on more
statements than the step budget, or on user calls nested deeper than
MAX_CALL_DEPTH.  The fast flavour leaves out the step count and the
call depth where `run_bounds` shows that neither abort can happen.
"""

import math
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .distance import negate_op
from .errors import (
    ArityMismatch, CallDepthExceeded, MexecError, NaNOperand,
    StepBudgetExceeded, UnknownFunction,
)
from .lang import (
    Assign, Binary, Block, Call, Deref, ExprStmt, If, Num, Return, Unary,
    Var, While, memoised, walk,
)
from .optimize import SENTINEL, Objective
# unused: bound only because the benchmark tracer patches `interp.pen`
from .saturation import pen  # noqa: F401

COVERAGE = "coverage"
PATH = "path"
BVA = "bva"
PLAIN = "plain"

# representing value at entry, per mode
_R0 = {COVERAGE: 1.0, PATH: 0.0, BVA: 1.0, PLAIN: 0.0}

# user calls nested deeper than this abort the evaluation; the entry
# function is at depth 1
MAX_CALL_DEPTH = 100

@dataclass
class RepFunConfig:
    mode: str = COVERAGE
    epsilon: float = 1e-6
    target_path: Optional[tuple] = None


def coverage_config(epsilon=1e-6):
    return RepFunConfig(mode=COVERAGE, epsilon=epsilon)


def path_config(target_path, epsilon=1e-6):
    return RepFunConfig(mode=PATH, epsilon=epsilon,
                        target_path=tuple(target_path))


def bva_config(epsilon=1e-6):
    return RepFunConfig(mode=BVA, epsilon=epsilon)


def plain_config():
    return RepFunConfig(mode=PLAIN)


@dataclass
class ExecutionTrace:
    path: list = field(default_factory=list)
    covered_lines: set = field(default_factory=set)
    covered_conditionals: set = field(default_factory=set)
    covered_branches: set = field(default_factory=set)
    covered_calls: set = field(default_factory=set)
    final_r: float = 0.0
    steps: int = 0
    return_value: Optional[float] = None
    aborted: Optional[str] = None


_ABORTS = {
    NaNOperand: "nan operand",
    StepBudgetExceeded: "step budget exceeded",
    CallDepthExceeded: "recursion depth",
}


# ---------------------------------------------------------------------------
# Arithmetic, called by the generated code

def _pow(a, b):
    try:
        return math.pow(a, b)
    except OverflowError:
        # sign of an overflowed power: negative base with odd integer
        # exponent flips the sign
        if a < 0 and b == int(b) and int(b) % 2 == 1:
            return -math.inf
        return math.inf
    except ValueError:
        return math.nan


def _div(a, b):
    """a / b; for b = +-0, NaN for 0/0 and NaN/0, else a signed
    infinity."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


_DOUBLE = struct.Struct(">d")
_WORDS = struct.Struct(">II")


def _word(index):
    """hiword (index 0) or loword (1): that 32-bit word of a double."""
    def word(x):
        if math.isnan(x):
            return math.nan
        return float(_WORDS.unpack(_DOUBLE.pack(x))[index])
    return word


def _floor(x):
    # a real: the floor of a finite double is itself a double
    return float(math.floor(x)) if math.isfinite(x) else x


def _guarded(fn):
    """`fn` with overflow mapped to inf and domain errors to NaN."""
    def call(x):
        try:
            return fn(x)
        except OverflowError:
            return math.inf
        except ValueError:
            return math.nan
    return call


BUILTIN_FUNCTIONS = {
    "sin": _guarded(math.sin),
    "cos": _guarded(math.cos),
    "tan": _guarded(math.tan),
    "exp": _guarded(math.exp),
    "log": _guarded(math.log),
    "sqrt": _guarded(math.sqrt),
    "fabs": math.fabs,
    "floor": _floor,
    "pow": _pow,
    "hiword": _word(0),
    "loword": _word(1),
}


def _nan(a, op, b):
    raise NaNOperand(f"NaN operand in comparison {a!r} {op} {b!r}")


# ---------------------------------------------------------------------------
# Code generation

# branch_distance(op, a, b) on NaN-free operands; > and >= swap theirs
_DISTANCE = {
    "==": "(({a} - {b}) * ({a} - {b}))",
    "!=": "(0.0 if {a} != {b} else _eps)",
    "<": "(0.0 if {a} < {b} else ({a} - {b}) * ({a} - {b}) + _eps)",
    "<=": "(0.0 if {a} <= {b} else ({a} - {b}) * ({a} - {b}))",
}
_SWAPPED = {">": "<", ">=": "<="}


def _distance(op, update):
    """Lines computing branch_distance(op, _a, _b) into `update`, a
    format string such as "_r = _r + {}", after the NaN-operand abort."""
    if op in _SWAPPED:
        value = _DISTANCE[_SWAPPED[op]].format(a="_b", b="_a")
    else:
        value = _DISTANCE[op].format(a="_a", b="_b")
    return [f"if _a != _a or _b != _b: _nan(_a, {op!r}, _b)",
            update.format(value)]


# what the coverage penalty does at a label, by the saturation of its
# two sides: keep r (both), reset it to 0 (neither), or take the
# distance toward the unsaturated side
_KEEP, _RESET, _TOWARD_T, _TOWARD_F = range(4)


def _flatten(stmt):
    """The statements of a block, nested blocks spliced in."""
    if isinstance(stmt, Block):
        return [s for inner in stmt.stmts for s in _flatten(inner)]
    return [stmt]


def _returns(stmt):
    """True if the statement contains a return."""
    return any(isinstance(node, Return) for node in walk(stmt))


def _literal(value):
    return repr(value) if math.isfinite(value) else f"_float({str(value)!r})"


class _Source:
    """Python source for one program under one mode, in one flavour.

    A .mx function `f` becomes `f_f(_dp, [_site,] v_<param>...)`, where
    `_dp` is the call depth and the tracing flavour's `_site` is the
    call site to record.  Variables become locals `v_<name>`; the
    representing value `_r`, the step count `_n` and the path cursor
    `_c` are globals of the namespace the source runs in.  Without
    `guards`, a fast source counts no steps and passes no `_dp`.
    """

    def __init__(self, mode=PLAIN, tracing=False, guards=True):
        self.mode = mode
        self.tracing = tracing
        self.guards = guards
        self.lines = []
        self.indent = 0

    def emit(self, line):
        self.lines.append("    " * self.indent + line)

    def compiled(self, name):
        """The source emitted and its code."""
        source = "\n".join(self.lines) + "\n"
        return source, _compile(source, name)

    # -- expressions

    def expr(self, e):
        if isinstance(e, Num):
            return _literal(e.value)
        if isinstance(e, (Var, Deref)):
            return f"v_{e.name}"
        if isinstance(e, Unary):
            return f"(-{self.expr(e.operand)})"
        if isinstance(e, Binary):
            a, b = self.expr(e.lhs), self.expr(e.rhs)
            if e.op in ("+", "-", "*"):
                return f"({a} {e.op} {b})"
            if e.op == "^":
                return f"_pow({a}, {b})"
            if isinstance(e.rhs, Num) and e.rhs.value != 0:
                return f"({a} / {b})"
            return f"_div({a}, {b})"
        if isinstance(e, Call):
            args = [self.expr(a) for a in e.args]
            if e.name in BUILTIN_FUNCTIONS:
                return f"_b_{e.name}({', '.join(args)})"
            head = ["(_dp + 1)"] if self.guards else []
            if self.tracing:
                head.append(repr((e.line, e.col)))
            return f"f_{e.name}({', '.join(head + args)})"
        raise ValueError(f"unhandled expression {e!r}")

    # -- conditionals

    def hook(self, cond):
        """Lines updating `_r` from operands `_a`, `_b` at a labeled
        conditional, per mode."""
        op, label = cond.op, cond.label
        if self.mode == COVERAGE:
            return ([f"_k = _sat[{label}]",
                     f"if _k == {_RESET}:",
                     "    _r = 0.0",
                     f"elif _k == {_TOWARD_T}:"]
                    + ["    " + s for s in _distance(op, "_r = {}")]
                    + [f"elif _k == {_TOWARD_F}:"]
                    + ["    " + s for s in _distance(negate_op(op),
                                                     "_r = {}")])
        if self.mode == PATH:
            return ([f"if _tl[_c] == {label}:",
                     "    if _tt[_c]:"]
                    + ["        " + s for s in _distance(op, "_r = _r + {}")]
                    + ["    else:"]
                    + ["        " + s for s in _distance(negate_op(op),
                                                         "_r = _r + {}")]
                    + ["    _c = _c + 1"])
        if self.mode == BVA:
            return _distance("==", "_r = _r * {}")
        return []

    def test(self, cond):
        """Emit what precedes the test of a conditional; return the test
        and the lines to run first on its true and on its false side."""
        a, b = self.expr(cond.lhs), self.expr(cond.rhs)
        label = cond.label
        if label is None:
            return f"{a} {cond.op} {b}", [], []
        hook = self.hook(cond)
        self.emit(f"_a = {a}")
        self.emit(f"_b = {b}")
        if self.tracing:
            self.emit(f"_cond({label})")
        for line in hook:
            self.emit(line)
        if not self.tracing:
            return f"_a {cond.op} _b", [], []
        return (f"_a {cond.op} _b", [f"_path(({label}, 'T'))"],
                [f"_path(({label}, 'F'))"])

    # -- statements

    def suite(self, lines, stmt=None):
        self.indent += 1
        start = len(self.lines)
        for line in lines:
            self.emit(line)
        if stmt is not None:
            self.body(stmt)
        if len(self.lines) == start:
            self.emit("pass")
        self.indent -= 1

    def tick(self, count, line):
        if self.guards:
            self.emit(f"_n += {count}")
            self.emit("if _n > _B: raise _StepBudgetExceeded")
        if self.tracing and line:
            self.emit(f"_line({line})")

    def body(self, stmt):
        """Emit a statement sequence with its step counting.

        The tracing flavour counts each statement as it starts.  The
        fast flavour counts a run of statements at once, up to the
        first one that may return: every count it adds is one the
        statement-by-statement count reaches too unless the evaluation
        aborts first, so it exceeds the budget on the same evaluations,
        and those report the sentinel whichever abort comes first.
        """
        stmts = _flatten(stmt)
        if self.tracing:
            for s in stmts:
                if not isinstance(s, While):
                    self.tick(1, s.line)
                self.stmt(s)
            return
        while stmts:
            batch = stmts
            for i, s in enumerate(stmts):
                if _returns(s):
                    batch = stmts[:i + 1]
                    break
            stmts = stmts[len(batch):]
            ticks = sum(not isinstance(s, While) for s in batch)
            if ticks:
                self.tick(ticks, 0)
            for s in batch:
                self.stmt(s)

    def stmt(self, s):
        """Emit one statement, other than a block, without its count."""
        if isinstance(s, While):
            self.emit("while True:")
            self.indent += 1
            self.tick(1, s.line)
            test, on_true, on_false = self.test(s.cond)
            self.emit(f"if {test}:")
            self.suite(on_true)
            self.emit("else:")
            self.suite(on_false + ["break"])
            self.body(s.body)
            self.indent -= 1
        elif isinstance(s, Assign):
            self.emit(f"v_{s.target.name} = {self.expr(s.expr)}")
        elif isinstance(s, ExprStmt):
            self.emit(self.expr(s.expr))
        elif isinstance(s, Return):
            value = self.expr(s.expr) if s.expr is not None else "0.0"
            self.emit(f"return {value}")
        elif isinstance(s, If):
            test, on_true, on_false = self.test(s.cond)
            self.emit(f"if {test}:")
            self.suite(on_true, s.then)
            if on_false or s.els is not None:
                self.emit("else:")
                self.suite(on_false, s.els)
        else:
            raise TypeError(f"unhandled statement {s!r}")

    def function(self, fn):
        params = (["_dp"] if self.guards else []) + (
            ["_site"] if self.tracing else [])
        params += [f"v_{name}" for name, _kind in fn.params]
        self.emit(f"def f_{fn.name}({', '.join(params)}):")
        self.indent += 1
        self.emit("global _r, _n, _c")
        if self.tracing:
            self.emit("if _site is not None: _call(_site)")
        if self.guards:
            self.emit(f"if _dp > {MAX_CALL_DEPTH}: raise _CallDepthExceeded")
        self.body(fn.body)
        stmts = _flatten(fn.body)
        if not stmts or not isinstance(stmts[-1], Return):
            self.emit("return 0.0")
        self.indent -= 1

    def define(self, signature, lines):
        self.emit(f"def {signature}:")
        self.suite(lines)

    def runner(self, params, core):
        """Emit `_bind(_obj, _s, _lo0, _hi0, _lo1, ...)`, which returns
        the line runner `_line(x, d, t)` of the objective `_obj` for a
        representing function of the inputs `params`, local names;
        `core` computes `_r` from them and returns the sentinel on an
        abort.  The runner builds the point x[i] + t * d[i], counts one
        evaluation on `_obj`, clamps each input into its (lo, hi) as
        min(max(v, lo), hi) does, NaN and signed zeros included, and
        maps a non-finite or above-sentinel `_r` to the sentinel.  The
        saturation table `_s` and the bounds are the runner's own.

        The runner keeps the last clamped point `_m0, _m1, ...` it ran
        to a normal return, and its value `_mr`.  A request at exactly
        that point, each input equal and of the same sign if zero,
        returns `_mr` and counts a reuse on `_obj` instead of running
        the entry again; a NaN input never matches.
        """
        n = len(params)
        clamp = [line for i, v in enumerate(params)
                 for line in (f"if {v} < _lo{i}: {v} = _lo{i}",
                              f"if {v} > _hi{i}: {v} = _hi{i}")]
        sanitise = [f"if {-sys.float_info.max!r} <= _r <= {SENTINEL!r}:",
                    "    _mr = _r",
                    "else:",
                    "    _mr = _SENTINEL",
                    "return _mr"]
        bounds = "".join(f", _lo{i}, _hi{i}" for i in range(n))
        self.emit(f"def _bind(_obj, _s{bounds}):")
        self.indent += 1
        head, reuse = [], []
        if n:
            last = [f"_m{i}" for i in range(n)]
            self.emit(f"_mr = {' = '.join(last)} = _float('nan')")
            head.append(f"nonlocal {', '.join(last)}, _mr")
            same = ([f"{v} == {m}" for v, m in zip(params, last)]
                    + [f"({v} or _cs(1.0, {v}) == _cs(1.0, {m}))"
                       for v, m in zip(params, last)])
            reuse = [f"if {' and '.join(same)}:",
                     "    _obj.reuse_count += 1",
                     "    return _mr"]
            sanitise.insert(0, f"{', '.join(last)} = {', '.join(params)}")
        self.define("_line(x, d, t)",
                    head + [f"{v} = x[{i}] + t * d[{i}]"
                            for i, v in enumerate(params)]
                    + ["_obj.eval_count += 1"] + clamp + reuse + core
                    + sanitise)
        self.emit("return _line")
        self.indent -= 1


def _namespace():
    ns = {f"_b_{name}": fn for name, fn in BUILTIN_FUNCTIONS.items()}
    ns.update(_pow=_pow, _div=_div, _nan=_nan,
              _float=float, _cs=math.copysign,
              _StepBudgetExceeded=StepBudgetExceeded,
              _CallDepthExceeded=CallDepthExceeded, _SENTINEL=SENTINEL,
              _ABORTS=tuple(_ABORTS))
    return ns


# A kept source holds nothing run-specific, so one code object serves
# every run: budget, epsilon, path target, saturation table and box are
# bound in each run's namespace or runner.
def _compile(source, name):
    # `parse` bounds the source for CPython 3.11; this is the backstop
    try:
        return compile(source, f"<mexec {name}>", "exec")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        reason = str(exc) or (f"{type(exc).__name__} (the Python parser "
                              "ran out of stack)")
        raise MexecError(f"cannot compile {name}: {reason}") from None


class RepresentingFunction:
    """A compiled representing function of the input vector.

    `runner(objective)` gives the generated line runner of an
    optimize.Objective: it clamps into `objective.box`, counts on
    `objective` and sanitises.  Called on a point, it gives the value of
    one Objective without a box, bound on the first call.
    """

    def __init__(self, ns, arity, table=None):
        self._bind = ns["_bind"]
        self.arity = arity
        self.table = table

    def __call__(self, x):
        return self._plain(x)

    @cached_property
    def _plain(self):
        return Objective(self, self.arity)

    def runner(self, objective):
        box = objective.box or [(-math.inf, math.inf)] * self.arity
        # float bounds keep a clamped input a float; a float input
        # clamps to the same value as with the bounds given
        return self._bind(objective, self.table,
                          *(float(b) for pair in box for b in pair))


class CompiledProgram:
    """The representing function of `entry` (default: the last function)
    under mode configuration `cfg`, compiled.

    `objective(sat_state)` gives the fast flavour as a
    RepresentingFunction; `trace(inputs, sat_state)` runs the tracing
    flavour.  Each flavour is set up on first use, from the source the
    program keeps per mode and flavour (and entry, for the fast one).
    """

    def __init__(self, program, cfg, entry=None, step_budget=1_000_000):
        if entry is None:
            entry = program.functions[-1].name
        fn = program.function(entry)
        if fn is None:
            raise UnknownFunction(f"no function named {entry!r}")
        self.program = program
        self.cfg = cfg
        self.entry = entry
        self.arity = len(fn.params)
        self.step_budget = step_budget
        self._flavours = {}

    def _flavour(self, tracing):
        if tracing in self._flavours:
            return self._flavours[tracing]
        cfg = self.cfg
        ns = _namespace()
        ns.update(_B=self.step_budget, _eps=cfg.epsilon)
        if cfg.mode == PATH:
            target = cfg.target_path
            ns["_tl"] = tuple(label for label, _side in target) + (None,)
            ns["_tt"] = tuple(side == "T" for _label, side in target)
        exec(self._compiled(tracing)[1], ns)
        self._flavours[tracing] = ns
        return ns

    def guarded(self):
        """Whether the fast flavour keeps its step and depth guards:
        unless `run_bounds` shows that no run of the entry starts more
        statements than the step budget or nests user calls deeper than
        MAX_CALL_DEPTH, so that neither guard can fire."""
        bound = run_bounds(self.program)[self.entry]
        return (bound is None or bound[0] > self.step_budget
                or bound[1] > MAX_CALL_DEPTH)

    def source(self, tracing=False):
        """The Python text of a flavour, the text its runs execute: the
        fast flavour (the default) is the one a search minimizes."""
        return self._compiled(tracing)[0]

    def _compiled(self, tracing):
        """(source, code) of a flavour, made on first use and kept on the
        program."""
        # the tracing source holds the program's functions only, so the
        # entries of one program share it
        entry = None if tracing else self.entry
        guards = tracing or self.guarded()
        key = ("source", entry, self.cfg.mode, tracing, guards)
        return memoised(self.program, key,
                        lambda: self._generate(tracing, guards))

    def _generate(self, tracing, guards):
        mode = self.cfg.mode
        gen = _Source(mode, tracing, guards)
        for fn in self.program.functions:
            gen.function(fn)
        if tracing:
            return gen.compiled(f"{mode} tracing")
        params = [f"v{i}" for i in range(self.arity)]
        gen.runner(params, self._core(params, guards))
        return gen.compiled(f"{self.entry} {mode} fast")

    def _core(self, params, guards):
        """Lines running the entry on `params` from a fresh `_r`, step
        count (with `guards`), path cursor and saturation table."""
        fresh = {"_r": repr(_R0[self.cfg.mode])}
        if guards:
            fresh["_n"] = "0"
        if self.cfg.mode == PATH:
            fresh["_c"] = "0"
        if self.cfg.mode == COVERAGE:
            fresh["_sat"] = "_s"
        args = (["1"] if guards else []) + params
        return ([f"global {', '.join(fresh)}"]
                + [f"{name} = {value}" for name, value in fresh.items()]
                + ["try:",
                   f"    f_{self.entry}({', '.join(args)})",
                   "except _ABORTS:",
                   "    return _SENTINEL"])

    def _table(self, sat_state):
        """In coverage mode, what the penalty does at each label under
        `sat_state`, where None is nothing saturated, as at a search's
        first restart; None in the other modes."""
        if self.cfg.mode != COVERAGE:
            return None
        explored = () if sat_state is None else sat_state.explored
        table = []
        for label in range(self.program.num_conditionals):
            t_done = (label, "T") in explored
            f_done = (label, "F") in explored
            if t_done and f_done:
                table.append(_KEEP)
            elif t_done:
                table.append(_TOWARD_F)
            elif f_done:
                table.append(_TOWARD_T)
            else:
                table.append(_RESET)
        return tuple(table)

    def objective(self, sat_state=None):
        """The fast flavour: inputs -> final representing value, with
        the coverage penalty of `sat_state`."""
        return RepresentingFunction(self._flavour(False), self.arity,
                                    self._table(sat_state))

    def trace(self, inputs, sat_state=None):
        """Run the tracing flavour on `inputs`."""
        if len(inputs) != self.arity:
            raise ArityMismatch(f"{self.entry} expects {self.arity} inputs, "
                                f"got {len(inputs)}")
        ns = self._flavour(True)
        trace = ExecutionTrace()
        ns.update(_line=trace.covered_lines.add,
                  _cond=trace.covered_conditionals.add,
                  _path=trace.path.append, _call=trace.covered_calls.add,
                  _r=_R0[self.cfg.mode], _n=0, _c=0,
                  _sat=self._table(sat_state))
        try:
            trace.return_value = ns[f"f_{self.entry}"](
                1, None, *(float(v) for v in inputs))
            trace.final_r = ns["_r"]
            if not math.isfinite(trace.final_r):
                trace.aborted = "non-finite representing value"
            if not -sys.float_info.max <= trace.final_r <= SENTINEL:
                trace.final_r = SENTINEL        # as the runner maps it
        except tuple(_ABORTS) as exc:
            trace.final_r = SENTINEL
            trace.aborted = _ABORTS[type(exc)]
        trace.covered_branches = set(trace.path)
        trace.steps = ns["_n"]
        return trace


def execute(program, inputs, cfg=None, sat_state=None, entry=None,
            step_budget=1_000_000):
    """Run `entry` on `inputs` and return the execution trace.

    `program` is a parsed Program, set up for this one run under `cfg`
    (default: plain), or a CompiledProgram, which already fixes the
    mode, entry and step budget.  The trace's final_r is the
    representing value at termination; an aborted run reports a large
    sentinel so the optimizer steers away.
    """
    if isinstance(program, CompiledProgram):
        if cfg is not None or entry is not None:
            raise TypeError("a compiled program fixes its mode and entry")
        return program.trace(inputs, sat_state)
    return CompiledProgram(program, cfg or plain_config(), entry,
                           step_budget).trace(inputs, sat_state)


def compile_comparisons(constraint, epsilon=1e-6):
    """Compile the conjunction of comparisons `constraint.conjuncts` over
    the variables `constraint.variables` into a RepresentingFunction,
    the sum of the comparisons' branch distances or the sentinel if an
    operand is NaN, and a function of an input vector telling whether
    every comparison holds.  The code is generated and compiled once per
    constraint."""
    ns = _namespace()
    ns["_eps"] = epsilon
    exec(memoised(constraint, "source",
                  lambda: _generate_comparisons(constraint))[1], ns)
    return RepresentingFunction(ns, len(constraint.variables)), ns["_holds"]


def _generate_comparisons(constraint):
    comparisons, names = constraint.conjuncts, constraint.variables
    gen = _Source()
    core = ["_r = 0.0", "try:"]
    for cmp in comparisons:
        core += [f"    _a = {gen.expr(cmp.lhs)}",
                 f"    _b = {gen.expr(cmp.rhs)}"]
        core += ["    " + line
                 for line in _distance(cmp.op, "_r = _r + {}")]
    core += ["    pass", "except _ABORTS:", "    return _SENTINEL"]
    params = [f"v_{name}" for name in names]
    gen.runner(params, core)
    # unparenthesized, so that a comparison adds no nesting level beyond
    # its operands' (lang.MAX_EXPR_DEPTH)
    tests = [f"{gen.expr(c.lhs)} {c.op} {gen.expr(c.rhs)}"
             for c in comparisons]
    gen.define("_holds(x)",
               [f"{v} = _float(x[{i}])" for i, v in enumerate(params)]
               + [f"return {' and '.join(tests) or 'True'}"])
    return gen.compiled("constraint")


# ---------------------------------------------------------------------------
# Static queries

_OPEN = object()    # a function whose callees are still being walked


def run_bounds(program):
    """Per function name, (the most statements a run of it starts, the
    longest chain of user calls it makes, itself at depth 1), found once
    per program; None for a function that has a while loop, recurses, or
    calls one that does.  A call chain of any length is walked without
    recursion."""
    def make():
        functions = {fn.name: fn for fn in program.functions}
        callees = {name: [node.name for node in walk(fn.body)
                          if isinstance(node, Call) and node.name in functions]
                   for name, fn in functions.items()}
        bounds = {}
        for root in functions:
            stack = [root]
            while stack:
                name = stack[-1]
                if name not in bounds:
                    # an _OPEN callee is one this walk is inside of
                    bounds[name] = _OPEN
                    stack += [c for c in callees[name] if c not in bounds]
                    continue
                stack.pop()
                if bounds[name] is _OPEN:
                    inner = [bounds[c] for c in callees[name]]
                    steps = None
                    if all(b is not None and b is not _OPEN for b in inner):
                        steps = _steps(functions[name].body, bounds)
                    bounds[name] = None if steps is None else (steps, 1 + max(
                        (depth for _, depth in inner), default=0))
        return bounds
    return memoised(program, "bounds", make)


def _steps(stmt, bounds):
    """The most statements a run of `stmt` starts: one per statement,
    the callee's bound per user call in its expressions, and the larger
    side of each if; None on a while."""
    total = 0
    for s in _flatten(stmt):
        if isinstance(s, While):
            return None
        total += 1 + sum(bounds[node.name][0]
                         for node in walk(s.cond if isinstance(s, If) else s)
                         if isinstance(node, Call) and node.name in bounds)
        if isinstance(s, If):
            sides = [_steps(side, bounds) for side in (s.then, s.els)
                     if side is not None]
            if None in sides:
                return None
            total += max(sides, default=0)
    return total


def conditional_counts(program):
    """(instrumentable, uninstrumentable) conditional counts: labeled
    conditionals and those that compare a bare pointer."""
    return program.num_conditionals, program.uninstrumentable
