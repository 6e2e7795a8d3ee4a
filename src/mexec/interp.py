"""Representing functions compiled to Python.

The parsed program is translated to Python source, one Python function
per .mx function, once per program, mode and flavour, and for the fast
flavour once per entry: the source and its compiled code are kept on
the Program, the one cache of both.  Each mode call execs that code
into a namespace of its own.  A function body and each arm of an if
or while is a plain statement list, emitted in order; a function that
runs off its end returns 0.0, as `return;` does.
One generator emits two flavours of the same program:

* the fast flavour computes only the final representing value r.  Its
  one evaluation is the line runner that `_bind` gives an
  optimize.Objective: it builds the point x + t*d (a point request is
  t = -0.0 along zeros), counts one evaluation, clamps the point into
  the objective's box, runs the entry and maps a non-finite or
  above-sentinel r to the sentinel; at the last clamped point it ran it
  returns the value kept.  Beside it `_bind` emits the objective's line
  search, the bracketing and Brent of optimize with that evaluation
  inlined at their two sites, so a line search runs in generated code
  too;
* the tracing flavour also records coverage facts (lines, conditionals,
  call sites, the branch path, steps) in an ExecutionTrace, whose
  covered branches are the set of its path; `execute`, admission
  replays and reports use it.

A `sat` constraint compiles to the same runner, its r the sum of its
comparisons' branch distances; its source and code are kept on the
Constraint.

The Python text is the specification.  A fast source or constraint that
runs hot in a process is also built in C (native.Hot): the same walk of
`_Source`, spelled in C by native.CSource, whose runner, line search
and Powell give the same values and counts, and each restart after the
build binds those.  Without a C compiler, or when its build fails, the
source stays on Python.

At each labeled conditional the mode's hook decides how r changes, by
the same lines in both flavours: coverage takes the penalty
(saturation.pen) from the saturation table, path adds the distance
toward the target branch, boundary-value analysis multiplies by the
equality distance, and plain leaves r alone.  Where a hook takes a
distance, one NaN check comes first and one update of r picks the side.
The tracing flavour records the branch taken once, before the test's
`if`, and a loop exits by `if not test: break`.  An evaluation aborts,
and reports the sentinel, on a NaN operand of a comparison whose
distance is computed, on more statements than the step budget, or on
user calls nested deeper than MAX_CALL_DEPTH.  The fast flavour leaves
out the step count and the call depth where `run_bound` shows that
neither abort can happen.
"""

import math
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .distance import negate_op
from .errors import (
    ArityMismatch, CallDepthExceeded, MexecError, NaNOperand,
    StepBudgetExceeded, UnknownFunction,
)
from .lang import (
    Assign, Binary, Call, Deref, ExprStmt, If, Num, Return, Unary, Var,
    While, memoised, walk,
)
from .optimize import _CGOLD, _TINY, SENTINEL, Objective
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


# ---------------------------------------------------------------------------
# Code generation

# branch_distance(op, a, b) on NaN-free operands, as (test, value): 0.0
# where the test holds, else the value, and the value alone without a
# test; > and >= swap theirs
_DISTANCE = {
    "==": (None, "({a} - {b}) * ({a} - {b})"),
    "!=": ("{a} != {b}", "_eps"),
    "<": ("{a} < {b}", "({a} - {b}) * ({a} - {b}) + _eps"),
    "<=": ("{a} <= {b}", "({a} - {b}) * ({a} - {b})"),
}
_SWAPPED = {">": "<", ">=": "<="}


# the abort on a NaN operand, once before each distance is taken
_NAN_CHECK = "if _a != _a or _b != _b: raise _NaNOperand"


# what the coverage penalty does at a label, by the saturation of its
# two sides: keep r (both), reset it to 0 (neither), or take the
# distance toward the unsaturated side
_KEEP, _RESET, _TOWARD_T, _TOWARD_F = range(4)


# The body of the generated `_search(x, d, f0, xtol, growth)`, after x
# and d are read into `_x0, _d0, ...`: optimize's line search from f0,
# the value at x, as `Objective._python_search` runs it, in the names
# of `_bracket` and `brent_line_min`, with the evaluation at c and at u
# inlined at {at_c} and {at_u}.  First the bracketing `_bracket(g, 0.0,
# f0, 1.0, growth, 80)`, its first step and its expansions in one loop;
# then `brent_line_min(g, bracket, xtol, 100, values)` on the values
# held, where an InvalidBracket, that of a runaway bracketing, gives
# (0.0, f0) and no iteration.  It returns (t, value at t, whether the
# bracket's mid is above its lo).  native._SEARCH is its C text.
_SEARCH = """\
ne = nr = 0
a, fa, c, k = 0.0, f0, 1.0, -1
while True:
{at_c}
    if k < 0:
        if fc > fa:
            a, fa, b, fb = c, fc, a, fa
        else:
            b, fb = c, fc
    elif fc < fb and k < 80:
        a, fa, b, fb = b, fb, c, fc
    else:
        break
    k += 1
    c = b + growth * (b - a)
if a < c:
    lo, flo, hi, fhi = a, fa, c, fc
else:
    lo, flo, hi, fhi = c, fc, a, fa
above = fb > flo
x = w = v = b
fx = fw = fv = fb
rounds = 100
if not (lo <= b <= hi) or not (lo < hi) or above or fb > fhi:
    x, fx, rounds = 0.0, f0, 0
a, b = lo, hi
d = e = 0.0
for _ in range(rounds):
    xm = 0.5 * (a + b)
    tol1 = xtol * abs(x) + {tiny!r}
    tol2 = 2.0 * tol1
    if abs(x - xm) <= tol2 - 0.5 * (b - a):
        break
    golden = True
    if abs(e) > tol1:
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        e_prev = e
        e = d
        if (abs(p) < abs(0.5 * q * e_prev) and p > q * (a - x)
                and p < q * (b - x)):
            d = p / q
            u = x + d
            if u - a < tol2 or b - u < tol2:
                d = _cs(tol1, xm - x)
            golden = False
    if golden:
        e = (b - x) if x < xm else (a - x)
        d = {cgold!r} * e
    u = x + d if abs(d) >= tol1 else x + _cs(tol1, d)
{at_u}
    if fu <= fx:
        if u >= x:
            a = x
        else:
            b = x
        v, w, x = w, x, u
        fv, fw, fx = fw, fx, fu
    else:
        if u < x:
            a = u
        else:
            b = u
        if fu <= fw or w == x:
            v, w = w, u
            fv, fw = fw, fu
        elif fu <= fv or v == x or v == w:
            v, fv = u, fu
_obj.eval_count += ne
_obj.reuse_count += nr
return x, fx, above"""


def _returns(stmt):
    """True if the statement contains a return."""
    return any(isinstance(node, Return) for node in walk(stmt))


class _Source:
    """Python source for one program under one mode, in one flavour.

    A .mx function `f` becomes `f_f(_dp, [_site,] v_<param>...)`, where
    `_dp` is the call depth and the tracing flavour's `_site` is the
    call site to record.  Variables become locals `v_<name>`; the
    representing value `_r`, the step count `_n` and the path cursor
    `_c` are globals of the namespace the source runs in.  Without
    `guards`, a fast source counts no steps and passes no `_dp`.

    The walk (`function`, `body`, `stmt`, `test`, `hook`, `tick`) is
    the one translation of a program; the class attributes and the
    methods under "spelling" are how it is written down, and
    native.CSource writes the same walk in C.
    """

    # -- spelling
    HEADS = {"def": "def {}:", "if": "if {}:", "elif": "elif {}:",
             "else": "else:", "loop": "while True:"}
    END = None
    EMPTY = "pass"
    STATEMENT = "{}"
    CHOOSE = "({yes} if {test} else {no})"
    RAISE = "if {test}: raise {error}"
    # `not` binds looser than a comparison, so the test needs no
    # parentheses, which lang.MAX_EXPR_DEPTH has no level left for
    EXIT_UNLESS = "if not {test}: break"
    TICK = ("_n += {count}", "if _n > _B: raise _StepBudgetExceeded")
    NAN_CHECK = _NAN_CHECK

    def __init__(self, mode=PLAIN, tracing=False, guards=True):
        self.mode = mode
        self.tracing = tracing
        self.guards = guards
        self.lines = []
        self.indent = 0

    def emit(self, line):
        self.lines.append("    " * self.indent + line)

    def put(self, statement):
        self.emit(self.STATEMENT.format(statement))

    @contextmanager
    def block(self, kind, head=None):
        """Emit a block headed `kind` (see HEADS) around what the body of
        the `with` emits."""
        self.emit(self.HEADS[kind].format(head))
        self.indent += 1
        start = len(self.lines)
        yield
        if len(self.lines) == start and self.EMPTY:
            self.emit(self.EMPTY)
        self.indent -= 1
        if self.END:
            self.emit(self.END)

    def capture(self, emit):
        """The lines `emit()` emits, unindented, kept out of the source."""
        lines, indent = self.lines, self.indent
        self.lines, self.indent = [], 0
        try:
            emit()
            return self.lines
        finally:
            self.lines, self.indent = lines, indent

    def compiled(self, name):
        """The source emitted and its code."""
        source = "\n".join(self.lines) + "\n"
        return source, _compile(source, name)

    def literal(self, value):
        return (repr(value) if math.isfinite(value)
                else f"_float({str(value)!r})")

    def choose(self, test, yes, no):
        return self.CHOOSE.format(test=test, yes=yes, no=no)

    def signature(self, fn):
        params = (["_dp"] if self.guards else []) + (
            ["_site"] if self.tracing else [])
        params += [f"v_{name}" for name, _kind in fn.params]
        return f"f_{fn.name}({', '.join(params)})"

    def declare(self, fn):
        """What opens the body of a function."""
        self.emit("global _r, _n, _c")

    # -- expressions

    def expr(self, e):
        if isinstance(e, Num):
            return self.literal(e.value)
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

    def distance(self, op):
        """branch_distance(op, _a, _b) as an expression, for operands
        that passed the NaN check."""
        a, b = "_a", "_b"
        if op in _SWAPPED:
            op, a, b = _SWAPPED[op], b, a
        test, value = _DISTANCE[op]
        value = value.format(a=a, b=b)
        if test is None:
            return f"({value})"
        return self.choose(test.format(a=a, b=b), "0.0", value)

    # -- conditionals

    def hook(self, cond):
        """Emit the update of `_r` from operands `_a`, `_b` at a labeled
        conditional, per mode: where a distance is taken, the NaN check
        and then one update that picks the side."""
        label = cond.label
        toward_t = self.distance(cond.op)
        toward_f = self.distance(negate_op(cond.op))
        if self.mode == COVERAGE:
            # _KEEP is the one falsy code
            self.put(f"_k = _sat[{label}]")
            with self.block("if", f"_k == {_RESET}"):
                self.put("_r = 0.0")
            with self.block("elif", "_k"):
                self.emit(self.NAN_CHECK)
                self.put("_r = " + self.choose(f"_k == {_TOWARD_T}",
                                               toward_t, toward_f))
        elif self.mode == PATH:
            with self.block("if", f"_tl[_c] == {label}"):
                self.emit(self.NAN_CHECK)
                self.put("_r = _r + " + self.choose("_tt[_c]", toward_t,
                                                    toward_f))
                self.put("_c = _c + 1")
        elif self.mode == BVA:
            self.emit(self.NAN_CHECK)
            self.put(f"_r = _r * {self.distance('==')}")

    def test(self, cond):
        """Emit what precedes the test of a conditional: at a labeled
        one its operands, its hook and, tracing, its record of the branch
        taken; return the test."""
        a, b = self.expr(cond.lhs), self.expr(cond.rhs)
        label = cond.label
        if label is None:
            return f"{a} {cond.op} {b}"
        test = f"_a {cond.op} _b"
        self.put(f"_a = {a}")
        self.put(f"_b = {b}")
        if self.tracing:
            self.emit(f"_cond({label})")
        self.hook(cond)
        if self.tracing:
            self.emit(f"_path(({label}, 'T') if {test} else ({label}, 'F'))")
        return test

    # -- statements

    def tick(self, count, line):
        if self.guards:
            for template in self.TICK:
                self.emit(template.format(count=count))
        if self.tracing and line:
            self.emit(f"_line({line})")

    def body(self, stmts):
        """Emit a statement list with its step counting.

        The tracing flavour counts each statement as it starts.  The
        fast flavour counts a run of statements at once, up to the
        first one that may return: every count it adds is one the
        statement-by-statement count reaches too unless the evaluation
        aborts first, so it exceeds the budget on the same evaluations,
        and those report the sentinel whichever abort comes first.
        """
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
        """Emit one statement without its count."""
        if isinstance(s, While):
            with self.block("loop"):
                self.tick(1, s.line)
                self.emit(self.EXIT_UNLESS.format(test=self.test(s.cond)))
                self.body(s.body)
        elif isinstance(s, Assign):
            self.put(f"v_{s.target.name} = {self.expr(s.expr)}")
        elif isinstance(s, ExprStmt):
            self.put(self.expr(s.expr))
        elif isinstance(s, Return):
            self.put(f"return {self.expr(s.expr)}")
        elif isinstance(s, If):
            with self.block("if", self.test(s.cond)):
                self.body(s.then)
            if s.els:
                with self.block("else"):
                    self.body(s.els)
        else:
            raise TypeError(f"unhandled statement {s!r}")

    def function(self, fn):
        with self.block("def", self.signature(fn)):
            self.declare(fn)
            if self.tracing:
                self.emit("if _site is not None: _call(_site)")
            if self.guards:
                self.emit(self.RAISE.format(test=f"_dp > {MAX_CALL_DEPTH}",
                                            error="_CallDepthExceeded"))
            self.body(fn.body)
            if not fn.body or not isinstance(fn.body[-1], Return):
                self.put("return 0.0")

    def program(self, program, entry, arity):
        """Emit the functions of `program` and, for the fast flavour, the
        runner of `entry` on its `arity` inputs."""
        for fn in program.functions:
            self.function(fn)
        if self.tracing:
            return
        params = [f"v{i}" for i in range(arity)]
        fresh = {"_r": repr(_R0[self.mode])}
        if self.guards:
            fresh["_n"] = "0"
        if self.mode == PATH:
            fresh["_c"] = "0"
        if self.mode == COVERAGE:
            fresh["_sat"] = "_s"
        # the entry on `params` from a fresh `_r`, step count (with
        # guards), path cursor and saturation table, all globals
        args = (["1"] if self.guards else []) + params

        def core():
            for name, value in fresh.items():
                self.put(f"{name} = {value}")
            self.put(f"f_{entry}({', '.join(args)})")
        self.runner(params, self.capture(core), fresh)

    def comparisons(self, constraint):
        """Emit the runner of a constraint: `_r` the sum of its
        comparisons' branch distances."""
        def core():
            self.put("_r = 0.0")
            for cmp in constraint.conjuncts:
                self.put(f"_a = {self.expr(cmp.lhs)}")
                self.put(f"_b = {self.expr(cmp.rhs)}")
                self.emit(self.NAN_CHECK)
                self.put(f"_r = _r + {self.distance(cmp.op)}")
        self.runner([f"v_{name}" for name in constraint.variables],
                    self.capture(core))

    def define(self, signature, lines):
        self.emit(f"def {signature}:")
        self.lines += ["    " * (self.indent + 1) + line for line in lines]

    def runner(self, params, core, shared=()):
        """Emit `_bind(_obj, _s, _lo0, _hi0, _lo1, ...)`, which returns
        the line runner `_line(x, d, t)` of the objective `_obj` for a
        representing function of the inputs `params`, local names, its
        line search `_search(x, d, f0, xtol, growth)`, None when there
        are no inputs, and None for Powell, which runs in optimize.
        `core` computes `_r` from the inputs, assigning the module
        globals `shared`, and raises one of `_ABORTS` on an abort.

        One evaluation builds the point x[i] + t * d[i], counts one
        evaluation on `_obj`, clamps each input into its (lo, hi) as
        min(max(v, lo), hi) does, NaN and signed zeros included, runs
        `core`, and maps an abort, or a non-finite or above-sentinel
        `_r`, to the sentinel.  The saturation table `_s` and the bounds
        are the runner's own.  It keeps the last clamped point `_m0,
        _m1, ...` it ran to a normal return, and its value `_mr`.  A
        request at exactly that point, each input equal and of the same
        sign if zero, gets `_mr` and counts a reuse on `_obj` instead of
        running the entry again; a NaN input never matches.

        `_line` runs one evaluation.  `_search` runs optimize's line
        search from f0, the value at x (see `_SEARCH`), with one
        evaluation inlined in the bracketing and one in Brent; it reads
        x and d once, shares the runner's last point and adds its counts
        to `_obj` as it returns.
        """
        n = len(params)
        last = [f"_m{i}" for i in range(n)]
        clamp = [line for i, v in enumerate(params)
                 for line in (f"if {v} < _lo{i}: {v} = _lo{i}",
                              f"if {v} > _hi{i}: {v} = _hi{i}")]
        same = ([f"{v} == {m}" for v, m in zip(params, last)]
                + [f"({v} or _cs(1.0, {v}) == _cs(1.0, {m}))"
                   for v, m in zip(params, last)])
        kept = [f"{', '.join(last)} = {', '.join(params)}"] if n else []

        def evaluation(x, d, t, evals, reuses, done):
            """Lines of one evaluation at x + t*d, the coordinates of x
            and d read as `x.format(i)` and `d.format(i)`, counted on
            `evals` and `reuses`; they end in `done` formatted with the
            value."""
            ran = (["try:"] + ["    " + s for s in core]
                   + ["except _ABORTS:",
                      "    " + done.format("_SENTINEL"),
                      "else:"]
                   + ["    " + s for s in kept + [
                       f"if {-sys.float_info.max!r} <= _r <= {SENTINEL!r}:",
                       "    _mr = _r",
                       "else:",
                       "    _mr = _SENTINEL",
                       done.format("_mr")]])
            point = ([f"{v} = {x.format(i)} + {t} * {d.format(i)}"
                      for i, v in enumerate(params)]
                     + [f"{evals} += 1"] + clamp)
            if not n:
                return point + ran
            reuse = [f"if {' and '.join(same)}:",
                     f"    {reuses} += 1",
                     "    " + done.format("_mr"),
                     "else:"]
            return point + reuse + ["    " + s for s in ran]

        head = [f"global {', '.join(shared)}"] if shared else []
        bounds = "".join(f", _lo{i}, _hi{i}" for i in range(n))
        self.emit(f"def _bind(_obj, _s{bounds}):")
        self.indent += 1
        if n:
            self.emit(f"_mr = {' = '.join(last)} = _float('nan')")
            head.insert(0, f"nonlocal {', '.join(last)}, _mr")
        self.define("_line(x, d, t)",
                    head + evaluation("x[{}]", "d[{}]", "t",
                                      "_obj.eval_count", "_obj.reuse_count",
                                      "return {}"))
        if n:
            at_c, at_u = ("\n".join("    " + s for s in evaluation(
                "_x{}", "_d{}", t, "ne", "nr", f"f{t} = {{}}"))
                for t in "cu")
            self.define("_search(x, d, f0, xtol, growth)", head + [
                f"_x{i}, _d{i} = x[{i}], d[{i}]" for i in range(n)]
                + _SEARCH.format(at_c=at_c, at_u=at_u, cgold=_CGOLD,
                                 tiny=_TINY).splitlines())
        self.emit(f"return _line, {'_search' if n else 'None'}, None")
        self.indent -= 1


def _namespace():
    ns = {f"_b_{name}": fn for name, fn in BUILTIN_FUNCTIONS.items()}
    ns.update(_pow=_pow, _div=_div, _float=float, _cs=math.copysign,
              _NaNOperand=NaNOperand, _StepBudgetExceeded=StepBudgetExceeded,
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
    optimize.Objective, which clamps into `objective.box`, counts on
    `objective` and sanitises, its generated line search (None without
    inputs) and its Powell: those of the source's C build once `hot`,
    its native.Hot, has one, else the Python ones and None.  `settings`
    are the epsilon, step budget and path target the C runner takes,
    which the Python one has in its namespace.  Called on a point, it
    gives the value of one Objective without a box, bound on the first
    call.
    """

    def __init__(self, ns, arity, table, hot, settings):
        self._bind = ns["_bind"]
        self.arity = arity
        self.table = table
        self.hot = hot
        self.settings = settings

    def __call__(self, x):
        return self._plain(x)

    @cached_property
    def _plain(self):
        return Objective(self, self.arity)

    def runner(self, objective):
        box = objective.box or [(-math.inf, math.inf)] * self.arity
        return (self.hot.bind(objective, box, self.table, *self.settings)
                or self._bind(objective, self.table,
                              *(b for pair in box for b in pair)))


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
        unless `run_bound` shows that no run of the entry starts more
        statements than the step budget or nests user calls deeper than
        MAX_CALL_DEPTH, so that neither guard can fire."""
        bound = run_bound(self.program, self.entry)
        return bound is None or bound[0] > self.step_budget

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
        gen.program(self.program, self.entry, self.arity)
        if tracing:
            return gen.compiled(f"{mode} tracing")
        return gen.compiled(f"{self.entry} {mode} fast")

    @cached_property
    def _hot(self):
        """The native.Hot of the fast source, kept on the program next to
        it."""
        from . import native
        guards = self.guarded()
        mode, entry, program = self.cfg.mode, self.entry, self.program

        def text():
            gen = native.CSource(mode, guards)
            gen.program(program, entry, self.arity)
            return gen.text()
        return memoised(program, ("native", entry, mode, guards),
                        lambda: native.Hot(self.arity, text))

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
        return RepresentingFunction(
            self._flavour(False), self.arity, self._table(sat_state),
            self._hot, (self.cfg.epsilon, self.step_budget,
                        self.cfg.target_path))

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
    constraint, and so is its C build once hot (see native.Hot)."""
    from . import native
    ns = _namespace()
    ns["_eps"] = epsilon
    exec(memoised(constraint, "source",
                  lambda: _generate_comparisons(constraint))[1], ns)
    arity = len(constraint.variables)

    def text():
        gen = native.CSource(PLAIN, False)
        gen.comparisons(constraint)
        return gen.text()
    hot = memoised(constraint, "native", lambda: native.Hot(arity, text))
    return (RepresentingFunction(ns, arity, None, hot, (epsilon, 1, None)),
            ns["_holds"])


def _generate_comparisons(constraint):
    gen = _Source()
    gen.comparisons(constraint)
    # unparenthesized, so that a comparison adds no nesting level beyond
    # its operands' (lang.MAX_EXPR_DEPTH)
    tests = [f"{gen.expr(c.lhs)} {c.op} {gen.expr(c.rhs)}"
             for c in constraint.conjuncts]
    gen.define("_holds(x)",
               [f"v_{name} = _float(x[{i}])"
                for i, name in enumerate(constraint.variables)]
               + [f"return {' and '.join(tests) or 'True'}"])
    return gen.compiled("constraint")


# ---------------------------------------------------------------------------
# Static queries

def run_bound(program, entry):
    """(statements, call depth) that no run of `entry` exceeds, itself
    at depth 1; None when its call tree has a while loop or nests user
    calls deeper than MAX_CALL_DEPTH, as any recursion does.  Each
    statement the fast flavour counts adds one, both sides of an if
    included, and each user call its callee's count.  Found once per
    program and entry."""
    functions = {fn.name: fn for fn in program.functions}
    bounds = {}     # function -> (steps, depth), reused at any depth

    def bound(name, above):
        # `above`: the calls nested above this one; the walk stops at
        # the limit, so a recursion ends there
        if above >= MAX_CALL_DEPTH:
            return None
        if name not in bounds:
            steps, depth = 0, 1
            for node in walk(functions[name]):
                if isinstance(node, While):
                    return None
                if isinstance(node, (Assign, ExprStmt, Return, If)):
                    steps += 1
                elif isinstance(node, Call) and node.name in functions:
                    inner = bound(node.name, above + 1)
                    if inner is None:
                        return None
                    steps += inner[0]
                    depth = max(depth, 1 + inner[1])
            bounds[name] = steps, depth
        if above + bounds[name][1] > MAX_CALL_DEPTH:
            return None
        return bounds[name]

    return memoised(program, ("bound", entry), lambda: bound(entry, 0))


def conditional_counts(program):
    """(instrumentable, uninstrumentable) conditional counts: labeled
    conditionals and those that compare a bare pointer."""
    return program.num_conditionals, program.uninstrumentable
