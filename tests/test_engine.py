"""The compiled engine against the reference interpreter.

Random grammar-valid programs (loops, nested and recursive calls,
pointer parameters), edge-case inputs, tiny step budgets and random
saturation states run through both the compiled representing function,
in its fast and its tracing flavour, and `interp_oracle`; every trace
field and the final value must agree exactly.  Code compiled once and
kept on its program must give what a fresh compile gives.
"""

import math
import random
import struct
import sys
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import interp_oracle
from conftest import BENCH, counting_compiles, load
from mexec import optimize
from mexec.cfg import build_cfg
from mexec.distance import branch_distance, compare
from mexec.driver import SearchConfig, run_coverage, run_path
from mexec.errors import InvalidBox, MexecError, NaNOperand
from mexec.interp import (
    MAX_CALL_DEPTH, CompiledProgram, bva_config, coverage_config, execute,
    path_config, plain_config, run_bound,
)
from mexec.lang import BUILTIN_ARITY, Program, parse
from mexec.optimize import (
    SENTINEL, LocalMinConfig, Objective, _line_minimize, clamp,
    powell_minimize,
)
from mexec.satcheck import (
    _holds, check_sat, compile_constraint, parse_constraint,
)
from mexec.saturation import SaturationState, new_state
from mexec.transforms import prepare

SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308,
           5e-324, 1.0, -1.0, 2.0, 0.5, 1e-300)
inputs = st.one_of(st.just(math.nan), st.sampled_from(SPECIAL), st.floats(),
                   st.integers(-6, 6).map(float))
BUDGETS = (1, 2, 5, 20, 200, 2_000)
OPS = ("==", "!=", "<", "<=", ">", ">=")


# -- random programs

class _ProgramGen:
    """Draws the source of a random program; every function may call
    itself and the functions defined before it.  Without `loops`, no
    function has a while loop or calls itself."""

    def __init__(self, draw, loops=True):
        self.draw = draw
        self.loops = loops
        self.fresh = 0

    def pick(self, seq):
        return self.draw(st.sampled_from(seq))

    def name(self, prefix):
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def number(self):
        return self.pick(("0", "1", "2", "3", "0.5", "1e-3", "10", "0x10",
                          "2.5e2", "4", "1e300", "1e400"))

    def expr(self, scope, callees, depth=0):
        kinds = ["num", "var", "var"]
        if depth < 3:
            kinds += ["neg", "bin", "bin", "bin", "builtin", "cast"]
            if callees:
                kinds.append("call")
        kind = self.pick(kinds)
        if kind == "num" or (kind == "var" and not scope):
            return self.number()
        if kind == "var":
            return self.pick(scope)
        if kind == "neg":
            return f"-({self.expr(scope, callees, depth + 1)})"
        if kind == "cast":
            return f"(real) {self.expr(scope, callees, depth + 1)}"
        if kind == "bin":
            op = self.pick(("+", "-", "*", "/", "^"))
            return (f"({self.expr(scope, callees, depth + 1)} {op} "
                    f"{self.expr(scope, callees, depth + 1)})")
        if kind == "builtin":
            name = self.pick(sorted(BUILTIN_ARITY))
            args = [self.expr(scope, callees, depth + 1)
                    for _ in range(BUILTIN_ARITY[name])]
            return f"{name}({', '.join(args)})"
        name, arity = self.pick(callees)
        args = [self.expr(scope, callees, depth + 1) for _ in range(arity)]
        return f"{name}({', '.join(args)})"

    def cond(self, scope, callees, pointers):
        if pointers and self.draw(st.integers(0, 5)) == 0:
            return f"{self.pick(pointers)} != 0"
        return (f"{self.expr(scope, callees)} {self.pick(OPS)} "
                f"{self.expr(scope, callees)}")

    def block(self, scope, callees, pointers, depth, arm=False):
        """A `{...}` block; as the `arm` of an if, a block of one
        statement may come without its braces."""
        scope = list(scope)
        out = []
        for _ in range(self.draw(st.integers(0, 4 if depth else 5))):
            kinds = ["decl", "assign", "incr", "call", "return"]
            if depth < 2:
                kinds += ["if", "if", "block"] + (
                    ["loop", "while"] if self.loops else [])
            kind = self.pick(kinds)
            if kind == "decl":
                name = self.name("v")
                out.append(f"real {name} = "
                           f"{self.expr(scope, callees)};")
                scope.append(name)
            elif kind == "assign" and scope:
                out.append(f"{self.pick(scope)} = "
                           f"{self.expr(scope, callees)};")
            elif kind == "incr" and scope:
                out.append(f"{self.pick(scope)}{self.pick(('++', '--'))};")
            elif kind == "call" and callees:
                name, arity = self.pick(callees)
                args = [self.expr(scope, callees) for _ in range(arity)]
                out.append(f"{name}({', '.join(args)});")
            elif kind == "return":
                out.append("return;" if self.draw(st.booleans())
                           else f"return {self.expr(scope, callees)};")
            elif kind == "block":
                # a bare nested block; the draws after it leave the names
                # it declares unused, though they stay in scope
                out.append(self.block(scope, callees, pointers, depth + 1))
            elif kind == "if":
                then = self.block(scope, callees, pointers, depth + 1, True)
                line = f"if ({self.cond(scope, callees, pointers)}) {then}"
                if self.draw(st.booleans()):
                    line += (" else "
                             + self.block(scope, callees, pointers,
                                          depth + 1, True))
                out.append(line)
            elif kind == "loop":
                # a counted loop, which mostly terminates
                counter = self.name("i")
                out.append(f"real {counter} = 0;")
                body = self.block(scope + [counter], callees, pointers,
                                  depth + 1)
                bound = self.draw(st.integers(0, 4))
                out.append(f"while ({counter} < {bound}) "
                           f"{{ {body} {counter}++; }}")
                scope.append(counter)
            elif kind == "while":
                out.append(f"while ({self.cond(scope, callees, pointers)}) "
                           + self.block(scope, callees, pointers, depth + 1))
        if arm and len(out) == 1 and self.draw(st.booleans()):
            return out[0]
        return "{ " + " ".join(out) + " }"

    def program(self):
        functions, callees = [], []
        count = self.draw(st.integers(1, 3))
        for index in range(count):
            name = f"g{index}"
            arity = self.draw(st.integers(1, 3 if index == count - 1 else 2))
            params, scope, pointers = [], [], []
            for j in range(arity):
                if self.draw(st.integers(0, 4)) == 0:
                    params.append(f"real *p{j}")
                    scope.append(f"*p{j}")
                    pointers.append(f"p{j}")
                else:
                    params.append(f"real p{j}")
                    scope.append(f"p{j}")
            itself = [(name, arity)] if self.loops else []
            body = self.block(scope, callees + itself, pointers, 0)
            callees.append((name, arity))
            functions.append(f"real {name}({', '.join(params)}) {body}")
        return "\n".join(functions)


@st.composite
def cases(draw, loops=True):
    """A prepared program, with while loops and recursion unless not
    `loops`, an input vector, a step budget, a mode configuration and a
    saturation state."""
    program = prepare(parse(_ProgramGen(draw, loops).program()))
    arity = len(program.functions[-1].params)
    x = draw(st.lists(inputs, min_size=arity, max_size=arity))
    budget = draw(st.sampled_from(BUDGETS))
    labels = list(range(program.num_conditionals))
    branches = [(label, side) for label in labels for side in "TF"]
    mode = draw(st.sampled_from(("coverage", "path", "bva", "plain")))
    state = None
    if mode == "coverage":
        explored = draw(st.sets(st.sampled_from(branches))) if branches \
            else set()
        state = SaturationState(cfg=None, explored=frozenset(explored))
        cfg = coverage_config(draw(st.sampled_from((1e-6, 0.25))))
    elif mode == "path":
        target = (draw(st.lists(st.sampled_from(branches), max_size=3))
                  if branches else [])
        cfg = path_config(target)
    elif mode == "bva":
        cfg = bva_config()
    else:
        cfg = plain_config()
    return program, x, budget, cfg, state


def _run(run):
    """The trace's fields, floats by repr so that NaN equals NaN, or the
    type of the exception raised."""
    try:
        trace = run()
    except Exception as exc:  # both sides must raise alike
        return type(exc).__name__
    return (trace.path, trace.covered_lines, trace.covered_conditionals,
            trace.covered_branches, trace.covered_calls,
            repr(trace.final_r), trace.steps, repr(trace.return_value),
            trace.aborted)


def _run_value(run):
    try:
        return repr(run())
    except Exception as exc:  # both sides must raise alike
        return type(exc).__name__


def _objective_rule(value):
    """`value` as an Objective gives it: a NaN or infinite value, or one
    above the sentinel, is the sentinel."""
    if math.isnan(value) or math.isinf(value) or value > SENTINEL:
        return SENTINEL
    return value


def assert_engines_agree(compiled, x, state):
    """Both flavours of `compiled` against the oracle at `x`, the fast
    one under the Objective rule; returns the abort reason."""
    expected = _run(lambda: interp_oracle.execute(
        compiled.program, x, compiled.cfg, state, entry=compiled.entry,
        step_budget=compiled.step_budget))
    assert _run(lambda: execute(compiled, x, sat_state=state)) == expected
    if isinstance(expected, str):
        return expected
    assert (repr(compiled.objective(state)(x))
            == repr(_objective_rule(float(expected[5]))))
    return expected[-1]


# -- the static bounds that let the fast flavour drop its guards

@settings(max_examples=200)
@given(cases(loops=False))
def test_the_step_bound_holds_and_the_guards_it_drops_are_dead(case):
    """Without while loops or recursion, no run of the entry takes more
    steps than its step bound.  At a budget of the bound the fast
    flavour leaves out its guards, one below it keeps them, and at both
    the flavours agree with the oracle."""
    program, x, _budget, cfg, state = case
    steps, depth = run_bound(program, program.functions[-1].name)
    assert depth <= len(program.functions)
    trace = CompiledProgram(program, cfg, None, steps + 1).trace(x, state)
    assert trace.steps <= steps
    assert trace.aborted != "step budget exceeded"
    for budget, guarded in ((steps, False), (steps - 1, True)):
        compiled = CompiledProgram(program, cfg, None, budget)
        assert compiled.guarded() is guarded
        assert ("_CallDepthExceeded" in compiled.source()) is guarded
        assert_engines_agree(compiled, x, state)


def _chain(length):
    """A program whose function c<length> nests `length` user calls."""
    return parse("\n".join(
        [f"real c{i}(real x) {{ return c{i - 1}(x) + 1; }}"
         for i in range(length, 1, -1)]
        + ["real c1(real x) { return x; }"]))


def test_the_bounds_keep_the_guards_past_the_depth_or_on_a_loop():
    for length in (MAX_CALL_DEPTH, MAX_CALL_DEPTH + 1):
        program = _chain(length)
        entry = f"c{length}"
        assert run_bound(program, entry) == (
            (length, length) if length == MAX_CALL_DEPTH else None)
        compiled = CompiledProgram(program, plain_config(), entry)
        assert compiled.guarded() is (length > MAX_CALL_DEPTH)
        aborted = assert_engines_agree(compiled, [1.0], None)
        assert aborted == (None if length == MAX_CALL_DEPTH
                           else "recursion depth")
    # the walk stops at the depth limit, far short of Python's own
    assert run_bound(_chain(5_000), "c5000") is None
    program = parse("""
        real down(real x) { return up(x - 1); }
        real up(real x) { if (x > 0) { return down(x); } return x; }
        real spin(real x) { while (x > 0) { x = x - 1; } return x; }
        real calls_spin(real x) { return spin(x) + 1; }
        real lone(real x) { real y = x; if (x > 1) { y = y * 2; y++; }
                            else { y = 0; } return y; }
    """)
    assert {fn.name: run_bound(program, fn.name)
            for fn in program.functions} == {
        "down": None, "up": None, "spin": None, "calls_spin": None,
        "lone": (6, 1)}


def test_the_bound_checks_a_callee_again_at_each_depth():
    """A callee first reached near the entry and again at the end of a
    long chain counts against the depth limit where it is deepest."""
    chain = "\n".join(
        f"real c{i}(real x) {{ return c{i - 1}(x) + 1; }}"
        for i in range(2, MAX_CALL_DEPTH - 1))
    program = parse(f"""
        real leaf(real x) {{ return x; }}
        real mid(real x) {{ return leaf(x); }}
        real c1(real x) {{ return mid(x); }}
        {chain}
        real top(real x) {{ return mid(x) + c{MAX_CALL_DEPTH - 2}(x); }}
    """)
    # top, then c98 down to c1, then mid and leaf: 101 deep
    assert run_bound(program, "top") is None
    compiled = CompiledProgram(program, plain_config(), "top")
    assert compiled.guarded()
    assert assert_engines_agree(compiled, [1.0], None) == "recursion depth"
    assert run_bound(program, f"c{MAX_CALL_DEPTH - 2}") == (
        MAX_CALL_DEPTH, MAX_CALL_DEPTH)


# -- random programs, guarded or not

@settings(max_examples=200)
@given(cases())
def test_compiled_engine_matches_oracle_on_random_programs(case):
    program, x, budget, cfg, state = case
    assert_engines_agree(CompiledProgram(program, cfg, None, budget), x,
                         state)


# -- the shipped programs

def _programs():
    for path in sorted(BENCH.glob("*.mx")):
        program = prepare(parse(path.read_text(encoding="utf-8")))
        yield path.stem, program


def _point(rng, arity):
    values = []
    for _ in range(arity):
        roll = rng.random()
        if roll < 0.2:
            values.append(rng.choice(SPECIAL))
        elif roll < 0.4:
            values.append(rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300, 300))
        else:
            values.append(rng.uniform(-4.0, 4.0))
    return values


@pytest.mark.parametrize("name, program", list(_programs()))
def test_compiled_engine_matches_oracle_on_benchmarks(name, program):
    rng = random.Random(name)
    entry = program.functions[-1].name
    arity = len(program.function(entry).params)
    branches = [(label, side) for label in range(program.num_conditionals)
                for side in "TF"]
    points = [[value] * arity for value in (math.nan, math.inf, -math.inf)]
    points += [_point(rng, arity) for _ in range(40)]
    cfgs = [coverage_config(), bva_config(), plain_config()]
    cfgs += [path_config([rng.choice(branches)
                          for _ in range(rng.randint(1, 3))])
             for _ in range(3)]
    aborts = set()
    for budget in (2, 1_000_000):
        for cfg in cfgs:
            compiled = CompiledProgram(program, cfg, entry, budget)
            for x in points:
                states = [None]
                if cfg.mode == "coverage":
                    states = [SaturationState(cfg=None, explored=frozenset(
                        b for b in branches if rng.random() < 0.5))
                        for _ in range(3)]
                for state in states:
                    aborts.add(assert_engines_agree(compiled, x, state))
    assert {None, "nan operand", "step budget exceeded"} <= aborts


# -- constraints

@st.composite
def constraints(draw):
    gen = _ProgramGen(draw)
    names = ["x", "y"][:draw(st.integers(1, 2))]
    parts = [f"{gen.expr(names, [])} {gen.pick(OPS)} {gen.expr(names, [])}"
             for _ in range(draw(st.integers(0, 3)))]
    text = " && ".join(parts)
    x = draw(st.lists(inputs, min_size=len(names), max_size=len(names)))
    return parse_constraint(text, names), x


def _oracle_distance(constraint, x):
    """The sum of the conjuncts' distances; a NaN operand scores the
    point with the sentinel, as in the program modes."""
    env = dict(zip(constraint.variables, x))
    interp = interp_oracle._Interp(Program([]), plain_config(), None, 0)
    total = 0.0
    for cmp in constraint.conjuncts:
        a = interp.eval_expr(cmp.lhs, env)
        b = interp.eval_expr(cmp.rhs, env)
        try:
            total += branch_distance(cmp.op, a, b, 1e-6)
        except NaNOperand:
            return SENTINEL
    return total


def _oracle_holds(constraint, x):
    env = dict(zip(constraint.variables, x))
    interp = interp_oracle._Interp(Program([]), plain_config(), None, 0)
    return all(compare(c.op, interp.eval_expr(c.lhs, env),
                       interp.eval_expr(c.rhs, env))
               for c in constraint.conjuncts)


@settings(max_examples=200)
@given(constraints())
# holds at infinite operands, where a - b is NaN
@example((parse_constraint("x <= y"), [math.inf, math.inf]))
def test_compiled_constraint_matches_oracle(case):
    constraint, x = case
    expected = _run_value(
        lambda: _objective_rule(_oracle_distance(constraint, x)))
    assert _run_value(lambda: compile_constraint(constraint).fn(x)) \
        == expected
    assert _holds(constraint, x) == _oracle_holds(constraint, x)


# -- the generated point and line runners

# floats that the box, the line point or the sanitising may treat
# specially: NaN, signed zeros and infinities, the largest doubles and
# subnormals
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308,
         1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.0, -1.0, 0.5, 1e-3, -3.0)
edge_floats = st.one_of(st.sampled_from(EDGES), st.floats())
# bounds as a caller may give them, ints included, in either order
bounds = st.one_of(st.sampled_from((-0.0, 0.0, -1e-3, 1e-3, -1.0, 1.0,
                                    5e-324, -1e308, 1e308, -1, 0, 2)),
                   st.floats(allow_nan=False, allow_infinity=False))


def _at(call):
    """The point a runner call asks for, before the box."""
    if len(call) == 1:
        return list(call[0])
    x, d, t = call
    return [xi + t * di for xi, di in zip(x, d)]


# the ways a call may ask again for a point the runners hold, or for one
# next to it that they must run
REPEATS = ("again", "line at t = 0", "zero direction", "flipped zero",
           "nan again", "same edge")


@st.composite
def runner_calls(draw, arity):
    """None or a box of one bound pair per input, and a sequence of
    point calls `(x,)` and line calls `(x, d, t)`; directions often
    have zero components, and calls often repeat a point or come next
    to one: a call again, a line call landing on the last point, a zero
    of the other sign, a NaN again, two points clamped to one edge."""
    box = None
    if draw(st.integers(0, 3)):
        box = [(draw(bounds), draw(bounds)) for _ in range(arity)]
    vector = st.lists(edge_floats, min_size=arity, max_size=arity)
    direction = st.lists(st.one_of(st.sampled_from((0.0, -0.0, 1.0)),
                                   edge_floats),
                         min_size=arity, max_size=arity)
    call = st.one_of(st.tuples(vector),
                     st.tuples(vector, direction, edge_floats))
    calls = [draw(call)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("fresh",) + REPEATS))
        if kind == "again":
            calls.append(calls[-1])
        elif kind == "line at t = 0":
            calls.append((_at(calls[-1]), draw(direction), 0.0))
        elif kind == "zero direction":
            zeros = draw(st.lists(st.sampled_from((0.0, -0.0)),
                                  min_size=arity, max_size=arity))
            calls.append((_at(calls[-1]), zeros, draw(edge_floats)))
        elif kind in ("flipped zero", "nan again", "same edge"):
            first, second = draw(vector), None
            i = draw(st.integers(0, arity - 1))
            if kind == "flipped zero":
                first[i] = draw(st.sampled_from((0.0, -0.0)))
                second = -first[i]
            elif kind == "nan again":
                first[i] = second = math.nan
            else:
                sign = draw(st.sampled_from((1.0, -1.0)))
                first[i], second = sign * math.inf, sign * sys.float_info.max
            calls += [(first,), (first[:i] + [second] + first[i + 1:],)]
        else:
            calls.append(draw(call))
    return box, calls


def _evaluations(objective, calls):
    """The repr of each call's value, or its exception's type, and the
    evaluation count after it."""
    out = []
    for call in calls:
        if len(call) == 1:
            value = _run_value(lambda: objective(call[0]))
        else:
            value = _run_value(lambda: objective.along(*call[:2])(call[2]))
        out.append((value, objective.eval_count))
    return out


def _reference_evaluations(evaluate, arity, box, calls):
    """`_evaluations` of the composition the runners replace: a plain
    function of the clamped point, sanitised by a generic Objective, at
    the line point built as a list."""
    reference = Objective(lambda x: evaluate(clamp(x, box)), arity)
    out = []
    for call in calls:
        if len(call) == 1:
            point = call[0]
        else:
            x, d, t = call
            point = [xi + t * di for xi, di in zip(x, d)]
        out.append((_run_value(lambda: reference(point)),
                    reference.eval_count))
    return out


def _held(call, box):
    """The clamped point of a call as the runners compare it, each input
    by repr so that zeros keep their sign; None if an input is NaN."""
    point = [float(v) for v in clamp(_at(call), box)]
    if any(math.isnan(v) for v in point):
        return None
    return tuple(map(repr, point))


def _returned(value):
    """Whether a reference value shows a normal return: a float, not the
    sentinel of an abort, nor an exception's name."""
    try:
        return float(value) != SENTINEL
    except ValueError:
        return False


def _run_bounds(calls, box, reference):
    """The fewest and the most evaluations the runners may run for
    `calls`, whose reference values are `reference`.  A call must run
    unless its clamped point equals an earlier one's; it must be reused
    when that point is the last call's and the last call returned
    normally."""
    points = [_held(call, box) for call in calls]
    fewest = sum(p is None or p not in points[:i]
                 for i, p in enumerate(points))
    reused = sum(p is not None and p == points[i - 1]
                 and _returned(reference[i - 1][0])
                 for i, p in enumerate(points) if i)
    return fewest, len(calls) - reused


def assert_runners_match_reference(evaluate, arity, box, calls):
    """The runners' values and `eval_count` are the reference's; they run
    a repeated point at most once, and every point new to them."""
    objective = Objective(evaluate, arity, box)
    reference = _reference_evaluations(evaluate, arity, box, calls)
    assert _evaluations(objective, calls) == reference
    fewest, most = _run_bounds(calls, box, reference)
    assert fewest <= objective.run_count <= most <= objective.eval_count


@settings(max_examples=150)
@given(cases(), st.data())
def test_generated_runners_match_the_reference_composition(case, data):
    program, _x, budget, cfg, state = case
    compiled = CompiledProgram(program, cfg, None, budget)
    box, calls = data.draw(runner_calls(compiled.arity))
    assert_runners_match_reference(compiled.objective(state),
                                   compiled.arity, box, calls)


@settings(max_examples=150)
@given(constraints(), st.data())
def test_generated_constraint_runners_match_the_reference_composition(
        case, data):
    constraint, _x = case
    arity = len(constraint.variables)
    box, calls = data.draw(runner_calls(arity))
    assert_runners_match_reference(compile_constraint(constraint).fn,
                                   arity, box, calls)


# the branch taken at label 0 tells -0.0 from 0.0, and the distance at
# label 2 of two clamped inputs is an int if the bounds stay ints
SIGNED = """
real f(real x, real y) {
    if (1 / x < 0) {
        if (y < 1) { return 1; }
    } else {
        if (y > x) { return 2; }
    }
    return 0;
}
"""


def test_runners_keep_signed_zeros_float_bounds_and_the_sentinel():
    program = parse(SIGNED)
    calls = [([-0.0, 0.0],), ([0.0, 0.5],),
             ([-0.0, 0.0], [0.0, 1.0], 2.0),
             ([10.0, 0.0], [0.0, 0.0], 1.0),
             ([-0.0, 1e151],),
             ([math.nan, 0.5], [1.0, 0.0], 3.0),
             ([0.0, 0.0], [1.0, 1.0], math.inf),
             ([3, True],), ([False, -0.0],), ([-7, 10**6],), ([1e9, -1e9],)]
    state = SaturationState(cfg=None, explored=frozenset(
        {(0, "T"), (0, "F"), (1, "T"), (2, "T")}))
    for cfg in (coverage_config(), path_config(((0, "T"), (1, "T"))),
                bva_config(), plain_config()):
        evaluate = CompiledProgram(program, cfg).objective(state)
        for box in (None, [(0.0, 2), (5, 6.0)],
                    [(-0.0, 1.0), (-1.0, 1e-3)], [(-1.0, -0.0), (-1.0, 1.0)]):
            assert_runners_match_reference(evaluate, 2, box, calls)


def test_a_box_of_another_length_is_invalid_for_every_objective():
    """One check in the Objective serves a plain function and a
    generated runner alike: neither is made with a box of another
    length than its inputs, so neither drops or ignores an input."""
    evaluate = CompiledProgram(parse(SIGNED), plain_config()).objective()
    for fn in (sum, evaluate):
        for box in ([(0.0, 1.0)], [(0.0, 1.0)] * 3, []):
            with pytest.raises(InvalidBox, match=f"^bad box of {len(box)} "
                                                 "pairs for 2 inputs$"):
                Objective(fn, 2, box)


# at huge inputs a path or boundary distance passes the sentinel
HUGE = """
real f(real x, real y) {
    if (x == 0) { return 1; }
    if (y * 2 >= 3) { return 2; }
    return 0;
}
"""


@pytest.mark.parametrize("cfg", [
    coverage_config(), path_config(((0, "T"),)),
    path_config(((0, "F"), (1, "T"))), bva_config(), plain_config(),
], ids=lambda cfg: cfg.mode)
def test_a_replay_gives_the_value_the_search_saw_at_huge_inputs(cfg):
    """The tracing flavour maps a final value outside [-max, SENTINEL]
    to the sentinel, as the runner does, in every mode; the two agree
    by repr."""
    compiled = CompiledProgram(parse(HUGE), cfg)
    state = SaturationState(cfg=None, explored=frozenset({(0, "T")}))
    evaluate = compiled.objective(state)
    values = (3.2e150, -3.2e150, 1e154, 1e200, 1.7976931348623157e308,
              math.inf, math.nan, 1e-300, 0.0, 1.5)
    for x in values:
        for y in values:
            assert (repr(compiled.trace([x, y], state).final_r)
                    == repr(evaluate([x, y]))), (x, y)


def test_no_saturation_state_reads_as_nothing_saturated(foo):
    """Coverage mode without a state reads as the state of a search's
    first restart, saturation.new_state, in both flavours."""
    state = new_state(build_cfg(foo, "FOO"))
    compiled = CompiledProgram(foo, coverage_config(), "FOO")
    for x in ([1.0], [2.0], [-3.0], [1e300], [math.nan]):
        assert (_run(lambda: execute(foo, x, coverage_config(), entry="FOO"))
                == _run(lambda: execute(foo, x, coverage_config(), state,
                                        entry="FOO")))
        assert (repr(compiled.objective()(x))
                == repr(compiled.objective(state)(x)))


def test_plain_calls_bind_one_runner():
    """Called on points, a representing function is one Objective
    without a box, bound on the first call and run by the later ones."""
    constraint = parse_constraint("x*y == 12 && x + y == 7")
    for make in (lambda: compile_constraint(constraint).fn,
                 lambda: CompiledProgram(load("k_cos.mx"),
                                         coverage_config()).objective()):
        evaluate, fresh = make(), make()
        points = ([3.0, 4.0], [1.0, 2.0], [1.0, 2.0], [math.nan, 0.5])
        with mock.patch.object(evaluate, "_bind",
                               wraps=evaluate._bind) as bind:
            got = [repr(evaluate(x)) for x in points]
        assert bind.call_count == 1
        assert got == [repr(Objective(fresh, 2)(x)) for x in points]


def test_runners_run_a_point_again_only_when_it_is_not_the_one_they_hold():
    # x * y is NaN at (inf, 0), which aborts the evaluation
    program = parse("real f(real x, real y) { if (x * y < 1) { return 1; }"
                    " return 0; }")
    box = [(-math.inf, math.inf), (-1.0, 1.0)]
    # each call, and whether the runners must run it
    calls = [(([1.0, 0.5],), True),
             (([1.0, 0.5],), False),
             (([1.0, 0.5], [3.0, -2.0], 0.0), False),
             (([1.0, 0.5], [0.0, -0.0], 7.0), False),
             (([math.inf, 0.0],), True),
             (([math.inf, 0.0],), True),    # an abort is not kept
             (([1.0, 0.5],), False),
             (([1.0, 0.0],), True),
             (([1.0, -0.0],), True),
             (([1.0, -0.0], [0.0, 1.0], 0.0), True),    # -0.0 + 0.0
             (([math.nan, 0.5],), True),
             (([math.nan, 0.5],), True),
             (([1.0, 5.0],), True),
             (([1.0, math.inf],), False),   # clamped to the same edge
             (([1.0, 0.0], [0.0, 1.0], 1e300), False)]
    # modes that compute the distance at label 0, so NaN aborts there
    state = SaturationState(cfg=None, explored=frozenset({(0, "T")}))
    for cfg in (coverage_config(), path_config(((0, "T"),)), bva_config()):
        evaluate = CompiledProgram(program, cfg).objective(state)
        assert_runners_match_reference(evaluate, 2, box,
                                       [call for call, _ in calls])
        objective = Objective(evaluate, 2, box)
        runs = []
        for call, _ in calls:
            _evaluations(objective, [call])
            runs.append(objective.run_count)
        assert runs == list(accumulate(run for _, run in calls))
        assert objective.eval_count == len(calls)


def test_objectives_sharing_code_keep_their_box_and_state_apart():
    """Objectives of one compiled program, or of one compiled
    constraint, called in turn give what fresh ones give alone."""
    program = load("k_cos.mx")
    rng = random.Random("shared runners")
    calls = []
    for _ in range(12):
        x, d = _point(rng, 2), _point(rng, 2)
        calls.append((x,) if rng.random() < 0.3
                     else (x, d, rng.choice((0.0, 1.0, -0.5, 1e-6))))

    def objective(compiled, explored):
        return compiled.objective(SaturationState(cfg=None,
                                                  explored=explored))

    shared = CompiledProgram(program, coverage_config())
    constraint = parse_constraint("x*y == 12 && x + y < 7")
    distance = compile_constraint(constraint).fn
    # (fresh function, shared function, box) per objective
    groups = [
        [(objective(CompiledProgram(program, coverage_config()), explored),
          objective(shared, explored), box)
         for explored, box in (
             (frozenset(), [(-1.0, 1.0), (-1e-3, 1e-3)]),
             (frozenset({(0, "T"), (1, "F"), (3, "T")}), None),
             (frozenset({(0, "F")}), [(0.25, 4.0), (-10.0, 10.0)]))],
        [(compile_constraint(constraint).fn, distance, box)
         for box in ([(-1.0, 1.0), (2.0, 3.0)], None, [(0.0, 1e-3)] * 2)],
    ]
    for group in groups:
        expected = [_evaluations(Objective(fresh, 2, box), calls)
                    for fresh, _shared, box in group]
        assert len(set(map(repr, expected))) == len(group)
        objectives = [Objective(fn, 2, box) for _fresh, fn, box in group]
        got = [[] for _ in group]
        for call in calls:
            for i, each in enumerate(objectives):
                got[i] += _evaluations(each, [call])
        assert got == expected


def test_a_point_request_is_the_line_request_at_minus_zero():
    """A point request runs the line runner at t = -0.0 along zeros: the
    point is x bit for bit, and an int or bool input converts as
    float() does, so a product of ints overflows as doubles do; an int
    past the double range raises OverflowError, counted on neither
    side."""
    program = parse(SIGNED)
    state = SaturationState(cfg=None, explored=frozenset(
        {(0, "F"), (1, "T"), (1, "F"), (2, "T"), (2, "F")}))
    points = [[3, True], [False, -0.0], [0, 0.5], [-0.0, 0.5], [0.0, 0.5],
              [math.nan, 1], [-7, 10**6], [-0.0, math.inf], [3, 10**200]]
    for cfg in (coverage_config(), path_config(((0, "T"), (1, "T"))),
                bva_config(), plain_config()):
        compiled = CompiledProgram(program, cfg)
        evaluate = compiled.objective(state)
        for x in points:
            # the value at x as floats, and the trace's under the
            # Objective rule
            value = repr(evaluate(x))
            assert value == repr(evaluate([float(v) for v in x]))
            assert value == repr(_objective_rule(
                compiled.trace(x, state).final_r))
        with pytest.raises(OverflowError):
            evaluate([10**400, 0.0])
        # the generated runner, and the generic path of a plain function
        for objective in (Objective(evaluate, 2, [(0.0, 2), (5, 6.0)]),
                          Objective(lambda x: evaluate(x), 2)):
            with pytest.raises(OverflowError):
                objective([10**400, 0.0])
            assert objective.eval_count == 0
        if cfg.mode == "coverage":
            # the branch at label 0 tells -0.0 from 0.0
            assert (evaluate([-0.0, 0.5]), evaluate([0.0, 0.5])) \
                == (0.0, SENTINEL)


def _shipped_programs():
    root = BENCH.parent
    return sorted(BENCH.glob("*.mx")) + sorted(
        (root / "perfbench" / "programs").glob("*/*.mx"))


# the shipped programs with a while loop or recursion
LOOPING = {"fact_rec", "fanout", "halve_rec", "loop_guard"}


@pytest.mark.parametrize("path", _shipped_programs(),
                         ids=lambda path: path.stem)
def test_each_program_generates_one_runner_and_one_coverage_hook(path):
    """The fast source's evaluations are those of what `_bind` returns:
    the runner, which calls the entry once, and, for an entry with
    inputs, the line search, which calls it at its two evaluation sites,
    each with a depth argument where the step budget leaves the guards
    in; the tracing source takes the coverage penalty from the
    saturation table, as the fast one does."""
    assert_one_runner_and_one_coverage_hook(
        parse(path.read_text(encoding="utf-8")), path.stem in LOOPING)


def test_an_entry_without_inputs_generates_no_search():
    assert_one_runner_and_one_coverage_hook(
        parse("real f() { if (1 < 2) { return 1; } return 0; }"), False)


def assert_one_runner_and_one_coverage_hook(program, looping):
    entry = program.functions[-1].name
    inputs = [f"v{i}" for i in range(len(program.functions[-1].params))]
    calls = 3 if inputs else 1
    for cfg in (coverage_config(), path_config(()), bva_config(),
                plain_config()):
        # at the default budget, only a loop or recursion keeps the
        # guards in; a budget of 1 keeps them in every program
        for budget, guarded in ((1_000_000, looping), (1, True)):
            args = ["1"] + inputs if guarded else inputs
            compiled = CompiledProgram(program, cfg, entry, budget)
            assert compiled.guarded() is guarded
            fast, tracing = compiled.source(), compiled.source(True)
            assert "\ndef _bind(" in fast
            assert fast.count("return _line") == 1
            assert ("def _search(" in fast) is bool(inputs)
            for name in ("_value", "_point", "_ArityMismatch"):
                assert name not in fast, name
            assert fast.count(f"f_{entry}(") - fast.count(
                f"def f_{entry}(") == calls
            assert fast.count(f"f_{entry}({', '.join(args)})\n") == calls
            assert ("_StepBudgetExceeded" in fast) is guarded
            assert "_pen" not in tracing
            state = SaturationState(cfg=None, explored=frozenset())
            counts_on = Objective(len, 0)   # any object with the two counts
            line, search = compiled.objective(state).runner(counts_on)
            assert callable(line)
            assert callable(search) is bool(inputs)


# -- the generated line search against its specification

def _nan_with(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000
                                           | payload))[0]


# coordinates a line search may start from or move along: the edge
# floats, NaN payloads, and zeros and units of either sign
line_floats = st.one_of(
    edge_floats, st.integers(1, 2 ** 51 - 1).map(_nan_with),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e-30, 1e150)))
XTOLS = (1e-8, 1e-3, 0.0)   # at 0.0, Brent often runs out its 100 rounds
SHIPPED = {path.stem: prepare(parse(path.read_text(encoding="utf-8")))
           for path in _shipped_programs()}


def _python_searching(fn, arity, box):
    """An Objective of `fn` whose line searches run the Python `_bracket`
    and `brent_line_min`, the specification, through its generated
    runner."""
    objective = Objective(fn, arity, box)
    objective._search = objective._python_search
    return objective


def _line_searches(objective, lines, cfg):
    """Run the line searches `lines` on `objective` in turn, each (x, d)
    with x None going on from the last one's new x: per search, the
    repr of its (new x, f, decrease), the counts after it and whether a
    point request at its new x then is a reuse; last, the record."""
    out, x = [], None
    for start, d in lines:
        result = _line_minimize(objective, x if start is None else start,
                                d, cfg)
        counts = objective.eval_count, objective.reuse_count
        x = result[0]
        objective(x)
        out.append((repr(result), counts,
                    objective.reuse_count - counts[1]))
    return out, repr(objective.searches)


def assert_searches_match_the_specification(fn, arity, box, lines, cfg):
    """The generated search gives what the Python one gives through the
    same runner: results, counts, record and memo; and through a plain
    function of the clamped point, the results and requests."""
    generated = Objective(fn, arity, box)
    assert generated._search is not generated._python_search
    expected = _line_searches(_python_searching(fn, arity, box), lines, cfg)
    assert _line_searches(generated, lines, cfg) == expected
    plain = Objective(lambda p: fn(clamp(p, box)), arity)
    results, record = _line_searches(plain, lines, cfg)
    assert ([(result, evals) for result, (evals, _), _ in results]
            == [(result, evals) for result, (evals, _), _ in expected[0]])
    assert record == expected[1]


@st.composite
def searched_lines(draw, arity):
    """A box or None, and one to three lines, each from a drawn start or
    from the last search's new x."""
    box = None
    if draw(st.integers(0, 2)):
        box = [(draw(bounds), draw(bounds)) for _ in range(arity)]
    vector = st.lists(line_floats, min_size=arity, max_size=arity)
    lines = [(draw(vector), draw(vector))]
    for _ in range(draw(st.integers(0, 2))):
        lines.append((draw(st.one_of(st.none(), vector)), draw(vector)))
    return box, lines, LocalMinConfig(xtol=draw(st.sampled_from(XTOLS)))


@st.composite
def program_runners(draw):
    """The coverage, path or bva runner of a shipped program."""
    program = SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))]
    branches = [(label, side) for label in range(program.num_conditionals)
                for side in "TF"]
    mode = draw(st.sampled_from(("coverage", "path", "bva")))
    state = None
    if mode == "coverage":
        state = SaturationState(cfg=None, explored=frozenset(
            draw(st.sets(st.sampled_from(branches)))))
        cfg = coverage_config()
    elif mode == "path":
        cfg = path_config(draw(st.lists(st.sampled_from(branches),
                                        min_size=1, max_size=3)))
    else:
        cfg = bva_config()
    compiled = CompiledProgram(program, cfg)
    return compiled.objective(state), compiled.arity


@settings(max_examples=150)
@given(program_runners(), st.data())
def test_generated_searches_match_the_specification_on_programs(runner,
                                                                 data):
    fn, arity = runner
    box, lines, cfg = data.draw(searched_lines(arity))
    assert_searches_match_the_specification(fn, arity, box, lines, cfg)


@settings(max_examples=150)
@given(constraints(), st.data())
def test_generated_searches_match_the_specification_on_constraints(case,
                                                                   data):
    constraint, _x = case
    arity = len(constraint.variables)
    box, lines, cfg = data.draw(searched_lines(arity))
    assert_searches_match_the_specification(
        compile_constraint(constraint).fn, arity, box, lines, cfg)


# (constraint, box, lines, xtol, the requests of the first search): the
# requests are f(x), the bracketing's, the 3 or 4 held and Brent's
EDGE_SEARCHES = [
    # falling to huge magnitudes: 80 expansions, then an InvalidBracket;
    # on the side of negative t, its mid is above its lo already
    ("1 / x == 0", None, [([1.0], [1.0])], 1e-8, 1 + 82 + 4),
    ("1 / x == 0", None, [([1.0], [-1.0])], 1e-8, 1 + 82 + 3),
    # Brent's 100 rounds, on a line through +0.0 and along -0.0
    ("x < 0", None, [([0.5], [1.0]), (None, [-0.0])], 0.0, 1 + 3 + 4 + 100),
    ("x < y", None, [([0.0, -0.0], [1.0, -1.0]), (None, [-0.0, 0.0])],
     0.0, 1 + 3 + 4 + 100),
    # clamped onto the box's edge: the sentinel plateau past it
    ("1 / x < -1", [(-1e300, 1e-300)], [([-0.5], [1.0]), (None, [-1.0])],
     1e-8, None),
    ("x + y == 3", [(0.0, 1.0), (-0.0, 0.0)],
     [([0.5, 0.0], [1e300, -1.0]), (None, [-1.0, 1.0])], 1e-8, None),
    # NaN payloads and infinities, which every request aborts on
    ("x < y", None, [([_nan_with(7), 1.0], [1.0, 0.0]),
                     ([math.inf, 0.0], [-math.inf, 1.0])], 1e-8, None),
]


@pytest.mark.parametrize("growth", [2.0, 1.618])
@pytest.mark.parametrize("text, box, lines, xtol, requests", EDGE_SEARCHES)
def test_generated_searches_match_the_specification_at_the_edges(
        monkeypatch, growth, text, box, lines, xtol, requests):
    """Runaway bracketings, Brent's round limit, signed zeros, box edges
    and NaN payloads; the growth the bracketing takes from
    `optimize.BRACKET_GROWTH` governs both searches."""
    monkeypatch.setattr(optimize, "BRACKET_GROWTH", growth)
    constraint = parse_constraint(text)
    fn = compile_constraint(constraint).fn
    arity = len(constraint.variables)
    cfg = LocalMinConfig(xtol=xtol)
    assert_searches_match_the_specification(fn, arity, box, lines, cfg)
    if requests is not None and growth == 2.0:
        objective = Objective(fn, arity, box)
        _line_minimize(objective, *lines[0], cfg)
        assert objective.eval_count == requests


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_powell_through_the_generated_search_matches_the_specification(
        name):
    """Powell's rounds on a shipped program's coverage runner, in the
    default box, go the same way through either search."""
    program = SHIPPED[name]
    compiled = CompiledProgram(program, coverage_config())
    fn, arity = compiled.objective(), compiled.arity
    box = SearchConfig().resolved_box(arity)
    rng = random.Random(name)
    for _ in range(3):
        x0 = [rng.uniform(-10.0, 10.0) for _ in range(arity)]
        outcomes = []
        for objective in (Objective(fn, arity, box),
                          _python_searching(fn, arity, box)):
            objective.nonnegative = True    # as the modes mark theirs
            outcomes.append((repr(powell_minimize(
                objective, x0, LocalMinConfig(max_rounds=4))),
                objective.eval_count, objective.reuse_count,
                repr(objective.searches)))
        assert outcomes[0] == outcomes[1]


# -- the code cache

def _calls(compiled, points, states):
    """Every objective value and trace of `compiled` at `points` under
    `states`."""
    return [(_run_value(lambda: compiled.objective(state)(x)),
             _run(lambda: compiled.trace(x, state)))
            for x in points for state in states]


def test_compiled_programs_sharing_code_keep_their_run_state_apart():
    program = load("k_cos.mx")
    branches = [(label, side) for label in range(program.num_conditionals)
                for side in "TF"]
    states = [SaturationState(cfg=None, explored=frozenset(explored))
              for explored in ((), branches[::2], branches[1::3])]
    rng = random.Random("shared code")
    points = [[0.5, 1e-9], [-3.0, 2.0], [1e-10, 0.0], [math.nan, 1.0]]
    points += [_point(rng, 2) for _ in range(8)]
    # each group shares the tracing source and, per step budget, one
    # fast source: epsilon and path target live in the namespace, and a
    # budget of 1 is below k_cos's step bound, so its fast source keeps
    # the step and depth guards that the other budget's leaves out
    groups = [
        [(coverage_config(), 1), (coverage_config(), 1_000_000),
         (coverage_config(0.25), 1_000_000)],
        [(path_config(((0, "F"), (2, "F"), (3, "T"))), 1_000_000),
         (path_config(((0, "T"), (1, "T"))), 1_000_000),
         (path_config(((0, "T"), (1, "F")), 0.25), 1),
         (path_config(((1, "F"),), 0.25), 1_000_000)],
        [(bva_config(), 1_000_000), (bva_config(), 1)],
    ]
    for group in groups:
        # each expected run on a program of its own, compiled anew
        expected = [_calls(CompiledProgram(load("k_cos.mx"), cfg, None,
                                           budget), points, states)
                    for cfg, budget in group]
        assert len(set(map(repr, expected))) == len(group)
        with counting_compiles() as compile_:
            shared = [CompiledProgram(program, cfg, None, budget)
                      for cfg, budget in group]
            got = [[] for _ in group]
            for x in points:
                for state in states:
                    for i, compiled in enumerate(shared):
                        got[i] += _calls(compiled, [x], [state])
        assert got == expected
        assert compile_.call_count == 3


def _compiles(call):
    with counting_compiles() as compile_:
        call()
    return compile_.call_count


def test_mode_calls_replays_and_constraints_reuse_compiled_code():
    program = load("k_cos.mx")
    cfg = SearchConfig(seed=3, n_start=4)
    assert _compiles(lambda: run_coverage(program, "kernel_cos", cfg)) == 2
    assert _compiles(lambda: run_coverage(program, "kernel_cos", cfg)) == 0

    # the three path targets of a deep-calls run on one dispatcher
    deep = BENCH.parent / "perfbench" / "programs" / "deep"
    dispatcher = parse((deep / "dispatch10.mx").read_text(encoding="utf-8"))
    top = 13
    targets = (((top, "T"),), ((top, "F"),), ((top, "T"), (top - 1, "F")))
    assert [_compiles(lambda: run_path(dispatcher, "lvl0", target,
                                       SearchConfig(seed=7, n_start=2)))
            for target in targets] == [2, 0, 0]

    # check_sat compiles its constraint once; the replay of `_holds` at
    # the admitted root reuses that code
    constraint = parse_constraint("x*y == 12 && x + y == 7")
    with counting_compiles() as compile_:
        result = check_sat(constraint, SearchConfig(seed=1, n_start=8))
    assert result.verdict == "sat"
    assert "holds" in constraint._memo
    assert compile_.call_count == 1


def test_a_compile_that_overflows_the_parser_names_why_and_is_not_cached():
    # a 199-level unary minus chain inside 70 nested ifs: more than the
    # 6000 nested grammar rules CPython 3.11's parser takes
    expr = "-(" * 199 + "x" + ")" * 199
    source = "".join("    " * depth + "if x:\n" for depth in range(70))
    source += "    " * 70 + f"y = {expr}\n"
    program = parse("real f(real x) { return x; }")
    compiled = CompiledProgram(program, coverage_config())
    # `f` generates as `source`
    with mock.patch("mexec.interp._Source.function",
                    lambda gen, _fn: gen.lines.append(source)):
        for _ in range(2):
            with pytest.raises(MexecError,
                               match=r"^cannot compile f coverage fast: \S"):
                compiled.objective()
    assert not [key for key in program._memo if key[0] == "source"]
