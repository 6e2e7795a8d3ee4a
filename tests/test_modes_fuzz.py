"""Every mode on random programs and constraints, with tiny budgets.

Only documented errors (MexecError subclasses) may escape a mode call,
and every input a mode admits must replay to an exact root, on the
program parsed again and compiled again on an emptied code cache, so
the replay shares no kept source or code with the search: under the
saturation state it was admitted in (coverage), along the target
branches (path), or on a boundary (bva).  A sat model must zero the
objective of the constraint parsed again and satisfy the reference
evaluator.  Every mode gives the same result without the record of
line searches.
Every program `parse` accepts, nested up to its limits, compiles and
runs in every mode and both flavours.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mexec import saturation
from mexec.cfg import build_cfg
from mexec.driver import SearchConfig, run_bva, run_coverage, run_path
from mexec.errors import MexecError, ParseError
from mexec.interp import (
    CompiledProgram, bva_config, coverage_config, execute, path_config,
    plain_config,
)
from mexec.lang import (
    BUILTIN_ARITY, MAX_LOOP_DEPTH, MAX_STMT_DEPTH, max_expr_depth, parse,
)
from mexec.optimize import LocalMinConfig, MCMCConfig
from mexec.satcheck import check_sat, compile_constraint, parse_constraint
from conftest import no_search_record
from test_engine import OPS, _ProgramGen, _oracle_holds, constraints


def tiny_config(seed):
    return SearchConfig(
        n_start=3, seed=seed, step_budget=300,
        mcmc=MCMCConfig(n_iter=1, local=LocalMinConfig(max_rounds=5)))


def documented(call):
    """The result of `call`, or None if it raised a MexecError; any
    other exception fails the test."""
    try:
        return call()
    except MexecError:
        return None


@st.composite
def programs_and_targets(draw):
    """A random program under an entry function whose conditionals the
    search can satisfy, which calls the program's last function."""
    gen = _ProgramGen(draw)
    source = gen.program()
    callee = parse(source).functions[-1]
    args = ", ".join(gen.pick(("a", "b")) for _ in callee.params)
    call = f"return {callee.name}({args});"
    source += (f"\nreal main(real a, real b) {{ "
               f"if (a {gen.pick(OPS)} {gen.number()}) {{ "
               f"if (b {gen.pick(OPS)} {gen.number()}) {{ {call} }} }} "
               f"while (b < {gen.number()}) {{ b = b + 1; }} return a; }}")
    entry = "main"
    branches = sorted(build_cfg(parse(source), entry).branches)
    target = (draw(st.lists(st.sampled_from(branches), max_size=3))
              if branches else [])
    return source, entry, target, draw(st.integers(0, 1000))


def replay_program(source):
    """`source` parsed again, so its code is compiled again."""
    return parse(source)


def check_coverage(program, source, entry, cfg):
    states = []
    update = saturation.update_saturation

    def record(state, covered):
        states.append(state)
        return update(state, covered)

    with mock.patch.object(saturation, "update_saturation", record):
        result = documented(lambda: run_coverage(program, entry, cfg))
    if result is None or not states:
        return
    assert len(states) == len(result.inputs)
    program = replay_program(source)
    for x, state in zip(result.inputs, states):
        trace = execute(program, x, coverage_config(cfg.epsilon), state,
                        entry=entry, step_budget=cfg.step_budget)
        assert trace.final_r == 0.0


def check_path(program, source, entry, target, cfg):
    result = documented(lambda: run_path(program, entry, target, cfg))
    if result is None or result.found is None:
        return
    trace = execute(replay_program(source), result.found,
                    path_config(target, cfg.epsilon),
                    entry=entry, step_budget=cfg.step_budget)
    assert trace.final_r == 0.0
    assert tuple(trace.path[:len(target)]) == tuple(target)


def check_bva(program, source, entry, cfg):
    result = documented(lambda: run_bva(program, entry, cfg))
    program = replay_program(source)
    for x in result.inputs if result is not None else ():
        trace = execute(program, x, bva_config(cfg.epsilon), entry=entry,
                        step_budget=cfg.step_budget)
        assert trace.final_r == 0.0


@settings(max_examples=40)
@given(programs_and_targets())
def test_program_modes_admit_only_replayed_roots(case):
    source, entry, target, seed = case
    cfg = tiny_config(seed)
    # one program searched in every mode, each replay on its own parse
    program = parse(source)
    check_coverage(program, source, entry, cfg)
    check_path(program, source, entry, target, cfg)
    check_bva(program, source, entry, cfg)


@settings(max_examples=60)
@given(constraints(), st.integers(0, 1000))
def test_sat_models_satisfy_the_constraint(case, seed):
    constraint, _point = case
    result = documented(lambda: check_sat(constraint, tiny_config(seed)))
    if result is not None and result.verdict == "sat":
        again = parse_constraint(constraint.text, constraint.variables)
        assert compile_constraint(again).fn(result.model) == 0.0
        assert _oracle_holds(constraint, result.model)


def outcome(call):
    """What a mode call produced, as text: everything a search decides
    and the evaluations it requested; or the error it raised."""
    try:
        result = call()
    except MexecError as exc:
        return f"raised {exc!r}"
    fields = ["inputs", "eval_count", "starts_used", "found", "verdict",
              "model"]
    out = {name: getattr(result, name) for name in fields
           if hasattr(result, name)}
    state = getattr(result, "state", None)
    if state is not None:
        out["infeasible"] = sorted(state.infeasible)
    return repr(out)


def with_and_without_record(calls):
    """The outcomes of `calls` with and without the line-search record;
    each call runs on a program parsed afresh."""
    with_record = [outcome(call) for call in calls]
    with no_search_record():
        without = [outcome(call) for call in calls]
    return with_record, without


@settings(max_examples=25)
@given(programs_and_targets())
def test_program_modes_decide_the_same_without_the_record(case):
    source, entry, target, seed = case
    cfg = tiny_config(seed)
    with_record, without = with_and_without_record([
        lambda: run_coverage(parse(source), entry, cfg),
        lambda: run_path(parse(source), entry, target, cfg),
        lambda: run_bva(parse(source), entry, cfg),
    ])
    assert with_record == without


@settings(max_examples=40)
@given(constraints(), st.integers(0, 1000))
def test_sat_decides_the_same_without_the_record(case, seed):
    constraint, _point = case
    with_record, without = with_and_without_record([
        lambda: check_sat(parse_constraint(constraint.text,
                                           constraint.variables),
                          tiny_config(seed))])
    assert with_record == without


# -- the gate: every program `parse` accepts compiles

# the conditionals around the innermost statement, outermost first, at
# the deepest nesting `parse` accepts; one more level is past a limit
NESTS = {
    "if": ["if"] * MAX_STMT_DEPTH,
    "else-if": ["else"] * MAX_STMT_DEPTH,
    "while": ["while"] * MAX_LOOP_DEPTH,
    # a while's test counts one level more than an if's
    "while-innermost": (["if"] * (MAX_STMT_DEPTH - 1 - MAX_LOOP_DEPTH)
                        + ["while"] * MAX_LOOP_DEPTH),
}


def _deep(kind, depth, leaf):
    """An expression nesting `depth` operators with `leaf` innermost."""
    if kind == "neg":
        return "- " * depth + leaf
    if kind == "chain":
        return " + ".join([leaf] + ["x"] * depth)
    expr = leaf     # x ^ -x ^ -x ^ ...: a power and a minus in turn
    for i in range(depth):
        expr = f"x ^ {expr}" if i % 2 == 0 else f"-{expr}"
    return expr


def _nest(kinds, test, body):
    """`body` inside conditionals of `kinds`, the innermost testing
    `test`; an "else" level is an else-if arm."""
    innermost = len(kinds) - 1
    for i in reversed(range(len(kinds))):
        cond = test if i == innermost else f"x < {i}"
        if kinds[i] == "while":
            body = f"while ({cond}) {{ {body} x = x + 1; }}"
        elif kinds[i] == "if" or i == innermost:
            body = f"if ({cond}) {{ {body} }}"
        else:
            body = f"if ({cond}) {{ x = {i}; }} else {body}"
    return body


@st.composite
def nested_programs(draw, nest, past):
    """A program whose last function nests the conditionals of `nest`,
    one more level if `past`, around the deepest expression `parse`
    accepts there, or one operator deeper; with random functions before
    it and a function named like a builtin, each maybe.  Returns the
    source and whether `parse` must accept it."""
    gen = _ProgramGen(draw)
    kinds = list(NESTS[nest])
    if past:
        kinds.insert(0, kinds[0])
    where = gen.pick(("test", "test-rhs", "return", "assign", "decl",
                      "call", "argument"))
    # a statement sits inside every conditional, the innermost test
    # inside all but its own, a while's test inside its own as well
    level = len(kinds)
    if where.startswith("test"):
        level -= kinds[-1] != "while"
    deeper = draw(st.integers(0, 3)) == 0
    depth = max_expr_depth(level) + deeper
    shape = gen.pick(("neg", "chain", "power"))
    leaf = gen.pick(("x", "1e400"))
    expr = _deep(shape, depth, leaf)
    call = f"g({_deep(shape, depth - 1, leaf)})"
    test, body = "x < 1", {
        "test": "x = 1;", "test-rhs": "x = 1;", "return": f"return {expr};",
        "assign": f"x = {expr};", "decl": f"real y = {expr};",
        "call": f"{call};", "argument": f"x = {call};"}[where]
    if where == "test":
        test = f"{expr} < 1"
    elif where == "test-rhs":
        test = f"1 < {expr}"
    source = ("real g(real y) { return y; }\n"
              f"real f(real x) {{ {_nest(kinds, test, body)} return x; }}")
    if draw(st.booleans()):
        source = gen.program() + "\n" + source
    shadow = draw(st.integers(0, 3)) == 0
    if shadow:
        source = (f"real {gen.pick(sorted(BUILTIN_ARITY))}(real y) "
                  "{ return y; }\n" + source)
    return source, not (past or deeper or shadow)


def assert_runs_in_every_mode(program, x):
    """Both flavours of every mode compile and run at `x`."""
    branches = [(label, side) for label in range(program.num_conditionals)
                for side in "TF"]
    state = saturation.SaturationState(cfg=None,
                                       explored=frozenset(branches[::3]))
    for cfg in (coverage_config(), path_config(branches[-3:]),
                bva_config(), plain_config()):
        compiled = CompiledProgram(program, cfg, step_budget=2_000)
        assert compiled.objective(state)(x) >= 0.0
        assert compiled.trace(x, state).final_r >= 0.0


@pytest.mark.parametrize("past", [False, True])
@pytest.mark.parametrize("nest", sorted(NESTS))
@settings(max_examples=8)
@given(data=st.data())
def test_every_program_parse_accepts_compiles_in_every_mode(nest, past,
                                                           data):
    source, accepted = data.draw(nested_programs(nest, past))
    if not accepted:
        with pytest.raises(ParseError):
            parse(source)
        return
    x = data.draw(st.sampled_from((-1.0, 0.5, 1e300, float("nan"))))
    assert_runs_in_every_mode(parse(source), [x])


@pytest.mark.parametrize("shape", ["neg", "chain", "power"])
@pytest.mark.parametrize("nest", sorted(NESTS))
def test_an_unlabeled_test_at_the_deepest_nesting_compiles(nest, shape):
    # a comparison with a bare pointer has no label, so the generated
    # test holds its deepest operand itself, not `_b`
    kinds = NESTS[nest]
    level = len(kinds) - (kinds[-1] != "while")
    test = f"p < {_deep(shape, max_expr_depth(level), '1e400')}"
    program = parse("real f(real *p, real x) "
                    f"{{ {_nest(kinds, test, 'x = 1;')} return x; }}")
    assert program.uninstrumentable == 1
    assert_runs_in_every_mode(program, [0.5, 0.5])


@pytest.mark.parametrize("source", ["", " \n", "// no function\n",
                                    "/* none */"],
                         ids=["empty", "blank", "line-comment",
                              "block-comment"])
def test_a_program_without_functions_is_a_parse_error(source):
    with pytest.raises(ParseError, match="defines no function"):
        parse(source)
