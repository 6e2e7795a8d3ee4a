"""Every mode on random programs and constraints, with tiny budgets.

Only documented errors (MexecError subclasses) may escape a mode call,
and every input a mode admits must replay, compiled again, to an exact
root: under the saturation state it was admitted in (coverage), along
the target branches (path), or on a boundary (bva).  A sat model must
zero the constraint's objective and satisfy the reference evaluator.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from mexec import saturation
from mexec.cfg import build_cfg
from mexec.driver import SearchConfig, run_bva, run_coverage, run_path
from mexec.errors import MexecError
from mexec.interp import bva_config, coverage_config, execute, path_config
from mexec.lang import parse
from mexec.optimize import LocalMinConfig, MCMCConfig
from mexec.satcheck import check_sat, compile_constraint
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
    program = parse(source)
    entry = "main"
    branches = sorted(build_cfg(program, entry).branches)
    target = (draw(st.lists(st.sampled_from(branches), max_size=3))
              if branches else [])
    return program, entry, target, draw(st.integers(0, 1000))


def check_coverage(program, entry, cfg):
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
    for x, state in zip(result.inputs, states):
        trace = execute(program, x, coverage_config(cfg.epsilon), state,
                        entry=entry, step_budget=cfg.step_budget)
        assert trace.final_r == 0.0


def check_path(program, entry, target, cfg):
    result = documented(lambda: run_path(program, entry, target, cfg))
    if result is None or result.found is None:
        return
    trace = execute(program, result.found, path_config(target, cfg.epsilon),
                    entry=entry, step_budget=cfg.step_budget)
    assert trace.final_r == 0.0
    assert tuple(trace.path[:len(target)]) == tuple(target)


def check_bva(program, entry, cfg):
    result = documented(lambda: run_bva(program, entry, cfg))
    for x in result.inputs if result is not None else ():
        trace = execute(program, x, bva_config(cfg.epsilon), entry=entry,
                        step_budget=cfg.step_budget)
        assert trace.final_r == 0.0


@settings(max_examples=40)
@given(programs_and_targets())
def test_program_modes_admit_only_replayed_roots(case):
    program, entry, target, seed = case
    cfg = tiny_config(seed)
    check_coverage(program, entry, cfg)
    check_path(program, entry, target, cfg)
    check_bva(program, entry, cfg)


@settings(max_examples=60)
@given(constraints(), st.integers(0, 1000))
def test_sat_models_satisfy_the_constraint(case, seed):
    constraint, _point = case
    result = documented(lambda: check_sat(constraint, tiny_config(seed)))
    if result is not None and result.verdict == "sat":
        assert compile_constraint(constraint).fn(result.model) == 0.0
        assert _oracle_holds(constraint, result.model)
