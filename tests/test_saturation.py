import itertools

import pytest

from mexec.cfg import build_cfg
from mexec.interp import coverage_config, execute
from mexec.lang import parse
from mexec.saturation import (
    add_infeasible, goal_reached, new_state, pen, update_saturation,
)

NESTED = """
    real f(real x) {
        if (x <= 1) {
            if (x == 0) { return 1; }
        }
        return 0;
    }
"""


def nested_state(covered=(), infeasible=()):
    state = new_state(build_cfg(parse(NESTED), "f"))
    for b in infeasible:
        state = add_infeasible(state, b)
    return update_saturation(state, covered)


def test_nothing_covered_nothing_explored():
    assert nested_state().explored == frozenset()


def test_branch_with_uncovered_descendants_is_not_saturated():
    # 0_T leads to conditional 1, whose branches are not all covered
    state = nested_state([(0, "T"), (0, "F"), (1, "F")])
    assert state.explored == {(0, "F"), (1, "F")}


def test_all_covered_means_all_saturated():
    state = nested_state([(0, "T"), (0, "F"), (1, "T"), (1, "F")])
    assert state.explored == state.cfg.branches
    assert goal_reached(state)


def test_infeasible_counts_toward_saturation():
    state = nested_state([(0, "T"), (0, "F"), (1, "T")],
                         infeasible=[(1, "F")])
    assert goal_reached(state)
    assert (1, "F") in state.explored


def test_infeasible_of_covered_branch_is_ignored():
    state = nested_state([(1, "F")])
    state = add_infeasible(state, (1, "F"))
    assert state.infeasible == frozenset()


def test_a_branch_deemed_infeasible_again_leaves_the_state_itself():
    # the benchmark counts a mark as a state that is not the one given
    state = nested_state(infeasible=[(1, "F")])
    assert add_infeasible(state, (1, "F")) is state


def test_goal_not_reached_with_missing_branch():
    state = nested_state([(0, "T"), (0, "F"), (1, "T")])
    assert not goal_reached(state)


def test_explored_is_monotone():
    state = nested_state()
    seen = frozenset()
    for batch in ([(1, "F")], [(0, "F")], [(0, "T")], [(1, "T")]):
        state = update_saturation(state, batch)
        assert state.explored >= seen
        seen = state.explored


def test_pen_neither_side_saturated_is_zero():
    state = nested_state()
    assert pen(0, "<=", 123.0, 1.0, state, 1.0) == 0.0


def test_pen_distance_toward_unsaturated_true_side():
    state = nested_state([(1, "F")])
    # at conditional 1, the false side is saturated: distance to == holds
    assert pen(1, "==", 2.89, 4.0, state, 0.0) == pytest.approx(
        1.2321, abs=1e-12)


def test_pen_distance_toward_unsaturated_false_side():
    state = nested_state([(0, "T"), (1, "T"), (1, "F")])
    # 0_T saturated: penalty is the distance to the negated comparison
    assert pen(0, "<=", 0.5, 1.0, state, 0.0) == pytest.approx(
        0.250001, abs=1e-15)


def test_pen_both_sides_saturated_keeps_current_value():
    state = nested_state([(0, "T"), (0, "F"), (1, "T"), (1, "F")])
    assert pen(0, "<=", 0.5, 1.0, state, 1.0) == 1.0
    assert pen(0, "<=", 0.5, 1.0, state, 0.25) == 0.25


def test_pen_nonnegative_over_cases():
    states = [nested_state(c) for c in
              ([], [(1, "F")], [(0, "T"), (1, "T"), (1, "F")],
               [(0, "T"), (0, "F"), (1, "T"), (1, "F")])]
    for state in states:
        for op in ("==", "!=", "<", "<=", ">", ">="):
            for a, b in ((0.0, 0.0), (-3.5, 2.0), (7.0, 7.0)):
                assert pen(0, op, a, b, state, 0.7) >= 0.0


FOO_SRC = """
real square(real x) { return x * x; }
void FOO(real x) {
    if (x <= 1) { x++; }
    real y = square(x);
    if (y == 4) { return; }
    return;
}
"""


def _explored_after_adding(graph, covered_branches, trace_branches):
    state = update_saturation(new_state(graph), covered_branches)
    grown = update_saturation(state, trace_branches)
    return state.explored, grown.explored


def test_root_iff_saturation_grows_small_oracle():
    # for every saturation subset, an input is a root of the coverage
    # objective exactly when admitting it saturates a new branch
    from mexec.transforms import prepare
    program = prepare(parse(FOO_SRC))
    graph = build_cfg(program, "FOO")
    branches = sorted(graph.branches)
    probe_inputs = [x / 8.0 for x in range(-48, 49)]
    for r in range(len(branches) + 1):
        for subset in itertools.combinations(branches, r):
            state = update_saturation(new_state(graph), subset)
            # keep only subsets that are valid saturation states
            if state.explored != frozenset(subset):
                continue
            for x in probe_inputs:
                trace = execute(program, [x], coverage_config(), state,
                                entry="FOO")
                grown = update_saturation(state, trace.covered_branches)
                grows = grown.explored > state.explored
                assert (trace.final_r == 0.0) == grows, (subset, x)
