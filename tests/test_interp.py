import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from mexec.cfg import build_cfg
from mexec.driver import SearchConfig, run_coverage
from mexec.errors import ArityMismatch
from mexec.interp import (
    BUILTIN_FUNCTIONS, MAX_CALL_DEPTH, SENTINEL, CompiledProgram, _pow,
    bva_config, conditional_counts, coverage_config, execute, path_config,
    plain_config,
)
from mexec.lang import parse
from mexec.saturation import new_state, update_saturation
from mexec.transforms import prepare

from conftest import load


def cover_state(program, entry, branches):
    state = new_state(build_cfg(program, entry))
    return update_saturation(state, branches)


def test_plain_execution_returns_value(foo):
    trace = execute(foo, [3.0], plain_config(), entry="square")
    assert trace.return_value == 9.0


def test_trace_records_coverage_facts(foo):
    trace = execute(foo, [0.5], plain_config(), entry="FOO")
    assert trace.covered_conditionals == {0, 1}
    assert trace.path == [(0, "T"), (1, "F")]
    assert trace.covered_branches == {(0, "T"), (1, "F")}
    assert len(trace.covered_calls) == 1


def test_coverage_mode_fresh_state_is_identically_zero(foo):
    state = cover_state(foo, "FOO", [])
    for x in (-7.3, 0.0, 0.7, 1.0, 2.0, 55.5):
        trace = execute(foo, [x], coverage_config(), state, entry="FOO")
        assert trace.final_r == 0.0


def test_coverage_mode_one_saturated_branch(foo):
    # with only the second conditional's false side saturated, the value
    # at x = 0.7 is ((0.7 + 1)^2 - 4)^2
    state = cover_state(foo, "FOO", [(1, "F")])
    trace = execute(foo, [0.7], coverage_config(), state, entry="FOO")
    assert trace.final_r == pytest.approx(1.2321, abs=1e-12)


def test_coverage_mode_drives_first_conditional(foo):
    # first conditional's true side saturated: distance to taking the
    # false side is (x - 1)^2 + epsilon at x = 0.5
    state = cover_state(foo, "FOO", [(0, "T"), (1, "T"), (1, "F")])
    trace = execute(foo, [0.5], coverage_config(), state, entry="FOO")
    assert trace.final_r == pytest.approx(0.250001, abs=1e-12)


def test_coverage_mode_fully_saturated_is_constant_one(foo):
    state = cover_state(
        foo, "FOO", [(0, "T"), (0, "F"), (1, "T"), (1, "F")])
    for x in (-9.0, 0.7, 1.0, 2.0, 100.0):
        trace = execute(foo, [x], coverage_config(), state, entry="FOO")
        assert trace.final_r == 1.0


def test_path_mode_zero_on_target_path(foo):
    cfg = path_config([(0, "T"), (1, "T")])
    trace = execute(foo, [1.0], cfg, entry="FOO")
    assert trace.final_r == 0.0
    assert trace.path == [(0, "T"), (1, "T")]


def test_path_mode_accumulates_distance_off_path(foo):
    cfg = path_config([(0, "T"), (1, "T")])
    trace = execute(foo, [0.0], cfg, entry="FOO")
    # on the first conditional, 0 <= 1 holds; the second misses by
    # (1 - 4)^2 with y = (0 + 1)^2
    assert trace.final_r == 9.0


def test_path_mode_distance_toward_false_side(foo):
    cfg = path_config([(0, "F"), (1, "T")])
    trace = execute(foo, [2.0], cfg, entry="FOO")
    assert trace.final_r == 0.0


def test_bva_mode_zero_iff_some_boundary_hit(foo):
    for x, expect_zero in ((2.0, True), (1.0, True), (-3.0, True),
                           (0.7, False), (5.0, False)):
        trace = execute(foo, [x], bva_config(), entry="FOO")
        assert (trace.final_r == 0.0) == expect_zero


def test_bva_value_is_product_of_equality_distances(foo):
    trace = execute(foo, [0.0], bva_config(), entry="FOO")
    # d(==, 0, 1) * d(==, 1, 4) with y = (0 + 1)^2
    assert trace.final_r == 9.0


def test_final_r_nonnegative_across_modes(foo):
    state = cover_state(foo, "FOO", [(0, "T"), (1, "F")])
    configs = [coverage_config(), bva_config(),
               path_config([(0, "F"), (1, "T")])]
    for cfg in configs:
        for x in (-5.0, -0.1, 0.0, 1.0, 3.0, 7.7):
            trace = execute(foo, [x], cfg, state, entry="FOO")
            assert trace.final_r >= 0.0


def test_determinism(foo):
    state = cover_state(foo, "FOO", [(1, "F")])
    a = execute(foo, [0.7], coverage_config(), state, entry="FOO")
    b = execute(foo, [0.7], coverage_config(), state, entry="FOO")
    assert a == b


def test_arity_mismatch():
    program = prepare(parse("real f(real x, real y) { return x + y; }"))
    with pytest.raises(ArityMismatch):
        execute(program, [1.0], plain_config(), entry="f")


def test_objective_arity_mismatch():
    program = prepare(parse("real f(real x, real y) { return x + y; }"))
    with pytest.raises(ArityMismatch):
        CompiledProgram(program, bva_config()).objective()([1.0])


def test_step_budget_aborts_runaway_loop():
    program = prepare(parse(
        "real f(real x) { while (x < 1) { x = x - 1; } return x; }"))
    trace = execute(program, [0.0], plain_config(), entry="f",
                    step_budget=1000)
    assert trace.aborted == "step budget exceeded"
    assert trace.final_r == SENTINEL


def test_nan_comparison_aborts_with_sentinel():
    program = prepare(parse(
        "real f(real x) { real z = log(x) / log(x);"
        " if (z == 1) { return 1; } return 0; }"))
    state = cover_state(program, "f", [(0, "F")])
    trace = execute(program, [-1.0], coverage_config(), state, entry="f")
    assert trace.aborted == "nan operand"
    assert trace.final_r == SENTINEL


def test_division_by_zero_is_signed_infinity():
    program = prepare(parse("real f(real x) { return 1 / x; }"))
    assert execute(program, [0.0], plain_config(),
                   entry="f").return_value == math.inf
    assert execute(program, [-0.0], plain_config(),
                   entry="f").return_value == -math.inf


def test_hiword_matches_bit_pattern():
    program = prepare(parse("real f(real x) { return hiword(x); }"))
    for x in (1.0, -1.0, 0.5, 3.14159, 1e-300, 1e300):
        expected = struct.unpack(">I", struct.pack(">d", x)[:4])[0]
        trace = execute(program, [x], plain_config(), entry="f")
        assert trace.return_value == float(expected)


def test_power_operator_matches_pow():
    program = prepare(parse("real f(real x) { return 2 ^ x; }"))
    trace = execute(program, [10.0], plain_config(), entry="f")
    assert trace.return_value == 1024.0


def test_an_overflowed_power_takes_the_sign_of_the_exact_one():
    program = parse("real f(real x, real y) { return x ^ y; }")
    for x, y, expected in ((-10.0, 309.0, -math.inf), (-10.0, 310.0, math.inf),
                           (10.0, 309.0, math.inf)):
        assert _pow(x, y) == expected
        assert execute(program, [x, y], plain_config(),
                       entry="f").return_value == expected


def test_an_overflowed_builtin_is_infinity():
    program = parse("real f(real x) { return exp(x); }")
    assert BUILTIN_FUNCTIONS["exp"](1000.0) == math.inf
    assert execute(program, [1000.0], plain_config(),
                   entry="f").return_value == math.inf


def test_while_loop_executes():
    program = prepare(parse(
        "real f(real x) { real s = 0; while (x > 0) { s = s + x; x--; } "
        "return s; }"))
    trace = execute(program, [4.0], plain_config(), entry="f")
    assert trace.return_value == 10.0
    assert (0, "T") in trace.covered_branches
    assert (0, "F") in trace.covered_branches


def test_executable_lines_and_call_sites(foo):
    assert len(foo.lines) == 7
    assert len(foo.call_sites) == 1
    assert conditional_counts(foo) == (2, 0)


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e6, max_value=1e6)


@settings(max_examples=200, deadline=None)
@given(finite)
def test_property_final_r_nonnegative(x):
    program = load("foo.mx")
    state = cover_state(program, "FOO", [(0, "T"), (1, "F")])
    trace = execute(program, [x], coverage_config(), state, entry="FOO")
    assert trace.final_r >= 0.0


def test_floor_is_a_real_so_products_overflow_to_infinity():
    program = prepare(parse(
        "real f(real x) { real y = floor(x) * floor(x);"
        " if (y - 1.0 > 0) { return 1; } return 0; }"))
    trace = execute(program, [1e300], plain_config(), entry="f")
    assert trace.return_value == 1.0
    assert (0, "T") in trace.covered_branches
    assert execute(program, [2.5], plain_config(),
                   entry="f").return_value == 1.0
    # an integer floor made this search raise OverflowError
    result = run_coverage(program, "f", SearchConfig(
        seed=3, n_start=4, box=[(1e299, 1e301)]))
    assert result.starts_used >= 1


FACT = """
real fact(real n) {
    if (n <= 1) {
        return 1;
    }
    return n * fact(n - 1);
}

real fact_guard(real x) {
    real f = fact(x);
    if (f == 120) {
        return 1;
    }
    return 0;
}
"""


def test_deep_recursion_aborts_with_the_sentinel():
    program = prepare(parse(FACT))
    trace = execute(program, [5.0], plain_config())
    assert trace.return_value == 1.0
    assert trace.aborted is None
    # fact_guard is depth 1, so fact(x) nests x more calls
    ok = execute(program, [float(MAX_CALL_DEPTH - 1)], plain_config())
    assert ok.aborted is None
    deep = execute(program, [float(MAX_CALL_DEPTH)], plain_config())
    assert deep.aborted == "recursion depth"
    assert deep.final_r == SENTINEL
    assert deep.return_value is None
    evaluate = CompiledProgram(program, bva_config()).objective()
    assert evaluate([500.0]) == SENTINEL


def test_deep_recursion_does_not_end_a_coverage_run():
    program = prepare(parse(FACT))
    result = run_coverage(program, "fact_guard",
                          SearchConfig(seed=1, n_start=4))
    assert result.starts_used == 4
