import itertools
import math
import random
import re

import pytest

from mexec.driver import SearchConfig
from mexec.errors import (
    ArityMismatch, NonNumericExpression, ParseError, UndeclaredIdentifier,
    UnknownVariable,
)
from mexec.lang import MAX_EXPR_DEPTH
from mexec.satcheck import (
    check_sat, compile_constraint, parse_constraint,
)

PI_TEXT = "2 ^ x <= 5 && x * x >= 5 && x >= 0"


def test_parse_collects_variables_in_order():
    c = parse_constraint("x + y <= 3 && z == y")
    assert c.variables == ["x", "y", "z"]
    assert len(c.conjuncts) == 3 - 1


def test_parse_with_explicit_variables_checks_membership():
    parse_constraint("x <= 1", variables=["x", "y"])
    with pytest.raises(UnknownVariable):
        parse_constraint("x <= z", variables=["x"])


def test_parse_rejects_a_variable_listed_twice():
    # listed twice, x would be two inputs of which the conjuncts read only
    # the second, so the first, reported as x, could break x < 3
    with pytest.raises(UnknownVariable, match=r"bad variables \['x', 'x'\], "
                                              r"need distinct names"):
        parse_constraint("x > 1 && x < 3", variables=["x", "x"])


@pytest.mark.parametrize("bad", ["if", "while", 1, None, "a b", "", "1x",
                                 "x\n", "\u00e9", "x-y"])
def test_parse_rejects_a_variable_that_is_not_an_identifier(bad):
    # a keyword or a non-name would answer for an input the text cannot
    # name, or fail only when the constraint compiles
    with pytest.raises(UnknownVariable,
                       match=re.escape(f"bad variable {bad!r}, ")):
        parse_constraint("x > 1", variables=["x", bad])
    parse_constraint("x > 1", variables=["x", "_y1", "sin", "real_"])


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_constraint("x <= 1 2")


def test_parse_rejects_missing_comparator():
    with pytest.raises(ParseError):
        parse_constraint("x + 1")


def test_objective_value_at_zero():
    # only the middle conjunct is violated at x = 0, by (0 - 5)^2
    obj = compile_constraint(parse_constraint(PI_TEXT))
    assert obj([0.0]) == 25.0


def test_objective_zero_inside_feasible_interval():
    obj = compile_constraint(parse_constraint(PI_TEXT))
    assert obj([2.3]) == 0.0


def test_empty_conjunction_is_identically_zero():
    obj = compile_constraint(parse_constraint("   "))
    assert obj.arity == 0
    assert obj([]) == 0.0


def test_objective_checks_the_length_of_a_point():
    obj = compile_constraint(parse_constraint("x*y == 12 && x + y == 7"))
    for point in ([1.0, 2.0, 3.0], [1.0]):
        with pytest.raises(ArityMismatch):
            obj(point)
    assert obj([3.0, 4.0]) == 0.0


def test_objective_zero_iff_all_conjuncts_hold():
    c = parse_constraint("x >= 1 && x <= 2")
    obj = compile_constraint(c)
    for x in (0.0, 0.5, 0.999, 1.0, 1.5, 2.0, 2.5, 100.0):
        assert (obj([x]) == 0.0) == (1.0 <= x <= 2.0)


def test_calls_must_be_builtins_with_their_argument_count():
    with pytest.raises(UndeclaredIdentifier):
        parse_constraint("g(x) <= 1")
    with pytest.raises(ParseError, match="expects"):
        parse_constraint("pow(x) <= 1")


def test_pointer_syntax_rejected():
    with pytest.raises(NonNumericExpression):
        parse_constraint("*p <= 1")


def test_sat_verdict_with_model_in_interval():
    result = check_sat(parse_constraint(PI_TEXT),
                       SearchConfig(seed=11, n_start=50))
    assert result.verdict == "sat"
    x = result.model[0]
    assert math.sqrt(5) - 1e-6 <= x <= math.log2(5) + 1e-6


def test_unsatisfiable_offset_stays_unknown_with_unit_residual():
    result = check_sat(parse_constraint("x == x + 1"),
                       SearchConfig(seed=0, n_start=3))
    assert result.verdict == "unknown"
    assert result.residual == 1.0
    assert result.model is None


def test_underflow_near_miss_stays_unknown():
    # x >= 1e-20 and x <= 0 has no model; at x = 0 the residual is a
    # subnormal-scale positive number and the verdict must stay unknown
    result = check_sat(
        parse_constraint("x >= 0.00000000000000000001 && x <= 0"),
        SearchConfig(seed=1, n_start=3))
    assert result.verdict == "unknown"
    assert 0.0 < result.residual <= 1e-40


def test_sat_two_variables():
    result = check_sat(parse_constraint("x + y == 10 && x - y == 4"),
                       SearchConfig(seed=3, n_start=50))
    assert result.verdict == "sat"
    x, y = result.model
    assert x + y == pytest.approx(10.0, abs=1e-6)
    assert x - y == pytest.approx(4.0, abs=1e-6)


def test_vacuous_constraint_is_sat():
    result = check_sat(parse_constraint(""), SearchConfig(seed=0))
    assert result.verdict == "sat"
    assert result.model == []


def test_a_conjunct_nested_as_deep_as_parsing_allows_compiles_and_runs():
    # a unary minus, parenthesized in the generated Python, and a
    # non-finite literal cost the Python parser the most per level
    deep = "- " * MAX_EXPR_DEPTH + "1e400"
    constraint = parse_constraint(f"x > {deep} && x > 1")
    assert compile_constraint(constraint).fn([2.0]) == 0.0
    result = check_sat(constraint, SearchConfig(seed=0))
    assert result.verdict == "sat"


# the constraints the benchmark, the README and the tests solve, and one
# without a real root
SHIPPED_CONSTRAINTS = (
    "x*y == 12 && x + y == 7",
    PI_TEXT,
    "a*b - c == 1 && a + b + c == 10",
    "x*x == 2",
    "sin(x) > 0.5 && x < -2",
    "x*y*z == 6 && x + y + z == 6 && x < y",
    "x == x + 1",
    "x >= 0.00000000000000000001 && x <= 0",
    "x + y == 10 && x - y == 4",
    "x*x == -1",
)

EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1e308, -1e308, math.inf, -math.inf,
               math.nan, 1.0, -1.0)


@pytest.mark.parametrize("text", SHIPPED_CONSTRAINTS)
def test_a_constraint_objective_is_never_negative(text):
    """The premise of returning at a root: the value the search sees is
    never below 0, at float edge cases on every coordinate and at
    sampled points; the distance itself is never negative either (a NaN
    is mapped to the sentinel)."""
    objective = compile_constraint(parse_constraint(text))
    n = objective.arity
    rng = random.Random(7)
    points = [list(p) for p in itertools.product(EDGE_VALUES, repeat=n)]
    for _ in range(300):
        points.append([rng.uniform(-1e3, 1e3) if rng.random() < 0.7
                       else rng.choice((-1.0, 1.0))
                       * 10.0 ** rng.uniform(-300.0, 300.0)
                       for _ in range(n)])
    for point in points:
        assert objective(point) >= 0.0, point
        assert not objective.fn(point) < 0.0, point
