import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from conftest import BENCH, load

from mexec import driver, optimize, satcheck
from mexec.driver import (
    SearchConfig, mark_infeasible, run_bva, run_coverage, run_path,
    sample_start, snap_to_zero,
)
from mexec.errors import InvalidBox, MalformedPath, MexecError
from mexec.interp import (
    CompiledProgram, ExecutionTrace, bva_config, coverage_config, execute,
)
from mexec.lang import parse
from mexec.optimize import LocalMinConfig, MCMCConfig, Objective
from mexec.satcheck import check_sat, parse_constraint
from mexec.saturation import goal_reached, new_state, update_saturation
from mexec.cfg import build_cfg
from mexec.transforms import prepare


def small_cfg(seed=0, n_start=40, infeasible_after=3):
    return SearchConfig(n_start=n_start, seed=seed,
                        infeasible_after=infeasible_after)


def test_coverage_saturates_two_conditional_program(foo):
    result = run_coverage(foo, "FOO", small_cfg(seed=42))
    assert goal_reached(result.state)
    assert result.state.covered == result.graph.branches
    assert result.state.infeasible == frozenset()
    # one input per newly saturating run; three suffice here
    assert len(result.inputs) <= 4


def test_coverage_admitted_inputs_replay_to_zero(foo):
    # every admitted input was a root of the objective in force when it
    # was admitted; replay under an incrementally rebuilt state agrees
    result = run_coverage(foo, "FOO", small_cfg(seed=7))
    state = new_state(result.graph)
    for x in result.inputs:
        trace = execute(foo, x, coverage_config(), state, entry="FOO")
        assert trace.final_r == 0.0
        state = update_saturation(state, trace.covered_branches)


def test_coverage_probes_both_square_roots(foo):
    result = run_coverage(foo, "FOO", small_cfg(seed=42))
    xs = [x[0] for x in result.inputs]
    assert any(x > 1 for x in xs)
    assert any(x <= 1 for x in xs)


def test_coverage_marks_unreachable_equality_infeasible(foo_infeasible):
    result = run_coverage(foo_infeasible, "FOO", small_cfg(seed=5))
    assert (1, "T") in result.state.infeasible
    assert goal_reached(result.state)


@pytest.mark.parametrize("below_one", [0, -3])
def test_infeasible_after_below_one_raises_before_any_search(
        below_one, foo_infeasible, monkeypatch):
    monkeypatch.setattr(driver, "search", None)     # never reached
    with pytest.raises(MexecError, match=f"bad infeasible_after {below_one}"):
        run_coverage(foo_infeasible, "FOO",
                     small_cfg(seed=1, infeasible_after=below_one))


def test_coverage_stops_early_once_saturated(foo):
    result = run_coverage(foo, "FOO", small_cfg(seed=42, n_start=500))
    assert result.starts_used < 20


def test_branch_free_program_returns_one_sample():
    program = prepare(parse("real f(real x) { return x * 2; }"))
    result = run_coverage(program, "f", small_cfg())
    assert len(result.inputs) == 1
    assert result.starts_used == 1


def test_kernel_cos_deems_tiny_branch_infeasible(k_cos):
    result = run_coverage(k_cos, "kernel_cos", SearchConfig(seed=42))
    assert result.state.infeasible == {(1, "F")}
    assert len(result.state.covered) == 7
    assert goal_reached(result.state)


def test_path_finds_root_of_first_target(foo):
    result = run_path(foo, "FOO", [(0, "T"), (1, "T")], small_cfg(seed=1))
    assert result.found is not None
    x = result.found[0]
    assert min(abs(x + 3.0), abs(x - 1.0)) <= 1e-4


def test_path_already_on_path_is_immediate(foo):
    result = run_path(foo, "FOO", [(0, "T"), (1, "F")], small_cfg(seed=2))
    assert result.found is not None
    assert result.starts_used == 1


def test_path_through_false_side_finds_two(foo):
    result = run_path(foo, "FOO", [(0, "F"), (1, "T")], small_cfg(seed=3))
    assert result.found is not None
    assert result.found[0] == pytest.approx(2.0, abs=1e-4)


def test_path_rejects_bad_branch_ids(foo):
    with pytest.raises(MalformedPath):
        run_path(foo, "FOO", [(9, "T")], small_cfg())
    with pytest.raises(MalformedPath):
        run_path(foo, "FOO", [(0, "X")], small_cfg())


def test_bva_collects_boundary_inputs(foo):
    roots = set()
    for seed in range(8):
        result = run_bva(foo, "FOO", small_cfg(seed=seed, n_start=4))
        for x in result.inputs:
            for root in (-3.0, 1.0, 2.0):
                if abs(x[0] - root) <= 1e-4:
                    roots.add(root)
    assert roots == {-3.0, 1.0, 2.0}


def test_bva_trivial_boundary_admits_anything():
    program = prepare(parse(
        "real f(real x) { if (x == x) { return 1; } return 0; }"))
    result = run_bva(program, "f", small_cfg(n_start=2))
    assert result.inputs


def test_bva_underflow_residual_is_not_a_root():
    # the boundary sits at 1e-20; at x = 0 the squared distance is
    # 1e-40, positive, so 0 must not be admitted as a boundary input
    program = prepare(parse(
        "real f(real x) { if (x == 0.00000000000000000001) "
        "{ return 1; } return 0; }"))
    from mexec.interp import bva_config
    trace = execute(program, [0.0], bva_config(), entry="f")
    assert trace.final_r == 1e-40
    result = run_bva(program, "f", small_cfg(seed=0, n_start=4))
    for x in result.inputs:
        assert x[0] == 1e-20


# every run starts 4 statements, one more than the budget, and takes
# branch 0T for x > 0
OVER_BUDGET = ("real f(real x) { if (x > 0) { y = 1; } y = 2; y = 3; "
               "return 0; }")
OBJECTIVE_ZERO_MODES = {
    "cover": lambda p, cfg: run_coverage(p, "f", cfg),
    "path": lambda p, cfg: run_path(p, "f", [(0, "T")], cfg),
    "bva": lambda p, cfg: run_bva(p, "f", cfg),
    "sat": lambda _p, cfg: check_sat(parse_constraint("x*x == 2"), cfg),
}


@pytest.mark.parametrize("mode", OBJECTIVE_ZERO_MODES)
def test_a_mode_admits_only_a_root_its_replay_confirms(mode, monkeypatch):
    """An objective that reports 0 where the replay does not admits
    nothing: every program replay exceeds the step budget, the path one
    after following the target, and `x*x == 2` has no double root."""
    program = parse(OVER_BUDGET)
    monkeypatch.setattr(CompiledProgram, "objective",
                        lambda self, sat_state=None: lambda x: 0.0)
    monkeypatch.setattr(satcheck, "compile_constraint",
                        lambda c, epsilon: Objective(lambda x: 0.0, 1))
    cfg = SearchConfig(n_start=5, seed=1, step_budget=3)
    result = OBJECTIVE_ZERO_MODES[mode](program, cfg)
    assert result.starts_used == 5
    assert result.inputs == []
    assert result.verdict in (None, "unknown")
    trace = execute(program, [2.0], coverage_config(), entry="f",
                    step_budget=3)
    assert (trace.path, trace.aborted) == ([(0, "T")],
                                           "step budget exceeded")


@pytest.mark.parametrize("n_start, infeasible", [(5, set()),
                                                   (6, {(1, "T")})])
def test_cover_deems_infeasible_after_failures_since_the_last_admission(
        foo, monkeypatch, n_start, infeasible):
    """Two replays end on 1F, one is admitted, then each ends on 1F
    again: the third failure after the admission deems 1T infeasible."""
    failed = ExecutionTrace(path=[(0, "T"), (1, "F")], final_r=1.0)
    admitted = ExecutionTrace(path=[(0, "F")], final_r=0.0,
                              covered_branches={(0, "F")})
    replays = iter([failed, failed, admitted] + [failed] * 3)
    monkeypatch.setattr(CompiledProgram, "objective",
                        lambda self, sat_state=None: lambda x: 1.0)
    monkeypatch.setattr(driver, "execute", lambda *a, **k: next(replays))
    result = run_coverage(foo, "FOO", small_cfg(n_start=n_start))
    assert len(result.inputs) == 1
    assert result.state.infeasible == infeasible


def test_mark_infeasible_requires_failed_trace(foo):
    graph = build_cfg(foo, "FOO")
    state = new_state(graph)
    ok = ExecutionTrace(path=[(0, "T")], final_r=0.0)
    assert mark_infeasible(state, ok) is state


def test_mark_infeasible_flips_last_taken_branch(foo):
    graph = build_cfg(foo, "FOO")
    state = new_state(graph)
    failed = ExecutionTrace(path=[(0, "T"), (1, "F")], final_r=2.5)
    marked = mark_infeasible(state, failed)
    assert marked.infeasible == {(1, "T")}


def test_mark_infeasible_skips_covered_opposite(foo):
    graph = build_cfg(foo, "FOO")
    state = update_saturation(new_state(graph), [(1, "T")])
    failed = ExecutionTrace(path=[(0, "T"), (1, "F")], final_r=2.5)
    assert mark_infeasible(state, failed) is state


def test_sample_start_stays_in_box():
    rng = random.Random(0)
    box = [(-10.0, 10.0), (0.0, 1.0)]
    for _ in range(2000):
        x = sample_start(rng, box)
        for xi, (lo, hi) in zip(x, box):
            assert lo <= xi <= hi


def test_sample_start_in_a_box_wider_than_the_largest_double():
    # hi - lo overflows to inf here; the starts must still be finite
    # points of the box, spread over both signs
    rng = random.Random(1)
    box = [(-1e308, 1e308)] * 3
    xs = [xi for _ in range(200) for xi in sample_start(rng, box)]
    assert all(-1e308 <= xi <= 1e308 for xi in xs)
    assert min(xs) < -1e307 and max(xs) > 1e307


@pytest.mark.parametrize("box", [
    [(-math.inf, math.inf)], [(0.0, math.inf)], [(math.nan, 1.0)],
    [(1.0, 1.0)], [(2.0, -2.0)], [(-1.0, 1.0), (0.0, math.inf)],
    [(-10**400, 1)], [(-1.0, 1.0), (0, 10**5000)],
])
def test_non_finite_or_empty_box_raises(box, foo):
    cfg = SearchConfig(box=box, n_start=2, seed=0)
    with pytest.raises(InvalidBox):
        cfg.resolved_box(2)
    with pytest.raises(InvalidBox):
        run_coverage(foo, "FOO", cfg)
    with pytest.raises(InvalidBox):
        check_sat(parse_constraint("x == 1"), cfg)


def test_an_int_box_admits_what_the_same_float_box_admits(foo):
    """An int box is read as the doubles it names, so an input clamped
    to one of its bounds is admitted as a float."""
    assert all(type(bound) is float
               for pair in SearchConfig(box=[(0, 1), (-2, 3.5)])
               .resolved_box(2) for bound in pair)
    for call, lo, hi in ((run_bva, 2, 3), (run_coverage, 0, 1)):
        got, expected = (
            call(foo, "FOO", SearchConfig(seed=1, n_start=20, box=[pair]))
            for pair in ((lo, hi), (float(lo), float(hi))))
        assert repr(got.inputs) == repr(expected.inputs)
        assert got.eval_count == expected.eval_count
        assert all(type(v) is float for x in got.inputs for v in x)


@pytest.mark.parametrize("pairs", [2, 4])
def test_box_needs_one_pair_or_one_pair_per_input(pairs):
    program = parse("real f(real a, real b, real c) "
                    "{ if (a < b + c) { return 1; } return 0; }")
    for ok in (1, 3):
        cfg = SearchConfig(box=[(-1.0, 1.0)] * ok)
        assert cfg.resolved_box(3) == [(-1.0, 1.0)] * 3
    cfg = SearchConfig(box=[(-1.0, 1.0)] * pairs, n_start=2, seed=0)
    with pytest.raises(InvalidBox, match=f"{pairs} pairs for 3 inputs"):
        cfg.resolved_box(3)
    with pytest.raises(InvalidBox):
        run_coverage(program, "f", cfg)
    with pytest.raises(InvalidBox):
        check_sat(parse_constraint("a < b + c"), cfg)


def test_snap_to_zero_polishes_near_roots():
    def f(x):
        return (x[0] - 2.0) ** 2

    snapped = snap_to_zero(f, [1.9999999823])
    assert snapped == [2.0]


def test_snap_grids_reach_fourteen_decimals_and_eight_on_one_input():
    x = 0.12345678901234567
    root = round(x, 14)
    assert snap_to_zero(lambda p: (p[0] - root) ** 2, [x]) == [root]
    # the second input is not round at any grid, so only rounding the
    # first alone finds the root
    other = 0.9876543210987654
    root = round(x, 8)
    assert snap_to_zero(lambda p: (p[0] - root) ** 2 + (p[1] - other) ** 2,
                        [x, other]) == [root, other]


def test_snap_to_zero_returns_none_without_root():
    def f(x):
        return x[0] ** 2 + 1.0

    assert snap_to_zero(f, [0.3]) is None


def test_coverage_determinism(foo):
    a = run_coverage(foo, "FOO", small_cfg(seed=9))
    b = run_coverage(foo, "FOO", small_cfg(seed=9))
    assert a.inputs == b.inputs
    assert a.state.covered == b.state.covered
    assert a.eval_count == b.eval_count


MODES = {
    "cover": lambda p, cfg: run_coverage(p["k_cos"], "kernel_cos", cfg),
    "path": lambda p, cfg: run_path(p["foo"], "FOO", [(0, "F"), (1, "T")],
                                    cfg),
    "bva": lambda p, cfg: run_bva(p["foo"], "FOO", cfg),
    "sat": lambda p, cfg: check_sat(parse_constraint("x*x == 2 && y > x"),
                                    cfg),
    "sat without variables": lambda p, cfg: check_sat(
        parse_constraint("1 < 2"), cfg),
}


@pytest.mark.parametrize("mode", MODES)
def test_run_count_sums_the_runs_of_the_restarts(mode, foo, k_cos,
                                                 monkeypatch):
    made = []

    class Recorded(Objective):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(driver, "Objective", Recorded)
    monkeypatch.setattr(satcheck, "Objective", Recorded)
    result = MODES[mode]({"foo": foo, "k_cos": k_cos},
                         small_cfg(seed=5, n_start=6))
    assert result.eval_count == sum(o.eval_count for o in made)
    assert result.run_count == sum(o.run_count for o in made)
    assert 0 < result.run_count <= result.eval_count


def test_kernel_cos_counts_every_request_and_runs_two_thirds(k_cos):
    """Counts only: the evaluations requested are those of the search
    that runs every request until it holds a root, and the runners'
    last point, the values a line search hands on and the record of
    line searches leave about two thirds of them to run.  Returning at
    a root dropped mostly requests answered from held values, so the
    share run rose (0.671 to 0.686) while the total run fell; the total
    is pinned, so the share bound cannot hide more work.  Snap no longer
    evaluates the point it polishes, one run request per snap."""
    results = [run_coverage(k_cos, "kernel_cos", SearchConfig(seed=seed))
               for seed in range(6)]
    assert ([r.eval_count for r in results]
            == [6558, 5944, 6732, 6495, 6071, 5991])
    ran = sum(r.run_count for r in results)
    assert ran == 25934
    # 0.865 without the record of line searches
    assert ran / sum(r.eval_count for r in results) <= 0.687


# -- Powell returns at a root of the restart's objective: the mark that
# turns the rule on changes counts only

HARD = BENCH.parent / "perfbench" / "programs" / "hard"

STOP_RULE_GRID = {
    "cover foo": lambda cfg: run_coverage(load("foo.mx"), "FOO", cfg),
    "cover k_cos": lambda cfg: run_coverage(load("k_cos.mx"), "kernel_cos",
                                            cfg),
    "cover foo_infeasible": lambda cfg: run_coverage(
        load("foo_infeasible.mx"), "FOO", cfg),
    "cover loop_guard": lambda cfg: run_coverage(
        prepare(parse((HARD / "loop_guard.mx").read_text(encoding="utf-8"))),
        "loop_guard", cfg),
    "path k_cos": lambda cfg: run_path(load("k_cos.mx"), "kernel_cos",
                                       [(0, "F"), (2, "F"), (3, "T")], cfg),
    "bva foo": lambda cfg: run_bva(load("foo.mx"), "FOO", cfg),
    "sat two equations": lambda cfg: check_sat(
        parse_constraint("x*y == 12 && x + y == 7"), cfg),
    "sat no double root": lambda cfg: check_sat(
        parse_constraint("x*x == 2"), cfg),
}


def _outcome(result):
    """Everything a run decides, floats by `repr`, and none of its
    counts."""
    state = result.state
    return repr((result.inputs, result.starts_used,
                 None if state is None else sorted(state.infeasible),
                 None if state is None else sorted(state.covered),
                 result.found, result.verdict, result.model,
                 result.residual))


def _running_on(powell):
    """Powell with its return at a root turned off: it sees the
    restart's Objective unmarked, while basinhopping still stops at a
    root, so the chain and its random draws are the marked run's."""
    def run(f, x0, cfg=None):
        f.nonnegative = False
        try:
            return powell(f, x0, cfg)
        finally:
            f.nonnegative = True
    return run


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("run", STOP_RULE_GRID)
def test_returning_at_a_root_changes_counts_only(run, seed, monkeypatch):
    cfg = small_cfg(seed=seed, n_start=8)
    marked = STOP_RULE_GRID[run](cfg)
    monkeypatch.setattr(optimize, "powell_minimize",
                        _running_on(optimize.powell_minimize))
    unmarked = STOP_RULE_GRID[run](cfg)
    assert _outcome(marked) == _outcome(unmarked)
    assert marked.eval_count <= unmarked.eval_count
    assert marked.run_count <= unmarked.run_count


@pytest.mark.parametrize("mode", MODES)
def test_search_marks_every_objective_nonnegative(mode, foo, k_cos,
                                                  monkeypatch):
    made = []

    class Recorded(Objective):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(driver, "Objective", Recorded)
    MODES[mode]({"foo": foo, "k_cos": k_cos}, small_cfg(seed=5, n_start=3))
    assert made
    assert all(o.nonnegative is True for o in made)


# -- entries and constraints without inputs: one restart evaluates the
# one value and the mode admits it like any other restart's result

ZERO_TAKES_T = "real f() { real x = 3; if (x > 2) { x = 1; } return x; }"
ZERO_ON_BOUNDARY = "real g() { real x = 2; if (x >= 2) { x = 1; } return x; }"


def _zero(source):
    program = prepare(parse(source))
    return program, program.functions[-1].name


def _counts(result):
    return result.starts_used, result.eval_count, result.run_count


@pytest.mark.parametrize("target, found", [
    ([(0, "T")], []),           # a root: the one input takes 0T
    ([(0, "F")], None),         # not a root
])
def test_zero_input_path_decides_in_one_evaluation(target, found):
    program, entry = _zero(ZERO_TAKES_T)
    result = run_path(program, entry, target, SearchConfig(seed=1))
    assert _counts(result) == (1, 1, 1)
    assert result.found == found
    assert result.inputs == ([] if found is None else [[]])


@pytest.mark.parametrize("source, inputs", [
    (ZERO_ON_BOUNDARY, [[]]),   # a root: x >= 2 at x = 2
    (ZERO_TAKES_T, []),         # not a root: x > 2 at x = 3
])
def test_zero_input_bva_decides_in_one_evaluation(source, inputs):
    program, entry = _zero(source)
    result = run_bva(program, entry, SearchConfig(seed=1))
    assert _counts(result) == (1, 1, 1)
    assert result.inputs == inputs
    assert len(result.traces) == len(inputs)


@pytest.mark.parametrize("text, verdict, residual", [
    ("1 < 2", "sat", 0.0),                  # a root that holds
    ("1 > 2", "unknown", 1.000001),         # not a root
    ("1e-200 == 0", "unknown", 0.0),        # a root that does not hold
])
def test_zero_variable_sat_is_one_replayed_evaluation(text, verdict,
                                                      residual):
    result = check_sat(parse_constraint(text), SearchConfig(seed=1))
    assert _counts(result) == (1, 1, 1)
    assert (result.verdict, result.residual) == (verdict, residual)
    assert result.model == ([] if verdict == "sat" else None)


@pytest.mark.parametrize("source, covered, uncovered", [
    (ZERO_TAKES_T, (0, "T"), (0, "F")),
    ("real h() { real x = 1; if (x > 2) { x = 0; } return x; }",
     (0, "F"), (0, "T")),
])
@pytest.mark.parametrize("n_start", [1, 5])
def test_zero_input_cover_folds_the_branch_it_took(source, covered,
                                                   uncovered, n_start):
    # cover records its one input for an input-free entry by design,
    # whatever the nonzero restart budget
    program, entry = _zero(source)
    result = run_coverage(program, entry, SearchConfig(seed=1,
                                                       n_start=n_start))
    assert result.inputs == [[]]
    assert (result.starts_used, result.eval_count) == (1, 0)
    assert result.state.covered == {covered}
    assert uncovered not in result.state.explored


def test_zero_inputs_and_zero_restarts_evaluate_nothing():
    cfg = SearchConfig(seed=1, n_start=0)
    program, entry = _zero(ZERO_TAKES_T)
    path = run_path(program, entry, [(0, "T")], cfg)
    bva = run_bva(program, entry, cfg)
    sat = check_sat(parse_constraint("1 < 2"), cfg)
    for result in (path, bva, sat):
        assert _counts(result) == (0, 0, 0)
    assert (path.found, path.inputs, bva.inputs) == (None, [], [])
    assert (sat.verdict, sat.model, sat.residual) == ("unknown", None,
                                                      None)


def test_a_search_at_zero_temperature_completes(foo):
    cfg = SearchConfig(seed=1, n_start=3, mcmc=MCMCConfig(temperature=0.0))
    bva = run_bva(foo, "FOO", cfg)
    assert bva.starts_used == 3
    assert all(execute(foo, x, bva_config(), entry="FOO").final_r == 0.0
               for x in bva.inputs)
    sat = check_sat(parse_constraint("x*y == 12 && x + y == 7"), cfg)
    x, y = sat.model
    assert x * y == 12 and x + y == 7


def test_a_negative_temperature_is_an_error_as_the_config_is_built():
    with pytest.raises(MexecError, match="bad temperature -1.0"):
        MCMCConfig(temperature=-1.0)


# one program per kind of mode call: x > 999 has one labeled conditional
ABOVE = "real f(real x) { if (x > 999) { return 1; } return 0; }"
LABEL_FREE = "real f(real x) { return x; }"
MODE_CALLS = {
    "cover": lambda cfg: run_coverage(parse(ABOVE), "f", cfg),
    "cover, one-input suite": lambda cfg: run_coverage(parse(LABEL_FREE),
                                                       "f", cfg),
    "path": lambda cfg: run_path(parse(ABOVE), "f", [(0, "T")], cfg),
    "bva": lambda cfg: run_bva(parse(ABOVE), "f", cfg),
    "sat": lambda cfg: check_sat(parse_constraint("x > 999"), cfg),
    "sat without variables": lambda cfg: check_sat(parse_constraint("1 < 2"),
                                                   cfg),
}


def _setting(name, value):
    """A small SearchConfig with the setting `name`, of SearchConfig,
    MCMCConfig or LocalMinConfig, set to `value`."""
    def settings(kind, **given):
        if name in {f.name for f in fields(kind)}:
            given[name] = value
        return given

    local = LocalMinConfig(**settings(LocalMinConfig))
    mcmc = MCMCConfig(**settings(MCMCConfig, local=local))
    return SearchConfig(**settings(SearchConfig, seed=1, n_start=3,
                                   mcmc=mcmc))


def _never(*_args, **_kwargs):
    raise AssertionError("evaluated with a bad setting")


@pytest.mark.parametrize("name, value", [
    ("n_start", 2.5), ("n_start", -1),
    ("epsilon", math.nan), ("epsilon", 0.0), ("epsilon", -1e-6),
    ("epsilon", math.inf),
    ("infeasible_after", 0), ("infeasible_after", 1.5),
    ("step_budget", 0), ("step_budget", 2.5),
    ("n_iter", -1), ("n_iter", 1.5),
    ("step_scale", math.nan), ("step_scale", -0.5), ("step_scale", math.inf),
    ("temperature", math.nan), ("temperature", -1.0),
    ("temperature", -math.inf),
    ("max_rounds", 1.5), ("max_rounds", -1),
    ("xtol", math.nan), ("xtol", -1e-8), ("xtol", math.inf),
    ("ftol", math.nan), ("ftol", -1e-8), ("ftol", math.inf),
    ("seed", [1]), ("seed", {}),
])
def test_a_bad_setting_raises_naming_it_as_its_config_is_built(name, value):
    with pytest.raises(MexecError, match=rf"^bad {name}\b"):
        _setting(name, value)
    # dataclasses.replace builds a config, so it checks again
    for kind in (SearchConfig, MCMCConfig, LocalMinConfig):
        if name in {f.name for f in fields(kind)}:
            with pytest.raises(MexecError, match=rf"^bad {name}\b"):
                replace(kind(), **{name: value})


@pytest.mark.parametrize("value", [[(1,)], [1, 2], [(0, "1")]])
def test_a_bad_box_raises_in_every_mode_before_any_evaluation(
        value, monkeypatch):
    # the box rule needs the arity, so the mode checks the box
    monkeypatch.setattr(driver, "_minimize_once", _never)
    monkeypatch.setattr(driver, "execute", _never)
    for mode, call in MODE_CALLS.items():
        with pytest.raises(MexecError, match=r"^bad box\b"):
            call(_setting("box", value))
            pytest.fail(f"{mode} ran")


@pytest.mark.parametrize("kind", [SearchConfig, MCMCConfig, LocalMinConfig])
def test_a_config_is_frozen(kind):
    cfg = kind()
    for f in fields(kind):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == kind()


def test_a_none_config_searches_with_the_defaults_in_every_mode(monkeypatch):
    used = []

    def search(result, cfg, _arity, _objective_at, _admit):
        used.append(cfg)
        return result

    monkeypatch.setattr(driver, "search", search)
    for call in MODE_CALLS.values():
        call(None)
    # the one-input suite of a label-free entry runs no search
    assert used == [SearchConfig()] * (len(MODE_CALLS) - 1)


@pytest.mark.parametrize("name, value", [
    ("n_start", 0), ("n_iter", 0), ("step_scale", 0.0),
    ("temperature", 0.0), ("temperature", -0.0), ("temperature", math.inf),
    ("defaults", None),
])
def test_the_edges_of_each_setting_rule_still_run(name, value):
    cfg = None if name == "defaults" else _setting(name, value)
    for call in MODE_CALLS.values():
        call(cfg)


@pytest.mark.parametrize("arity", [1, 2])
def test_a_wrong_pair_count_names_what_the_box_needs(arity):
    cfg = SearchConfig(box=[(-1.0, 1.0)] * 3)
    with pytest.raises(InvalidBox, match=f"bad box of 3 pairs for {arity} "
                                         "inputs, need one pair or one per "
                                         "input$"):
        cfg.resolved_box(arity)


# -- the one result record: every mode returns the record `search`
# filled, and inputs are what the mode admitted

RECORD_CALLS = {
    **MODE_CALLS,
    "cover without inputs": lambda cfg: run_coverage(*_zero(ZERO_TAKES_T),
                                                     cfg),
    "path without inputs": lambda cfg: run_path(*_zero(ZERO_TAKES_T),
                                                [(0, "T")], cfg),
    "bva without inputs": lambda cfg: run_bva(*_zero(ZERO_ON_BOUNDARY), cfg),
}
ONE_INPUT_SUITES = {"cover, one-input suite", "cover without inputs"}


@pytest.mark.parametrize("mode", RECORD_CALLS)
def test_every_mode_returns_the_record_search_filled(mode, monkeypatch):
    made, searched = [], []
    search = driver.search

    class Recorded(Objective):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def recorded_search(result, *args):
        searched.append(result)
        return search(result, *args)

    monkeypatch.setattr(driver, "Objective", Recorded)
    monkeypatch.setattr(driver, "search", recorded_search)
    result = RECORD_CALLS[mode](SearchConfig(seed=5, n_start=6))
    assert type(result) is driver.SearchResult
    assert result.mode == mode.split(",")[0].split()[0]
    if mode in ONE_INPUT_SUITES:
        assert (searched, made, _counts(result)) == ([], [], (1, 0, 0))
        return
    assert len(searched) == 1 and searched[0] is result
    assert _counts(result) == (len(made), sum(o.eval_count for o in made),
                               sum(o.run_count for o in made))
    assert result.starts_used > 0 and result.wall_time > 0.0


@pytest.mark.parametrize("text, cfg", [
    ("x*x == 4", SearchConfig(seed=7, n_start=20)),
    ("1 < 2", SearchConfig(seed=1)),
])
def test_a_sat_model_is_the_one_admitted_input(text, cfg):
    result = check_sat(parse_constraint(text), cfg)
    assert result.verdict == "sat"
    assert result.inputs == [result.model]
    unknown = check_sat(parse_constraint("1 > 2"), cfg)
    assert (unknown.verdict, unknown.inputs) == ("unknown", [])


def test_bva_admits_a_root_only_when_its_replay_confirms_it(foo,
                                                            monkeypatch):
    def off_root(*_args, **_kwargs):
        return ExecutionTrace(final_r=1.0)

    found = run_bva(foo, "FOO", small_cfg(seed=3, n_start=8))
    assert found.inputs
    monkeypatch.setattr(driver, "execute", off_root)
    result = run_bva(foo, "FOO", small_cfg(seed=3, n_start=8))
    assert (result.inputs, result.traces) == ([], [])
    assert _counts(result) == _counts(found)


@pytest.mark.parametrize("source, target, constraint", [
    (ABOVE, [(0, "T")], "x > 999"),
    (LABEL_FREE, [], "x == x"),
    (ZERO_TAKES_T, [(0, "T")], "1 < 2"),
], ids=["ordinary", "label-free", "input-free"])
def test_a_zero_budget_runs_nothing_in_every_mode(source, target,
                                                  constraint):
    cfg = SearchConfig(seed=1, n_start=0)
    program = parse(source)
    for result in (run_coverage(program, "f", cfg),
                   run_path(program, "f", target, cfg),
                   run_bva(program, "f", cfg),
                   check_sat(parse_constraint(constraint), cfg)):
        assert (_counts(result), result.inputs) == ((0, 0, 0), []), result.mode
