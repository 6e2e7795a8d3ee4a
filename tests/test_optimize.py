import dataclasses
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import no_search_record

from mexec import optimize
from mexec.errors import ArityMismatch, InvalidBracket, MexecError
from mexec.optimize import (
    LocalMinConfig, MCMCConfig, Objective, SENTINEL, _bracket,
    _line_minimize, basinhopping, brent_line_min, metropolis_accept,
    powell_minimize,
)


def test_objective_sanitizes_nan_and_inf():
    obj = Objective(lambda x: math.nan, 1)
    assert obj([0.0]) == SENTINEL
    obj = Objective(lambda x: math.inf, 1)
    assert obj([0.0]) == SENTINEL
    assert obj.eval_count == 1
    for value in (-math.inf, 1e305):
        assert Objective(lambda x: value, 1)([0.0]) == SENTINEL


def test_powell_on_a_plain_nan_function_returns_the_start_at_the_sentinel():
    """Wrapped in an Objective, a plain function that is NaN everywhere
    is the sentinel everywhere: no line search decreases it, and Powell
    stops after one round at its start."""
    calls = []

    def f(x):
        calls.append(list(x))
        return math.nan

    assert powell_minimize(f, [1.0]) == ([1.0], SENTINEL)
    assert len(calls) == 40


def test_brent_quadratic():
    t, ft = brent_line_min(lambda t: (t - 1.0) ** 2, (-10.0, 0.0, 10.0))
    assert t == pytest.approx(1.0, abs=1e-6)
    assert ft == pytest.approx(0.0, abs=1e-12)


def test_brent_absolute_value():
    t, _ = brent_line_min(abs, (-3.0, -1.0, 5.0))
    assert t == pytest.approx(0.0, abs=1e-6)


def test_brent_reaches_zero_plateau():
    def g(t):
        return 0.0 if t <= 1.0 else (t - 1.0) ** 2 + 1e-6

    _, ft = brent_line_min(g, (-2.0, 0.0, 3.0))
    assert ft == 0.0


def test_brent_rejects_bad_bracket():
    with pytest.raises(InvalidBracket):
        brent_line_min(lambda t: t * t, (0.0, 5.0, 1.0))
    with pytest.raises(InvalidBracket):
        brent_line_min(lambda t: t, (0.0, 1.0, 2.0))


def test_bracket_minimum_brackets_a_quadratic():
    g = lambda t: (t - 7.0) ** 2
    bracket = _bracket(g, 0.0, g(0.0), 1.0, 2.0, 80)
    assert all(ft == g(t) for t, ft in bracket)
    (lo, f_lo), (mid, f_mid), (hi, f_hi) = bracket
    assert lo <= mid <= hi
    assert f_mid <= f_lo and f_mid <= f_hi
    assert lo <= 7.0 <= hi


def _recorded(g):
    """g, and the list of the points it is called at, in order."""
    seen = []

    def call(t):
        seen.append(t)
        return g(t)
    return call, seen


def _outcome(call):
    try:
        return repr(call())
    except InvalidBracket as exc:
        return str(exc)


# one-dimensional shapes a line search meets: smooth and flat minima,
# kinks, steps, and values falling without bound
LINES = {
    "quadratic": lambda t: (t - 7.0) ** 2,
    "raised quadratic": lambda t: (t + 0.3) ** 2 + 1.0,
    "kink": lambda t: abs(t - 2.5),
    "step": lambda t: 0.0 if t > 4.0 else 1.0,
    "flat": lambda t: 1.0,
    "falling": lambda t: -t,
    "wavy": lambda t: math.sin(t) + 0.01 * t * t,
}


@pytest.mark.parametrize("t0, step, growth", [
    (0.0, 1.0, 2.0), (3.0, 0.5, 1.618), (-2.0, 1.0, 0.5),
    (0.0, 1.0, -1.0), (1.0, 2.0, -0.5)])
def test_bracket_minimum_requests_what_it_always_did(t0, step, growth):
    """Against the bracketing as written before it took a known value:
    the same bracket from the same requests, in the same order."""
    def reference(g):
        a, b = t0, t0 + step
        fa, fb = g(a), g(b)
        if fb > fa:
            a, b, fa, fb = b, a, fb, fa
        c = b + growth * (b - a)
        fc = g(c)
        expansions = 0
        while fc < fb:
            expansions += 1
            if expansions > 80:
                break
            a, b, c = b, c, c + growth * (c - b)
            fb, fc = fc, g(c)
        return (a, b, c) if a < c else (c, b, a)

    for g in LINES.values():
        g_new, new = _recorded(g)
        g_old, old = _recorded(g)
        bracket = _bracket(g_new, t0, g_new(t0), step, growth, 80)
        assert (repr(tuple(t for t, _ft in bracket))
                == repr(reference(g_old)))
        assert new == old


@settings(max_examples=200)
@given(st.sampled_from(list(LINES.values())),
       st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
       st.booleans())
def test_brent_with_the_bracket_values_matches_brent_without(g, ts, order):
    """The same minimum, or the same InvalidBracket, from the requests
    Brent makes without `values`, less those of its bracket check."""
    bracket = tuple(sorted(ts)) if order else tuple(ts)
    lo, mid, hi = bracket
    g_plain, plain = _recorded(g)
    g_known, known = _recorded(g)
    expected = _outcome(lambda: brent_line_min(g_plain, bracket))
    assert _outcome(lambda: brent_line_min(
        g_known, bracket, values=(g(lo), g(mid), g(hi)))) == expected
    checked = 0
    if lo <= mid <= hi and lo < hi:
        checked = 2 if g(mid) > g(lo) else 3
    assert known == plain[checked:]


def test_brent_with_values_raises_the_same_invalid_bracket():
    with pytest.raises(InvalidBracket, match="bad bracket ordering"):
        brent_line_min(lambda t: t * t, (0.0, 5.0, 1.0),
                       values=(0.0, 25.0, 1.0))
    with pytest.raises(InvalidBracket, match="midpoint is not lowest"):
        brent_line_min(lambda t: t, (0.0, 1.0, 2.0), values=(0.0, 1.0, 2.0))


def _line_minimize_of_every_request(f, x, direction, cfg, growth):
    """The line search that asks again for every value it needs: f at
    t = 0, then the bracketing from f at t = 0 again and Brent's own
    bracket check."""
    def g(t):
        return f([xi + t * di for xi, di in zip(x, direction)])
    f0 = g(0.0)
    (lo, _), (mid, _), (hi, _) = _bracket(g, 0.0, g(0.0), 1.0, growth, 80)
    try:
        t, ft = brent_line_min(g, (lo, mid, hi), cfg.xtol)
    except InvalidBracket:
        return list(x), f0, 0.0
    if ft >= f0:
        return list(x), f0, 0.0
    return [xi + t * di for xi, di in zip(x, direction)], ft, f0 - ft


def test_line_search_counts_every_request_and_runs_only_new_ones(
        monkeypatch):
    """Each line search requests, and counts, what the search of every
    request does, and runs only what it did not already hold, whatever
    the positive bracket growth."""
    x = [0.5, -1.0]
    cfg = LocalMinConfig()
    answered = set()
    for growth in (2.0, 1.618, 0.5):
        monkeypatch.setattr(optimize, "BRACKET_GROWTH", growth)
        for g in LINES.values():
            for direction in ([1.0, 0.0], [0.0, -0.5], [3.0, 1.0],
                              [-0.5, 0.0], [-0.0, 0.0]):
                def f(p):
                    calls.append(p)
                    return g(p[0] - 2.0 * p[1])
                calls = []
                reference, objective = Objective(f, 2), Objective(f, 2)
                expected = _line_minimize_of_every_request(
                    reference, x, direction, cfg, growth)
                calls = []
                assert (repr(_line_minimize(objective, x, direction, cfg))
                        == repr(expected))
                assert objective.eval_count == reference.eval_count
                assert (objective.run_count == len(calls)
                        < objective.eval_count)
                answered.add(objective.reuse_count)
    # the requests answered from the values held: the bracket's g(0)
    # and Brent's check of the bracket, which a positive growth keeps
    # ordered: 3 requests, or 2 when g(mid) > g(lo) already fails it (a
    # falling line on a negative direction stops at the expansion limit
    # with g(mid) > g(lo))
    assert answered == {3, 4}


def test_powell_counts_every_requested_evaluation_and_runs_fewer():
    calls = []

    def f(x):
        calls.append(list(x))
        return (x[0] - 1.0) ** 2 + abs(x[1] + 2.0)

    objective = Objective(f, 2)
    assert powell_minimize(objective, [10.0, 5.0]) == ([1.0, -2.0], 0.0)
    # the count of a search that runs every request
    assert objective.eval_count == 332
    assert objective.run_count == len(calls) == 308


def _root_at_the_start(x):
    return abs(x[0] - 1.0) + abs(x[1])


def test_a_nonnegative_objective_returns_at_a_root_start():
    """Marked nonnegative, an objective whose start is a root is
    evaluated once; unmarked, Powell runs its rounds to the same
    point."""
    marked = Objective(_root_at_the_start, 2, nonnegative=True)
    unmarked = Objective(_root_at_the_start, 2)
    assert (powell_minimize(marked, [1.0, 0.0])
            == powell_minimize(unmarked, [1.0, 0.0])
            == ([1.0, 0.0], 0.0))
    assert (marked.eval_count, marked.run_count) == (1, 1)
    assert (unmarked.eval_count, unmarked.run_count) == (128, 120)


def _flat_at_zero(x):
    # 0 on x[0] <= 1 while |x[1]| <= 10: the first axis search reaches it
    return max(0.0, x[0] - 1.0) ** 2 + max(0.0, abs(x[1]) - 10.0)


def test_a_nonnegative_objective_returns_after_the_line_search_that_hits_0():
    """The first line search reaches an exact 0, and the marked
    objective returns there, without a second line search or round; the
    unmarked one runs on to the same point."""
    marked = Objective(_flat_at_zero, 2, nonnegative=True)
    unmarked = Objective(_flat_at_zero, 2)
    assert (repr(powell_minimize(marked, [5.0, 0.0]))
            == repr(powell_minimize(unmarked, [5.0, 0.0]))
            == "([-8.999999760373292, 0.0], 0.0)")
    first = Objective(_flat_at_zero, 2)
    _line_minimize(first, [5.0, 0.0], [1.0, 0.0], LocalMinConfig())
    # f(x0), then the first line search alone
    assert marked.eval_count == 1 + first.eval_count == 46
    assert marked.run_count == 42
    assert (unmarked.eval_count, unmarked.run_count) == (219, 121)


def _signed_cube(x):
    # 0 at the start, and lower on the negative side
    return max(x[0] ** 3, -8.0)


def test_a_signed_function_is_not_stopped_at_0():
    """A plain function or an unmarked Objective with a zero crossing
    runs past its 0 at the start, with the result it always had; Powell
    runs the plain function in an Objective of its own, so it runs the
    unmarked one's evaluations.  Only a mark would stop it there."""
    calls = []

    def plain(x):
        calls.append(list(x))
        return _signed_cube(x)

    unmarked = Objective(_signed_cube, 1)
    expected = "([-5.999999880186646], -8.0)"
    assert repr(powell_minimize(plain, [0.0])) == expected
    assert repr(powell_minimize(unmarked, [0.0])) == expected
    assert (unmarked.eval_count, unmarked.run_count) == (132, 81)
    assert len(calls) == unmarked.run_count
    marked = Objective(_signed_cube, 1, nonnegative=True)
    assert powell_minimize(marked, [0.0]) == ([0.0], 0.0)
    assert marked.eval_count == 1


def test_basinhopping_on_a_plain_function_keeps_the_rule_off():
    calls = []

    def plain(x):
        calls.append(list(x))
        return _root_at_the_start(x)

    unmarked = Objective(_root_at_the_start, 2)
    cfg = MCMCConfig(n_iter=0)
    assert basinhopping(plain, [1.0, 0.0], cfg) == ([1.0, 0.0], 0.0)
    assert basinhopping(unmarked, [1.0, 0.0], cfg) == ([1.0, 0.0], 0.0)
    assert (unmarked.eval_count, unmarked.run_count) == (128, 120)
    assert len(calls) == unmarked.run_count


def _nan(payload):
    bits = struct.pack("Q", 0x7FF8000000000000 | payload)
    return struct.unpack("d", bits)[0]


# line searches that differ only in the sign of a zero, a NaN payload or
# xtol
DISTINCT_SEARCHES = [
    ([0.5, 0.0], [0.0, 1.0], LocalMinConfig()),
    ([0.5, -0.0], [0.0, 1.0], LocalMinConfig()),
    ([0.5, 0.0], [-0.0, 1.0], LocalMinConfig()),
    ([_nan(1), 0.0], [0.0, 1.0], LocalMinConfig()),
    ([_nan(2), 0.0], [0.0, 1.0], LocalMinConfig()),
    ([0.5, 0.0], [1.0, 0.0], LocalMinConfig()),
    ([0.5, 0.0], [1.0, 0.0], LocalMinConfig(xtol=1e-3)),
]


def test_the_record_answers_only_the_same_line_search():
    """On one objective, each distinct line search runs once and a
    repeat is answered from the record, with the result and the count of
    the search on a fresh objective."""
    def f(p):
        return abs(p[0] - math.pi) ** 1.5

    objective = Objective(f, 2)
    for again in (False, True):
        for x, direction, cfg in DISTINCT_SEARCHES:
            fresh = Objective(f, 2)
            expected = repr(_line_minimize(fresh, x, direction, cfg))
            requested, ran = objective.eval_count, objective.run_count
            result = _line_minimize(objective, x, direction, cfg)
            assert repr(result) == expected
            assert objective.eval_count - requested == fresh.eval_count
            assert objective.run_count - ran == (0 if again
                                                 else fresh.run_count)
    assert len(objective.searches) == len(DISTINCT_SEARCHES)
    # the results differ where the settings do
    assert len({repr(_line_minimize(Objective(f, 2), x, d, cfg))
                for x, d, cfg in DISTINCT_SEARCHES[-2:]}) == 2


def test_powell_answers_a_repeated_line_search_from_the_record():
    """Flat in its second input, the function makes Powell ask the same
    failed line search again: the record answers it, with the result and
    the count of the search that runs it again."""
    def run():
        calls = []

        def f(x):
            calls.append(list(x))
            return (x[0] - 1.0) ** 2

        objective = Objective(f, 2)
        result = powell_minimize(objective, [10.0, 5.0])
        return repr(result), objective.eval_count, len(calls)

    with no_search_record():
        without = run()
    assert without == ("([1.0, 5.0], 0.0)", 174, 158)
    result, eval_count, calls = run()
    assert (result, eval_count) == without[:2]
    assert calls == 119


def test_powell_1d_quadratic():
    x, fx = powell_minimize(Objective(lambda x: (x[0] - 1.0) ** 2, 1),
                            [10.0])
    assert x[0] == pytest.approx(1.0, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_powell_separable_quadratic():
    f = Objective(lambda x: x[0] ** 2 + 10.0 * x[1] ** 2, 2)
    x, fx = powell_minimize(f, [3.0, 3.0])
    assert x[0] == pytest.approx(0.0, abs=1e-5)
    assert x[1] == pytest.approx(0.0, abs=1e-5)


def test_powell_never_increases():
    def f(x):
        return math.sin(x[0]) + 0.01 * x[0] ** 2

    start = [17.0]
    x, fx = powell_minimize(Objective(f, 1), start)
    assert fx <= f(start)


def test_powell_piecewise_objective_reaches_a_root():
    # global structure of the two-sided square check: roots -3, 1, 2
    def f(x):
        v = x[0]
        return (((v + 1) ** 2 - 4) ** 2 if v <= 1.0
                else (v ** 2 - 4) ** 2)

    x, fx = powell_minimize(Objective(f, 1), [0.0])
    assert fx <= f([0.0])
    assert fx >= 0.0
    if fx < 1e-10:
        assert min(abs(x[0] + 3), abs(x[0] - 1), abs(x[0] - 2)) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.data())
def test_powell_convex_quadratic_rounds(n, data):
    center = [data.draw(st.floats(-5, 5)) for _ in range(n)]
    scales = [data.draw(st.floats(0.5, 4.0)) for _ in range(n)]

    def f(x):
        return sum(s * (xi - c) ** 2
                   for s, xi, c in zip(scales, x, center))

    cfg = LocalMinConfig(max_rounds=n + 2)
    x, fx = powell_minimize(Objective(f, n), [10.0] * n, cfg)
    for xi, c in zip(x, center):
        assert xi == pytest.approx(c, abs=1e-5)


def test_basinhopping_escapes_local_basin():
    def f(x):
        v = x[0]
        return (((v + 1) ** 2 - 4) ** 2 if v <= 1.0
                else (v ** 2 - 4) ** 2)

    rng = random.Random(0)
    found = False
    for attempt in range(20):
        x0 = [rng.uniform(-500.0, 500.0)]
        x, fx = basinhopping(
            Objective(f, 1, [(-1000.0, 1000.0)]), x0,
            MCMCConfig(n_iter=5, step_scale=50.0), rng)
        if fx < 1e-9:
            found = True
            break
    assert found
    assert min(abs(x[0] + 3), abs(x[0] - 1), abs(x[0] - 2)) < 1e-3


def test_basinhopping_constant_objective_accepts_proposals():
    f = Objective(lambda x: 1.0, 1)
    x, fx = basinhopping(f, [5.0], MCMCConfig(n_iter=5),
                         random.Random(1))
    assert fx == 1.0


def test_basinhopping_zero_iterations_equals_powell():
    f1 = Objective(lambda x: (x[0] - 1.0) ** 2, 1)
    f2 = Objective(lambda x: (x[0] - 1.0) ** 2, 1)
    bh_x, bh_f = basinhopping(f1, [10.0], MCMCConfig(n_iter=0),
                              random.Random(0))
    pw_x, pw_f = powell_minimize(f2, [10.0])
    assert bh_x == pw_x and bh_f == pw_f


def test_basinhopping_result_never_worse_than_start():
    f = Objective(lambda x: math.cos(x[0]) + 0.001 * x[0] ** 2, 1)
    x0 = [200.0]
    f_at_start = math.cos(200.0) + 0.001 * 200.0 ** 2
    _, fx = basinhopping(f, x0, MCMCConfig(n_iter=3), random.Random(2))
    assert fx <= f_at_start


def _far_plateau(x):
    # 0 on [99, 101]; near the start, a basin whose floor is 1
    v = x[0]
    return max(0.0, abs(v - 100.0) - 1.0) if v > 50.0 else 1.0 + v * v


def test_basinhopping_stops_at_the_first_exact_0_of_a_marked_objective(
        monkeypatch):
    """Marked, the search returns once its incumbent is an exact 0, here
    after the first iteration's Powell; unmarked, it runs every
    iteration on the same chain, and the first 0 stays its best."""
    powell = optimize.powell_minimize
    values = []

    def recorded(*args):
        result = powell(*args)
        values.append(result[1])
        return result

    monkeypatch.setattr(optimize, "powell_minimize", recorded)
    cfg = MCMCConfig(n_iter=20, step_scale=100.0, temperature=0.0)
    runs = {}
    for marked in (True, False):
        values = []
        f = Objective(_far_plateau, 1, nonnegative=marked)
        runs[marked] = (basinhopping(f, [3.0], cfg, random.Random(5)),
                        values)
    (best, stopped), (best_unmarked, ran) = runs[True], runs[False]
    assert stopped == [1.0, 1.0, 0.0]
    assert len(ran) == 1 + cfg.n_iter and ran[:3] == stopped
    assert best == best_unmarked and best[1] == 0.0


def test_seed_determinism():
    def make():
        return Objective(lambda x: math.sin(3 * x[0]) + 0.01 * x[0] ** 2, 1)

    a = basinhopping(make(), [7.0], MCMCConfig(n_iter=5), random.Random(42))
    b = basinhopping(make(), [7.0], MCMCConfig(n_iter=5), random.Random(42))
    assert a == b


def test_basinhopping_rejects_a_negative_or_nan_temperature():
    for temperature in (-1.0, -0.5, -math.inf, math.nan):
        f = Objective(lambda x: x[0] ** 2, 1)
        with pytest.raises(MexecError, match="bad temperature"):
            basinhopping(f, [3.0], MCMCConfig(temperature=temperature),
                         random.Random(0))
        assert f.eval_count == 0
    for temperature in (0.0, -0.0, math.inf):
        f = Objective(lambda x: x[0] ** 2, 1)
        _, fx = basinhopping(f, [3.0], MCMCConfig(
            n_iter=2, temperature=temperature), random.Random(0))
        assert fx < 1e-12


@pytest.mark.parametrize("local, name", [
    ({"max_rounds": 1.5}, "max_rounds"),
    ({"xtol": math.nan}, "xtol"),
])
def test_basinhopping_checks_its_local_settings_before_any_evaluation(
        local, name):
    f = Objective(lambda x: x[0] ** 2, 1)
    with pytest.raises(MexecError, match=f"^bad {name} "):
        basinhopping(f, [3.0], MCMCConfig(local=LocalMinConfig(**local)),
                     random.Random(0))
    assert f.eval_count == 0


@pytest.mark.parametrize("local, name", [
    ({"max_rounds": 1.5}, "max_rounds"),
    ({"max_rounds": -1}, "max_rounds"),
    ({"xtol": math.nan}, "xtol"),
    ({"xtol": math.inf}, "xtol"),
    ({"ftol": -1e-8}, "ftol"),
])
def test_powell_checks_its_settings_before_any_evaluation(local, name):
    f = Objective(lambda x: x[0] ** 2, 1)
    with pytest.raises(MexecError, match=f"^bad {name} "):
        powell_minimize(f, [3.0], LocalMinConfig(**local))
    assert f.eval_count == 0
    # the edges of each rule still run
    for edge in (LocalMinConfig(max_rounds=0), LocalMinConfig(xtol=0.0),
                 LocalMinConfig(ftol=0), None):
        assert powell_minimize(Objective(lambda x: x[0] ** 2, 1), [3.0],
                               edge)[1] <= 9.0


@pytest.mark.parametrize("kind, name, value, message", [
    (LocalMinConfig, "max_rounds", -1, "need at least 0"),
    (LocalMinConfig, "max_rounds", 1.5, "need an integer"),
    (LocalMinConfig, "xtol", -1e-8, "need a nonnegative finite number"),
    (LocalMinConfig, "ftol", math.inf, "need a nonnegative finite number"),
    (MCMCConfig, "n_iter", -1, "need at least 0"),
    (MCMCConfig, "n_iter", "5", "need an integer"),
    (MCMCConfig, "step_scale", math.nan, "need a nonnegative finite number"),
    (MCMCConfig, "temperature", -1.0, "need a nonnegative number"),
])
def test_a_bad_setting_raises_as_its_config_is_built(kind, name, value,
                                                     message):
    expected = f"bad {name} {value!r}, {message}"
    with pytest.raises(MexecError) as built:
        kind(**{name: value})
    assert str(built.value) == expected
    with pytest.raises(MexecError) as replaced:
        dataclasses.replace(kind(), **{name: value})
    assert str(replaced.value) == expected


def test_a_none_config_runs_the_defaults():
    def f(x):
        return (x[0] - 1.5) ** 2 + abs(x[1])

    def run(minimize, *args):
        objective = Objective(f, 2)
        return minimize(objective, [4.0, -3.0], *args), objective.eval_count

    assert (run(powell_minimize, None)
            == run(powell_minimize, LocalMinConfig()))
    assert (run(basinhopping, None, random.Random(3))
            == run(basinhopping, MCMCConfig(), random.Random(3)))


def test_metropolis_always_accepts_downhill():
    rng = random.Random(0)
    for _ in range(100):
        assert metropolis_accept(5.0, 1.0, 1.0, rng)


def test_metropolis_accepts_equal_values():
    rng = random.Random(0)
    for _ in range(100):
        assert metropolis_accept(1.0, 1.0, 1.0, rng)


def test_metropolis_ln2_gap_accepts_half_the_time():
    rng = random.Random(12345)
    gap = math.log(2.0)
    accepted = sum(metropolis_accept(1.0, 1.0 + gap, 1.0, rng)
                   for _ in range(10_000))
    assert accepted / 10_000 == pytest.approx(0.5, abs=0.05)


def test_metropolis_huge_gap_never_accepts():
    rng = random.Random(0)
    assert not any(metropolis_accept(0.0, 1e6, 1.0, rng)
                   for _ in range(1000))


def test_metropolis_at_zero_temperature_takes_the_limit():
    # exp(-gap / T) -> 1 for an equal value and 0 for a higher one; the
    # draw is made all the same, so the chain's random stream is that
    # of any other temperature
    cold, warm = random.Random(3), random.Random(3)
    for _ in range(100):
        assert metropolis_accept(1.0, 1.0, 0.0, cold)
        assert not metropolis_accept(0.0, 5e-324, 0.0, cold)
        assert metropolis_accept(2.0, 1.0, 0.0, cold)
        metropolis_accept(1.0, 1.0, 1.0, warm)
        metropolis_accept(0.0, 5e-324, 1.0, warm)
    assert cold.random() == warm.random()


def test_metropolis_accepts_only_a_draw_below_the_threshold():
    """At T = 0 a higher value has threshold 0, and a draw of exactly
    0.0 is not below it."""
    class Zero:
        def random(self):
            return 0.0

    assert not metropolis_accept(0.0, 1.0, 0.0, Zero())
    assert metropolis_accept(0.0, 0.0, 0.0, Zero())


def test_objective_point_of_another_length_is_an_arity_mismatch():
    objective = Objective(lambda x: x[0] + x[1], 2)
    for point in ([1.0], [1.0, 2.0, 3.0], []):
        with pytest.raises(ArityMismatch, match=f"got {len(point)}"):
            objective(point)
    assert objective.eval_count == 0
    assert objective([1.0, 2.0]) == 3.0
