"""The C build of a hot source (mexec.native) against its specification,
the Python flavour: values, line searches and whole runs are the same on
both backends, and without a working compiler every source stays on
Python with the same results.  The tests that build skip without `cc`.

To keep the builds few, each test builds the sources it needs in one
`cc` call (native.build), and the shipped programs' sources are built
once for the module.
"""

import importlib.util
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_driver
import test_trajectory
from conftest import BENCH, backend
from mexec import native, optimize
from mexec.driver import (
    SPECIALS, SearchConfig, run_bva, run_coverage, run_path,
)
from mexec.interp import (
    _KEEP, _RESET, _TOWARD_F, _TOWARD_T, CompiledProgram, bva_config,
    coverage_config, path_config, plain_config,
)
from mexec.lang import parse
from mexec.optimize import (
    BRACKET_GROWTH, SENTINEL, LocalMinConfig, MCMCConfig, Objective,
    basinhopping, powell_minimize,
)
from mexec.satcheck import check_sat, compile_constraint, parse_constraint
from test_engine import (
    BUDGETS, EDGE_SEARCHES, _ProgramGen,
    assert_searches_match_the_specification, constraints, inputs,
)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")

ROOT = BENCH.parent
SHIPPED = sorted(BENCH.glob("*.mx")) + sorted(
    (ROOT / "perfbench" / "programs").glob("*/*.mx"))


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
# path targets: solve-mix's and deep-calls', the infeasible ones included
TARGETS = {}
for _mode, _source, _n, _target in WORKLOADS.SOLVE_ROUND:
    if _mode == "path" and _target not in TARGETS.get(_source, []):
        TARGETS.setdefault(_source, []).append(_target)
for _name, _depth in WORKLOADS.DEEP.items():
    _top = _depth + 3
    TARGETS[_name] = [((_top, "T"),), ((_top, "F"),),
                      ((_top, "T"), (_top - 1, "F"))]
SOLVE_CONSTRAINTS = sorted({source for mode, source, _n, _t
                            in WORKLOADS.SOLVE_ROUND if mode == "sat"})

# coordinates every value test evaluates: the specials of the search,
# signed zeros, subnormals, infinities, NaN and the default box's edges
EDGES = tuple(SPECIALS) + (
    -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan,
    -1e3, 1e3, 0.5, -2.5, 3.0)


def _parse_shipped():
    return {path.stem: parse(path.read_text(encoding="utf-8"))
            for path in SHIPPED}


def _configs(name):
    yield coverage_config()
    yield bva_config()
    for target in TARGETS.get(name, []):
        yield path_config(target)


# a step budget above every loop-free shipped program's run bound, so
# that those sources are the unguarded ones the searches run, but low
# enough that loop_guard's Python flavour reaches it soon
VALUE_BUDGET = 100_000


def _compiled(program, cfg, entry=None):
    return CompiledProgram(program, cfg, entry, VALUE_BUDGET)


@pytest.fixture(scope="module")
def shipped():
    """The shipped programs, each source of their coverage, bva and path
    modes built in one `cc` call."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    programs = _parse_shipped()
    hots = {id(hot): hot for name, program in programs.items()
            for cfg in _configs(name)
            for hot in [_compiled(program, cfg)._hot]}
    native.build(list(hots.values()))
    assert all(hot.lib for hot in hots.values())
    return programs


def on_python(fn, arity, box):
    """An Objective of the RepresentingFunction `fn` on its Python
    runner, whatever its source's build."""
    with mock.patch.object(fn.hot, "lib", None), backend("python"):
        objective = Objective(fn, arity, box)
    assert objective._line.__module__ != native.__name__
    return objective


def on_c(fn, arity, box):
    """An Objective of `fn` on the C build of its source."""
    objective = Objective(fn, arity, box)
    assert objective._line.__module__ == native.__name__
    return objective


def points(arity, rng, count=30):
    """Each edge coordinate in each place, the others random, then
    random points of both signs and all magnitudes."""
    def coordinate():
        if rng.random() < 0.5:
            return rng.uniform(-1e3, 1e3)
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
    out = []
    for i in range(arity):
        for edge in EDGES:
            point = [coordinate() for _ in range(arity)]
            point[i] = edge
            out.append(point)
    out += [[coordinate() for _ in range(arity)] for _ in range(count)]
    return out


def assert_same_values(fn, arity, rng):
    """`fn` at the points, each asked twice in a row so that the runner's
    last point answers the second, in the default box and unboxed: the
    repr of every value and the counts agree."""
    for box in ([(-1e3, 1e3)] * arity, None):
        py, c = on_python(fn, arity, box), on_c(fn, arity, box)
        for x in points(arity, rng):
            for _ in range(2):
                assert repr(py(x)) == repr(c(x)), x
            assert ((py.eval_count, py.reuse_count)
                    == (c.eval_count, c.reuse_count)), x


TABLES = {
    "reset": lambda n, rng: (_RESET,) * n,
    "keep": lambda n, rng: (_KEEP,) * n,
    "toward T": lambda n, rng: (_TOWARD_T,) * n,
    "toward F": lambda n, rng: (_TOWARD_F,) * n,
    "mixed": lambda n, rng: tuple(rng.choice((_RESET, _KEEP, _TOWARD_T,
                                              _TOWARD_F)) for _ in range(n)),
}


# -- the step budget

@needs_cc
def test_the_step_budget_aborts_on_the_same_evaluations():
    """Every budget up to past the longest run: each evaluation aborts on
    the C build exactly where the Python flavour's count passes it.
    First in this module, so that a C runner that drops a step count
    fails here before a runaway loop of a later test can hang."""
    program = parse("real f(real x) { real i = 0; real s = 0; "
                    "while (i < x) { s = s + i; i++; } "
                    "if (s > 20) { return 1; } return s; }")
    compiled = [CompiledProgram(program, coverage_config(), step_budget=b)
                for b in range(1, 40)]
    # one source serves every budget
    assert len({id(c._hot) for c in compiled}) == 1
    native.build([compiled[0]._hot])
    for c in compiled:
        fn = c.objective()
        fn.table = (_TOWARD_T, _TOWARD_F)
        py, cc = on_python(fn, 1, None), on_c(fn, 1, None)
        for x in range(12):
            assert repr(py([float(x)])) == repr(cc([float(x)]))


# -- values

@needs_cc
@pytest.mark.parametrize("table", sorted(TABLES))
def test_coverage_values_match_on_both_backends(shipped, table):
    rng = random.Random(table)
    for name, program in shipped.items():
        compiled = _compiled(program, coverage_config())
        fn = compiled.objective()
        fn.table = TABLES[table](program.num_conditionals, rng)
        assert_same_values(fn, compiled.arity, rng)


@needs_cc
def test_path_and_bva_values_match_on_both_backends(shipped):
    rng = random.Random(2)
    for name, program in shipped.items():
        for cfg in _configs(name):
            if cfg.mode != "coverage":
                compiled = _compiled(program, cfg)
                assert_same_values(compiled.objective(), compiled.arity, rng)


# the builtins, each under a test of its selector `k` and probed on both
# words of its value: a value that differs in sign, NaN-ness or a bit
# shows in the sum a path target through them takes
BUILTIN_PROBES = ["sin(x)", "cos(x)", "tan(x)", "exp(x)", "log(x)",
                  "sqrt(x)", "fabs(x)", "floor(x)", "pow(x, y)", "x ^ y",
                  "x / y", "hiword(x)", "loword(y)"]


@needs_cc
def test_builtins_keep_the_python_semantics_in_c():
    program = parse("real probe(real x, real y, real k) { " + " ".join(
        f"if (k == {i}) {{ if (hiword({e}) == 0) {{}} "
        f"if (loword({e}) == 0) {{}} }}"
        for i, e in enumerate(BUILTIN_PROBES)) + " return 0; }")
    compiled = [CompiledProgram(program, path_config(
        [(3 * i + j, "T") for j in range(3)]))
        for i in range(len(BUILTIN_PROBES))]
    native.build([compiled[0]._hot])
    grid = [(x, y) for x in EDGES + (-1.5, 710.0, -745.5, 1e-3)
            for y in EDGES + (-1.0, -2.0, 3.0, -3.0)]
    for i, c in enumerate(compiled):
        fn = c.objective()
        py, cc = on_python(fn, 3, None), on_c(fn, 3, None)
        for x, y in grid:
            assert (repr(py([x, y, float(i)]))
                    == repr(cc([x, y, float(i)]))), (BUILTIN_PROBES[i], x, y)


@needs_cc
def test_constraint_values_match_on_both_backends():
    rng = random.Random(4)
    fns = [compile_constraint(parse_constraint(text)).fn
           for text in SOLVE_CONSTRAINTS + ["1 < 2", "x != y && 1/x < y"]]
    native.build([fn.hot for fn in fns])
    for fn in fns:
        assert_same_values(fn, fn.arity, rng)


@needs_cc
@settings(max_examples=2)
@given(st.lists(constraints(), min_size=8, max_size=8))
def test_drawn_constraint_values_match_on_both_backends(cases):
    fns = [compile_constraint(constraint).fn for constraint, _x in cases]
    native.build([fn.hot for fn in fns])
    rng = random.Random(len(cases))
    for (constraint, x), fn in zip(cases, fns):
        py = on_python(fn, fn.arity, None)
        c = on_c(fn, fn.arity, None)
        for point in [x] + points(fn.arity, rng, 5):
            assert repr(py(point)) == repr(c(point)), (constraint.text, point)


@st.composite
def guarded_programs(draw):
    """Eight random programs with while loops and recursion, each with a
    mode and a step budget: the sources that keep their guards."""
    out = []
    for _ in range(8):
        program = parse(_ProgramGen(draw).program())
        labels = program.num_conditionals
        mode = draw(st.sampled_from(("coverage", "path", "bva", "plain")))
        if mode == "coverage":
            cfg = coverage_config()
        elif mode == "path":
            cfg = path_config([(draw(st.integers(0, labels - 1)),
                                draw(st.sampled_from("TF")))
                               for _ in range(draw(st.integers(0, 3)))]
                              if labels else [])
        else:
            cfg = bva_config() if mode == "bva" else plain_config()
        budget = draw(st.sampled_from(BUDGETS))
        arity = len(program.functions[-1].params)
        x = draw(st.lists(inputs, min_size=arity, max_size=arity))
        table = draw(st.lists(st.sampled_from((_RESET, _KEEP, _TOWARD_T,
                                               _TOWARD_F)),
                              min_size=labels, max_size=labels))
        out.append((CompiledProgram(program, cfg, step_budget=budget),
                    tuple(table), x))
    return out


@needs_cc
@settings(max_examples=2)
@given(guarded_programs())
def test_drawn_programs_match_on_both_backends(cases):
    native.build([compiled._hot for compiled, _table, _x in cases])
    rng = random.Random(len(cases))
    for compiled, table, x in cases:
        fn = compiled.objective()
        if compiled.cfg.mode == "coverage":
            fn.table = table
        py = on_python(fn, compiled.arity, None)
        c = on_c(fn, compiled.arity, None)
        for point in [x] + points(compiled.arity, rng, 5):
            assert repr(py(point)) == repr(c(point)), point
        assert py.eval_count == c.eval_count


# -- line searches

@needs_cc
def test_line_searches_match_on_both_backends(shipped):
    """10,400 line searches of k_cos's coverage objective in four
    saturation states: equal (t, f, above), requests and reuses."""
    rng = random.Random(11)
    compiled = CompiledProgram(shipped["k_cos"], coverage_config())
    box = [(-1e3, 1e3)] * 2
    done = 0
    for table in ((_RESET,) * 4, (_TOWARD_T, _TOWARD_F, _TOWARD_T, _RESET),
                  (_TOWARD_F, _KEEP, _TOWARD_F, _TOWARD_T),
                  (_KEEP, _TOWARD_T, _RESET, _TOWARD_F)):
        fn = compiled.objective()
        fn.table = table
        py, c = on_python(fn, 2, box), on_c(fn, 2, box)
        for _ in range(2600):
            x = [rng.choice(EDGES) if rng.random() < 0.2
                 else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 3)
                 for _ in range(2)]
            d = [rng.choice((0.0, -0.0, 1.0, -1.0, 1e-9, 1e150,
                             rng.uniform(-2.0, 2.0))) for _ in range(2)]
            xtol = rng.choice((1e-8, 1e-3, 0.0))
            outcomes = []
            for objective in (py, c):
                f0 = objective(x)
                outcomes.append((repr(objective._search(
                    x, d, f0, xtol, BRACKET_GROWTH)),
                    objective.eval_count, objective.reuse_count))
            assert outcomes[0] == outcomes[1], (table, x, d, xtol)
            done += 1
    assert done >= 10_000


@needs_cc
def test_edge_searches_match_the_specification_in_c():
    """test_engine's runaway bracketings, Brent's round limit, signed
    zeros, box edges and NaN payloads: the C search gives what the
    Python specification gives on the same runner."""
    fns = {text: compile_constraint(parse_constraint(text)).fn
           for text, *_ in EDGE_SEARCHES}
    native.build([fn.hot for fn in fns.values()])
    for text, box, lines, xtol, _requests in EDGE_SEARCHES:
        fn = fns[text]
        on_c(fn, fn.arity, box)
        assert_searches_match_the_specification(
            fn, fn.arity, box, lines, LocalMinConfig(xtol=xtol))


# -- Powell and basinhopping

# constraints whose Powell runs reach a sentinel plateau (an abort at
# every point a line search from a negative x asks), a root after a
# line search, many rounds with extrapolated directions and resets, and
# unboxed, a runaway bracketing upward and, from a negative start
# (its mid then above its lo), downward
POWELL_CONSTRAINTS = ["sqrt(x) > 2 && y < 1", "log(x) == 1",
                      "100*(y - x*x)*(y - x*x) + (1 - x)*(1 - x) == 0",
                      "x == 3", "x == 1e30", "1/(1 + x*x) == 0"]
POWELL_TABLES = ("reset", "toward T", "mixed")


class _Recorded(dict):
    """A line-search record that counts the searches it answers."""

    hits = 0

    def get(self, key):
        value = super().get(key)
        self.hits += value is not None
        return value


def _on(fn, arity, box, backend_name):
    """A fresh Objective of `fn` on the backend named: the driver's,
    boxed and marked nonnegative, or `_plain`'s, unboxed and not."""
    def make():
        return Objective(fn, arity, box, nonnegative=box is not None)
    if backend_name == "python":
        with mock.patch.object(fn.hot, "lib", None), backend("python"):
            objective = make()
        objective.searches = _Recorded()
        assert objective._powell is None
    else:
        objective = make()
        assert objective._powell is not None
    return objective


def _records(objective):
    if objective._powell is None:
        return len(objective.searches)
    return objective._powell.run.nrec


def _outcome(objective, result):
    return (repr(result), objective.eval_count, objective.reuse_count,
            _records(objective))


@pytest.fixture(scope="module")
def powell_constraints():
    """The representing functions of the solve-mix and plateau
    constraints, built in one `cc` call."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    fns = {text: compile_constraint(parse_constraint(text)).fn
           for text in SOLVE_CONSTRAINTS + POWELL_CONSTRAINTS}
    native.build([fn.hot for fn in fns.values()])
    return fns


def _powell_objectives(shipped, powell_constraints, rng):
    """(RepresentingFunction, arity) of every shipped program in
    coverage under several tables, in path and in bva, and of the
    solve-mix and plateau constraints, each source built."""
    out = []
    for name, program in shipped.items():
        for cfg in _configs(name):
            compiled = _compiled(program, cfg)
            for table in (POWELL_TABLES if cfg.mode == "coverage"
                          else [None]):
                fn = compiled.objective()
                if table:
                    fn.table = TABLES[table](program.num_conditionals, rng)
                out.append((fn, compiled.arity))
    return out + [(fn, fn.arity) for fn in powell_constraints.values()]


@needs_cc
def test_powell_and_basinhopping_match_on_both_backends(shipped,
                                                        powell_constraints):
    """Whole powell_minimize and basinhopping calls, boxed and unboxed,
    from edge and random starts: equal (x, f) by repr, counts and
    number of records.  The Python runs reach each case the C Powell
    writes again: a root at the start and after a line search, a
    sentinel plateau, a search answered from the record, a bracket
    whose mid is above its lo (3 held values), an extrapolated direction
    and a reset of the directions after 2n rounds."""
    rng = random.Random(7)
    seen = dict.fromkeys(("root at start", "root after a search",
                          "plateau", "record", "mid above lo",
                          "extrapolated", "reset"), 0)
    line_minimize = optimize._line_minimize
    searches = [0]

    def spied(f, x, direction, cfg):
        searches[0] += 1
        seen["extrapolated"] += sorted(direction) != sorted(
            [1.0] + [0.0] * (len(x) - 1))
        new_x, fx, decrease = line_minimize(f, x, direction, cfg)
        # Powell squares differences of these values under its guard of
        # 1e150, so, in [0, SENTINEL], the squares stay below 1e300:
        # Python's OverflowError from `**` cannot arise on a bound
        # objective, and the C Powell has none to copy
        assert 0.0 <= fx <= SENTINEL and decrease >= 0.0
        return new_x, fx, decrease

    def spied_search(search):
        def run(*args):
            t, ft, above = search(*args)
            seen["mid above lo"] += above
            return t, ft, above
        return run

    for fn, arity in _powell_objectives(shipped, powell_constraints, rng):
        if not arity:
            continue
        for box in ([(-1e3, 1e3)] * arity, None):
            # and from a negative start, which a downward runaway needs
            for start in rng.sample(points(arity, rng, 4), 2) + [
                    [-2.5] * arity]:
                py, c = _on(fn, arity, box, "python"), _on(fn, arity, box,
                                                           "c")
                py._search = spied_search(py._search)
                searches[0] = 0
                with mock.patch.object(optimize, "_line_minimize", spied):
                    x, f = powell_minimize(py, start)
                assert (_outcome(c, powell_minimize(c, start))
                        == _outcome(py, (x, f))), (start, box)
                if box is not None and f == 0.0:
                    seen["root at start" if py.eval_count == 1
                         else "root after a search"] += 1
                seen["plateau"] += f == SENTINEL
                seen["record"] += py.searches.hits
                # at most n + 1 line searches a round: more than 2n
                # rounds' worth means a round ran on the reset axes
                seen["reset"] += searches[0] > 2 * arity * (arity + 1)
            seed = rng.random()
            py, c = _on(fn, arity, box, "python"), _on(fn, arity, box, "c")
            start = points(arity, rng, 1)[-1]
            cfg = MCMCConfig(n_iter=2)
            assert (_outcome(c, basinhopping(c, start, cfg,
                                             random.Random(seed)))
                    == _outcome(py, basinhopping(py, start, cfg,
                                                 random.Random(seed))))
    assert all(seen.values()), seen


# Powell settings at their edges; the last two run twice on one
# objective from one start, so a record keyed without xtol answers the
# second from the first
POWELL_SETTINGS = [
    [LocalMinConfig(max_rounds=0)], [LocalMinConfig(ftol=0)],
    [LocalMinConfig(max_rounds=10 ** 30)], [LocalMinConfig(xtol=0)],
    [LocalMinConfig(xtol=Fraction(1, 10 ** 6), ftol=Fraction(1, 3))],
    [LocalMinConfig(xtol=1e-8), LocalMinConfig(xtol=1e-3)],
]


@needs_cc
@pytest.mark.parametrize("cfgs", POWELL_SETTINGS, ids=range(
    len(POWELL_SETTINGS)))
def test_powell_settings_match_on_both_backends(shipped, powell_constraints,
                                                cfgs):
    rng = random.Random(8)
    compiled = _compiled(shipped["k_cos"], coverage_config())
    cover = compiled.objective()
    cover.table = TABLES["mixed"](shipped["k_cos"].num_conditionals, rng)
    fns = [cover] + [powell_constraints[text] for text in
                     POWELL_CONSTRAINTS[2:] + SOLVE_CONSTRAINTS[:1]]
    for fn in fns:
        arity = fn.arity
        for box in ([(-1e3, 1e3)] * arity, None):
            for start in rng.sample(points(arity, rng, 2), 2):
                py, c = _on(fn, arity, box, "python"), _on(fn, arity, box,
                                                           "c")
                for cfg in cfgs:
                    assert (_outcome(c, powell_minimize(c, start, cfg))
                            == _outcome(py, powell_minimize(py, start, cfg)))


# restarts of one hot source in a fresh process, each Powell growing a
# record of about 20 KB: the resident set after 800 more of them
RSS_SCRIPT = """
import os
from mexec import native
from mexec.optimize import Objective, powell_minimize
from mexec.satcheck import compile_constraint, parse_constraint

fn = compile_constraint(parse_constraint(%r)).fn
native.build([fn.hot])


def restarts(count):
    for i in range(count):
        objective = Objective(fn, 2, [(-1e3, 1e3)] * 2, nonnegative=True)
        powell_minimize(objective, [i / 7.0, -3.0])
    return objective._powell.run.cap


def resident():
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


restarts(200)
before = resident()
print(restarts(800), resident() - before)
""" % POWELL_CONSTRAINTS[2]


@needs_cc
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the resident set from /proc")
def test_the_record_is_freed_with_its_objective():
    done = subprocess.run([sys.executable, "-c", RSS_SCRIPT],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(ROOT / "src"),
                               "PATH": os.environ["PATH"]})
    slots, growth = map(int, done.stdout.split())
    # 800 records of this size kept would be over 15 MB
    assert slots * 800 * 88 > 15e6
    assert growth < 3e6


# -- whole runs

def _summary(result):
    out = {"inputs": [[repr(v) for v in x] for x in result.inputs],
           "counts": (result.eval_count, result.run_count,
                      result.starts_used),
           "found": result.found and [repr(v) for v in result.found],
           "verdict": result.verdict, "residual": repr(result.residual),
           "model": result.model and [repr(v) for v in result.model]}
    if result.state is not None:
        out["infeasible"] = sorted(result.state.infeasible)
    return out


def _runs(programs, constraints, seeds=(1, 2, 3)):
    """Cover, bva and path on every shipped program and sat on
    solve-mix's constraints, at small restart budgets."""
    out = {}
    for seed in seeds:
        cfg = SearchConfig(seed=seed, n_start=3)
        for name, program in programs.items():
            entry = program.functions[-1].name
            out[name, "cover", seed] = run_coverage(program, entry, cfg)
            out[name, "bva", seed] = run_bva(program, entry, cfg)
            for target in TARGETS.get(name, []):
                out[name, target, seed] = run_path(program, entry, target,
                                                   cfg)
        for constraint in constraints:
            out[constraint.text, "sat", seed] = check_sat(constraint, cfg)
    return {key: _summary(result) for key, result in out.items()}


def _constraints():
    return [parse_constraint(text) for text in SOLVE_CONSTRAINTS]


@needs_cc
def test_whole_runs_match_on_both_backends(shipped):
    constraints = _constraints()
    native.build([compile_constraint(c).fn.hot for c in constraints])
    with backend("c"):
        in_c = _runs(shipped, constraints)
    with backend("python"):
        in_python = _runs(_parse_shipped(), _constraints())
    assert in_c.keys() == in_python.keys()
    for key in in_c:
        assert in_c[key] == in_python[key], key


# -- the count pins of test_trajectory and test_driver, in C

def _all_built(owner):
    hots = [v for k, v in owner._memo.items()
            if k == "native" or (isinstance(k, tuple) and k[0] == "native")]
    return bool(hots) and all(hot.lib for hot in hots)


@needs_cc
@pytest.mark.parametrize("mode, name, target, seed, n_start, expected",
                         test_trajectory.RUNS,
                         ids=[f"{r[0]}-{r[1]}-{r[3]}"
                              for r in test_trajectory.RUNS])
def test_program_mode_trajectory_in_c(mode, name, target, seed, n_start,
                                      expected):
    made = []
    load = test_trajectory.load

    def loaded(file):
        made.append(load(file))
        return made[-1]
    with backend("c"), mock.patch.object(test_trajectory, "load", loaded):
        test_trajectory.test_program_mode_trajectory(
            mode, name, target, seed, n_start, expected)
    assert _all_built(made[0])


@needs_cc
def test_cover_trajectory_under_a_narrow_box_in_c():
    with backend("c"):
        test_trajectory.test_cover_trajectory_under_a_narrow_box()


@needs_cc
@pytest.mark.parametrize("text, seed, n_start, box, expected",
                         test_trajectory.SATS,
                         ids=[r[0] for r in test_trajectory.SATS])
def test_sat_trajectory_in_c(text, seed, n_start, box, expected):
    with backend("c"):
        test_trajectory.test_sat_trajectory(text, seed, n_start, box,
                                            expected)


@needs_cc
def test_kernel_cos_counts_in_c(k_cos):
    with backend("c"):
        test_driver.test_kernel_cos_counts_every_request_and_runs_two_thirds(
            k_cos)
    assert _all_built(k_cos)


# -- fallback and hygiene

def _kernel_cos_runs():
    program = parse((BENCH / "k_cos.mx").read_text(encoding="utf-8"))
    results = [_summary(run_coverage(program, "kernel_cos",
                                     SearchConfig(seed=seed, n_start=40)))
               for seed in (1, 2)]
    return results, program


@pytest.fixture(scope="module")
def python_kernel_cos():
    with backend("python"):
        return _kernel_cos_runs()[0]


def _fallback(python_kernel_cos):
    """k_cos's runs with its sources hot from the first restart: the
    Python results, the one source's build tried once and left off."""
    builds = mock.patch.object(native, "build", wraps=native.build)
    with backend("c"), builds as build:
        results, program = _kernel_cos_runs()
    assert results == python_kernel_cos
    assert build.call_count == 1
    hot, = [v for k, v in program._memo.items() if k[0] == "native"]
    assert hot.lib is False


def _counting_cc():
    return mock.patch.object(subprocess, "Popen", wraps=subprocess.Popen)


def test_without_a_compiler_every_source_stays_on_python(
        monkeypatch, tmp_path, python_kernel_cos):
    monkeypatch.setenv("PATH", str(tmp_path))
    with _counting_cc() as cc:
        _fallback(python_kernel_cos)
    assert cc.call_count == 0


@needs_cc
def test_a_failing_build_leaves_the_source_on_python(
        monkeypatch, python_kernel_cos):
    monkeypatch.setattr(native, "CFLAGS",
                        native.CFLAGS + ("-fno-such-option",))
    with _counting_cc() as cc:
        _fallback(python_kernel_cos)
    assert cc.call_count == 1


@needs_cc
def test_a_build_that_times_out_leaves_the_source_on_python(
        monkeypatch, python_kernel_cos):
    monkeypatch.setattr(native, "BUILD_TIMEOUT_S", 1e-4)
    with _counting_cc() as cc:
        _fallback(python_kernel_cos)
    assert cc.call_count == 1


@needs_cc
def test_a_build_leaves_no_temporary_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fn = compile_constraint(parse_constraint("x*x == 2")).fn
    native.build([fn.hot])
    assert fn.hot.lib
    assert list(tmp_path.iterdir()) == []
    # the library stays loaded after its file is gone
    assert on_c(fn, 1, None)([3.0]) == 49.0


def test_importing_mexec_loads_neither_ctypes_nor_subprocess():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, mexec; print(sorted("
         "{'ctypes', 'subprocess', 'mexec.native'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")})
    assert done.stdout.strip() == "[]"


@needs_cc
def test_an_input_float_rejects_raises_the_same_on_both_backends():
    fn = compile_constraint(parse_constraint("x < 1")).fn
    native.build([fn.hot])
    for objective in (on_python(fn, 1, None), on_c(fn, 1, None)):
        with pytest.raises(OverflowError, match="int too large"):
            objective([10 ** 400])
        assert objective.eval_count == 0
        assert objective([2]) == 1.000001
