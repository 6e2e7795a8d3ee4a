"""Golden search trajectories.

For fixed seeds, each mode must admit exactly the same inputs after
exactly the same number of evaluations and restarts, deem the same
branches infeasible and give the same verdict and residual.  Floats are
compared through `repr`, so a change in the last bit of any admitted
input fails here.  A pure refactor or speed-up of the search must keep
every value below; a deliberate change to the search records new ones
and says why.  Each case runs twice in one process, first on a freshly
parsed program or constraint, whose code that run compiles, and then on
the code it kept there.
"""

import pytest

from mexec.driver import SearchConfig, run_bva, run_coverage, run_path
from mexec.lang import parse
from mexec.satcheck import check_sat, parse_constraint
from mexec.transforms import prepare

from conftest import counting_compiles, load


def cold_then_warm(run):
    """`run` on a freshly parsed program or constraint, then again on
    the code the first run compiled and kept on it."""
    with counting_compiles() as compile_:
        yield run()
        assert compile_.called
        compile_.reset_mock()
        yield run()
        assert not compile_.called


def _summary(result):
    out = {"inputs": [[repr(v) for v in x] for x in result.inputs],
           "eval_count": result.eval_count,
           "starts_used": result.starts_used}
    if result.mode == "cover":
        out["infeasible"] = sorted(result.state.infeasible)
        out["covered"] = sorted(result.state.covered)
    if result.mode == "path":
        out["found"] = (None if result.found is None
                        else [repr(v) for v in result.found])
    return out


# (mode, benchmark, path target, seed, n_start, expected summary)
RUNS = [
    ('cover', 'foo_infeasible', None, 5, 40,
     {'inputs': [['483.5739785214587'], ['-1000.0']],
      'eval_count': 1850,
      'starts_used': 5,
      'infeasible': [(1, 'T')],
      'covered': [(0, 'F'), (0, 'T'), (1, 'F')]}),
    ('cover', 'k_cos', None, 3, 500,
     {'inputs': [['88.45845059190378', '207.8400771923889'],
                 ['0.03989791318497282', '674.9381641929199'],
                 ['0.7174103946809964', '-1.4391448684616207e-18'],
                 ['-1.48285565627241e-09', '269.721316570377']],
      'eval_count': 6495,
      'starts_used': 7,
      'infeasible': [(1, 'F')],
      'covered': [(0, 'F'),
                  (0, 'T'),
                  (1, 'T'),
                  (2, 'F'),
                  (2, 'T'),
                  (3, 'F'),
                  (3, 'T')]}),
    # the sampled start is a root: Powell returns after evaluating it
    ('path', 'k_cos', ((0, 'F'), (2, 'F'), (3, 'T')), 11, 8,
     {'inputs': [['119.5447721609919', '-2.454946656957589e-21']],
      'eval_count': 1,
      'starts_used': 1,
      'found': ['119.5447721609919', '-2.454946656957589e-21']}),
    ('path', 'foo_infeasible', ((1, 'T'),), 4, 4,
     {'inputs': [], 'eval_count': 2869, 'starts_used': 4, 'found': None}),
    ('bva', 'atan_like', None, 4, 4,
     {'inputs': [['-0.4375'], ['0.4375']],
      'eval_count': 400,
      'starts_used': 4}),
    ('bva', 'foo', None, 2, 6,
     {'inputs': [['2.0'], ['1.0'], ['-3.0']],
      'eval_count': 4618,
      'starts_used': 6}),
]


@pytest.mark.parametrize("mode, name, target, seed, n_start, expected", RUNS,
                         ids=[f"{r[0]}-{r[1]}-{r[3]}" for r in RUNS])
def test_program_mode_trajectory(mode, name, target, seed, n_start,
                                 expected):
    program = load(f"{name}.mx")
    entry = program.functions[-1].name
    cfg = SearchConfig(seed=seed, n_start=n_start)

    def run():
        if mode == "cover":
            return run_coverage(program, entry, cfg)
        if mode == "path":
            return run_path(program, entry, target, cfg)
        return run_bva(program, entry, cfg)

    for result in cold_then_warm(run):
        assert _summary(result) == expected


def test_cover_trajectory_under_a_narrow_box():
    # Powell's unit steps leave this box on nearly every line search, so
    # most evaluations clamp their point, some on both inputs
    program = load("k_cos.mx")
    cfg = SearchConfig(seed=3, n_start=60, box=[(-1.0, 1.0), (-1e-3, 1e-3)])
    for result in cold_then_warm(
            lambda: run_coverage(program, "kernel_cos", cfg)):
        assert _summary(result) == {
            'inputs': [['0.08845845059190371', '0.00020784007719238892'],
                       ['-0.8689422815203738', '0.00067493816419292'],
                       ['-0.5313380779066073', '-1.4391448684616207e-18'],
                       ['5.1946771328914565e-09', '0.000269721316570377']],
            'eval_count': 2802,
            'starts_used': 7,
            'infeasible': [(1, 'F')],
            'covered': [(0, 'F'), (0, 'T'), (1, 'T'), (2, 'F'), (2, 'T'),
                        (3, 'F'), (3, 'T')]}


# cover returns a single sample for a label-free or input-free entry
EARLY = [
    ('real id(real x) { return x; }',
     {'inputs': [['-253.3761372099159']],
      'eval_count': 0,
      'starts_used': 1,
      'infeasible': [],
      'covered': []}),
    ('real k() { if (1 < 2) { return 1; } return 0; }',
     {'inputs': [[]],
      'eval_count': 0,
      'starts_used': 1,
      'infeasible': [],
      'covered': [(0, 'T')]}),
]


@pytest.mark.parametrize("source, expected", EARLY)
def test_cover_early_return_trajectory(source, expected):
    program = prepare(parse(source))
    for result in cold_then_warm(lambda: run_coverage(
            program, program.functions[-1].name,
            SearchConfig(seed=9, n_start=5))):
        assert _summary(result) == expected
        assert [t.final_r for t in result.traces] == [0.0]


# (constraint, seed, n_start, box, expected result fields)
SATS = [
    ('1 + 1 == 2', 1, 3, None,
     {'verdict': 'sat',
      'model': [],
      'residual': '0.0',
      'eval_count': 1,
      'starts_used': 1}),
    ('1 < 0', 1, 3, None,
     {'verdict': 'unknown',
      'model': None,
      'residual': '1.000001',
      'eval_count': 1,
      'starts_used': 1}),
    ('x*y == 12 && x + y == 7', 1, 8, None,
     {'verdict': 'sat',
      'model': ['3.9999999999999987', '3.000000000000001'],
      'residual': '0.0',
      'eval_count': 3227,
      'starts_used': 1}),
    ('x*x == 2', 3, 4, None,
     {'verdict': 'unknown',
      'model': None,
      'residual': '1.9721522630525295e-31',
      'eval_count': 2850,
      'starts_used': 4}),
    ('a*b - c == 1 && a + b + c == 10', 7, 8, None,
     {'verdict': 'sat',
      'model': ['-0.7782530797492326',
                '53.115745943301214',
                '-42.33749286355198'],
      'residual': '0.0',
      'eval_count': 834,
      'starts_used': 1}),
    # narrow boxes, one pair per variable: every line search clamps
    ('x*y*z == 6 && x + y + z == 6 && x < y', 2, 8,
     [(-2.0, 2.0), (0.5, 3.0), (-1e-3, 4.0)],
     {'verdict': 'sat',
      'model': ['2.0', '2.9999999999999996', '1.0000000000000002'],
      'residual': '0.0',
      'eval_count': 2504,
      'starts_used': 1}),
    # no root inside the box: a + b >= 7 forces a*b >= 6 > 1 + c
    ('p*q - r == 1 && p + q + r == 10', 7, 8,
     [(0.0, 5.0), (1.0, 4.0), (-1.0, 3.0)],
     {'verdict': 'unknown',
      'model': None,
      'residual': '2.0',
      'eval_count': 12746,
      'starts_used': 8}),
]


@pytest.mark.parametrize("text, seed, n_start, box, expected", SATS,
                         ids=[s[0] for s in SATS])
def test_sat_trajectory(text, seed, n_start, box, expected):
    constraint = parse_constraint(text)
    for result in cold_then_warm(lambda: check_sat(
            constraint, SearchConfig(seed=seed, n_start=n_start, box=box))):
        model = (None if result.model is None
                 else [repr(v) for v in result.model])
        assert {"verdict": result.verdict, "model": model,
                "residual": repr(result.residual),
                "eval_count": result.eval_count,
                "starts_used": result.starts_used} == expected
