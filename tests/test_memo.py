"""What a parsed program or constraint computes once and keeps: the
generated source and its code per entry, mode and flavour and the
descendant relation per entry; `parse` itself records the report totals.
A second mode call on the same Program generates and compiles nothing,
and keeping these changes no result: every evaluation on a shared
Program equals the same evaluation on a freshly parsed copy."""

import math
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

from mexec import interp
from mexec.cfg import build_cfg
from mexec.driver import SearchConfig, run_bva, run_coverage, run_path
from mexec.errors import UnknownFunction
from mexec.interp import (
    CompiledProgram, bva_config, coverage_config, execute, path_config,
    plain_config,
)
from mexec.lang import parse
from mexec.satcheck import _holds, check_sat, parse_constraint
from mexec.saturation import new_state, update_saturation

from conftest import counting_compiles

DEEP = Path(__file__).resolve().parent.parent / "perfbench/programs/deep"


@contextmanager
def generations():
    """The (mode, tracing) of every program or constraint source
    generated inside the block."""
    made = []

    class Spy(interp._Source):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append((self.mode, self.tracing))

    with mock.patch.object(interp, "_Source", Spy):
        yield made


def small_cfg(seed=3):
    return SearchConfig(n_start=6, seed=seed)


MODE_CALLS = {
    "cover": lambda p: run_coverage(p, "FOO", small_cfg()),
    "path": lambda p: run_path(p, "FOO", [(0, "T"), (1, "T")], small_cfg()),
    "bva": lambda p: run_bva(p, "FOO", small_cfg()),
    "execute": lambda p: execute(p, [1.0], coverage_config(),
                                 new_state(build_cfg(p, "FOO")),
                                 entry="FOO"),
}


@pytest.mark.parametrize("mode", MODE_CALLS)
def test_a_second_mode_call_on_a_program_generates_nothing(mode, foo):
    call = MODE_CALLS[mode]
    with generations() as first:
        call(foo)
    with generations() as second, counting_compiles() as compile_:
        call(foo)
    assert first
    assert second == []
    assert not compile_.called


def test_the_deep_calls_targets_of_one_dispatcher_generate_two_sources():
    program = parse((DEEP / "dispatch10.mx").read_text(encoding="utf-8"))
    top = 13
    with generations() as made:
        for target in (((top, "T"),), ((top, "F"),),
                       ((top, "T"), (top - 1, "F"))):
            run_path(program, "dispatch10", target,
                     SearchConfig(n_start=2, seed=7))
    assert sorted(made) == [("path", False), ("path", True)]


def test_a_second_sat_check_on_a_constraint_generates_nothing():
    constraint = parse_constraint("x + 1 == 3 && y <= x")
    with generations() as first:
        result = check_sat(constraint, small_cfg())
    with generations() as second, counting_compiles() as compile_:
        again = check_sat(constraint, small_cfg())
    assert (again.model, again.eval_count) == (result.model, result.eval_count)
    # the replays of candidate models reuse the one source too
    assert result.verdict == "sat"
    assert len(first) == 1
    assert second == []
    assert not compile_.called


def test_replays_of_a_constraint_exec_one_namespace():
    constraint = parse_constraint("x*y == 12 && x + y == 7")
    with mock.patch.object(interp, "_namespace",
                           wraps=interp._namespace) as namespaces:
        assert _holds(constraint, [3.0, 4.0])
        assert not _holds(constraint, [3.0, 5.0])
    assert namespaces.call_count == 1


def test_a_sat_check_execs_one_constraint_namespace():
    """The search's objective and the replay of its root run in the
    namespace the constraint's code is exec'd into once per check."""
    constraint = parse_constraint("x*y == 12 && x + y == 7")
    with mock.patch.object(interp, "_namespace",
                           wraps=interp._namespace) as namespaces:
        result = check_sat(constraint, SearchConfig(seed=1, n_start=8))
    assert result.verdict == "sat"
    assert namespaces.call_count == 1


def test_path_runs_on_one_program_share_one_cfg(foo):
    first = run_path(foo, "FOO", [(0, "T")], small_cfg())
    second = run_path(foo, "FOO", [(1, "F")], small_cfg(seed=4))
    assert first.graph is second.graph
    assert build_cfg(foo, "FOO") is first.graph


def test_report_totals_are_kept_and_read_only(foo):
    """`parse` sets the report's totals; nothing computes them later."""
    assert isinstance(foo.lines, frozenset) and foo.lines
    assert isinstance(foo.call_sites, frozenset) and foo.call_sites
    assert not foo._memo


def test_a_failed_build_keeps_nothing(foo):
    with pytest.raises(UnknownFunction):
        build_cfg(foo, "nope")
    assert ("cfg", "nope") not in foo._memo


TWO_ENTRIES = """
real g(real a) {
    if (a < 1) { return a; }
    return 2 * a;
}
real f(real x, real y) {
    if (x > y) {
        if (g(x) == 3) { return 1; }
    }
    while (y < x) { y = y + 1; }
    return g(y) + y;
}
"""

# per entry: points, a path target and branches covered before the run
ENTRIES = {
    "g": ([[0.5], [3.0], [1.0], [-1e300]], ((0, "F"),), [(0, "T")]),
    "f": ([[2.0, 1.0], [1.5, -3.0], [0.0, 0.0], [1e308, -1e308]],
          ((1, "T"), (0, "F"), (2, "F")), [(1, "F"), (3, "F")]),
}


def _configs(program, entry):
    _points, target, covered = ENTRIES[entry]
    state = update_saturation(new_state(build_cfg(program, entry)), covered)
    return [(coverage_config(), state), (path_config(target), None),
            (bva_config(), None), (plain_config(), None)]


def _fields(trace):
    return {name: repr(value) if isinstance(value, float) else value
            for name, value in vars(trace).items()}


def _compiled(program, entry, index):
    cfg, state = _configs(program, entry)[index]
    return CompiledProgram(program, cfg, entry, step_budget=40), state


def _run(compiled, state, tracing, x):
    if tracing:
        return _fields(compiled.trace(x, state))
    return repr(compiled.objective(state)(x))


def test_one_program_in_every_mode_and_flavour_matches_a_fresh_parse():
    shared = parse(TWO_ENTRIES)
    compiled = {(entry, index): _compiled(shared, entry, index)
                for entry in ENTRIES for index in range(4)}
    # interleaved: entries, modes and flavours alternate on the shared
    # program, each result checked against a program parsed anew
    for round_ in range(2):
        for index in range(4):
            for tracing in (round_ == 0, round_ != 0):
                for entry in ("f", "g"):
                    for x in ENTRIES[entry][0]:
                        fresh = _compiled(parse(TWO_ENTRIES), entry, index)
                        assert (_run(*compiled[entry, index], tracing, x)
                                == _run(*fresh, tracing, x))
                        # a compile of the shared program set up later
                        # reads the same kept source
                        later = _compiled(shared, entry, index)
                        assert (_run(*later, tracing, x)
                                == _run(*fresh, tracing, x))
    # a fast source per entry and mode, a tracing source per mode
    assert len([key for key in shared._memo if key[0] == "source"]) == 12


def test_the_entries_of_a_program_share_one_tracing_code_object():
    program = parse(TWO_ENTRIES)
    f, g = (CompiledProgram(program, plain_config(), entry)
            for entry in ("f", "g"))
    with counting_compiles() as compile_:
        assert f.trace([2.0, 1.0]).covered_calls
        assert g.trace([0.5]).path == [(0, "T")]
    assert compile_.call_count == 1
    assert (f._flavour(True)["f_g"].__code__
            is g._flavour(True)["f_g"].__code__)


def test_aborted_and_non_finite_evaluations_match_a_fresh_parse():
    shared = parse(TWO_ENTRIES)
    for x in ([math.nan, 0.0], [math.inf, -math.inf], [50.0, 0.0]):
        for tracing in (False, True):
            for index in range(4):
                assert (_run(*_compiled(shared, "f", index), tracing, x)
                        == _run(*_compiled(parse(TWO_ENTRIES), "f", index),
                                tracing, x))
