import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

import cfg_oracle
from conftest import BENCH
from mexec.cfg import build_cfg
from mexec.errors import UnknownFunction
from mexec.interp import execute
from mexec.lang import If, While, parse, walk
from mexec.transforms import prepare
from test_engine import _ProgramGen

ROOT = BENCH.parent


def graph_of(src, entry):
    return build_cfg(parse(src), entry)


def test_nested_conditional_descends_from_outer_true_branch():
    # conditional 1 only executes inside the true branch of conditional 0
    g = graph_of("""
        real f(real x) {
            if (x <= 1) {
                if (x == 0) { return 1; }
            }
            return 0;
        }
    """, "f")
    assert g.descendant[(0, "T")] == {(1, "T"), (1, "F")}
    assert g.descendant[(1, "T")] == frozenset()
    assert g.descendant[(0, "F")] == frozenset()


def test_sequential_conditionals_descend_from_both_sides():
    g = graph_of("""
        real f(real x) {
            if (x <= 1) { x++; }
            if (x == 4) { return 1; }
            return 0;
        }
    """, "f")
    assert g.descendant[(0, "T")] == {(1, "T"), (1, "F")}
    assert g.descendant[(0, "F")] == {(1, "T"), (1, "F")}


def test_loop_makes_inner_branch_its_own_descendant():
    g = graph_of("""
        real f(real x, real y) {
            while (x < 10) {
                if (y == 0) { y = 1; }
                x++;
            }
            return x;
        }
    """, "f")
    assert (1, "T") in g.descendant[(1, "T")]
    assert (0, "T") in g.descendant[(1, "F")]


def test_a_loop_run_takes_only_descendants_after_each_branch():
    program = parse("""
        real f(real x, real y) {
            while (x < 10) {
                if (y == 0) { y = 1; }
                x++;
            }
            return x;
        }
    """)
    g = build_cfg(program, "f")
    trace = execute(program, [8.0, 0.0], entry="f")
    # two rounds, then the loop exits on its test
    assert trace.path == [(0, "T"), (1, "T"), (0, "T"), (1, "F"), (0, "F")]
    assert trace.return_value == 10.0
    for i, branch in enumerate(trace.path):
        assert set(trace.path[i + 1:]) <= g.descendant[branch]


def test_branch_universe_size():
    g = graph_of("""
        real f(real x) {
            if (x <= 1) { x++; }
            if (x == 4) { return 1; }
            return 0;
        }
    """, "f")
    assert len(g.branches) == 2 * len(g.labels) == 4


def test_calls_are_inlined_for_reachability():
    # the callee's conditional is reachable from both sides of l0
    g = graph_of("""
        real helper(real x) {
            if (x == 0) { return 1; }
            return 0;
        }
        real f(real x) {
            if (x <= 1) { x++; }
            return helper(x);
        }
    """, "f")
    labels = {b[0] for b in g.branches}
    assert labels == {0, 1}
    assert g.descendant[(1, "T")] == {(0, "T"), (0, "F")}


def test_inlined_calls_follow_evaluation_order():
    # inner(x) is evaluated before outer(...) and a before b, so each
    # callee's conditional reaches only the ones evaluated after it
    g = graph_of("""
        real inner(real x) { if (x == 1) { x++; } return x; }
        real outer(real x) { if (x == 2) { x++; } return x; }
        real a(real x) { if (x == 3) { x++; } return x; }
        real b(real x) { if (x == 4) { x++; } return x; }
        real f(real x) {
            real y = outer(inner(x)) + a(x) * b(x);
            return y;
        }
    """, "f")
    def reached(label):
        return {lbl for lbl, _ in g.descendant[(label, "T")]}
    assert reached(0) == {1, 2, 3}
    assert reached(1) == {2, 3}
    assert reached(2) == {3}
    assert reached(3) == set()


def test_early_return_cuts_reachability():
    g = graph_of("""
        real f(real x) {
            if (x <= 1) { return 0; }
            if (x == 4) { return 1; }
            return 2;
        }
    """, "f")
    assert g.descendant[(0, "T")] == frozenset()
    assert g.descendant[(0, "F")] == {(1, "T"), (1, "F")}


def test_recursive_calls_do_not_loop_the_builder():
    g = graph_of("""
        real f(real x) {
            if (x <= 0) { return 0; }
            return f(x - 1);
        }
    """, "f")
    assert len(g.labels) == 1


def test_unknown_entry_raises():
    with pytest.raises(UnknownFunction):
        graph_of("real f(real x) { return x; }", "g")


LOOP_FREE = """
    real f(real x) {
        if (x <= 1) {
            if (x == 0) { return 1; }
            x++;
        } else {
            if (x > 5) { x = 5; }
        }
        if (x == 3) { return 3; }
        return 0;
    }
"""


def test_descendant_is_transitive():
    g = graph_of(LOOP_FREE, "f")
    for b, ds in g.descendant.items():
        for b2 in ds:
            assert g.descendant[b2] <= ds


def test_loop_free_descendant_is_irreflexive():
    g = graph_of(LOOP_FREE, "f")
    for b, ds in g.descendant.items():
        assert b not in ds


# sha256 prefix of the sorted descendant relation of each program's last
# function; a rewrite of the builder must reproduce the relation exactly
DESCENDANT_DIGESTS = {
    'benchmarks/atan_like.mx': '689e621f8a91fa21',
    'benchmarks/cbrt_like.mx': 'e7ff49806d2c0043',
    'benchmarks/ceil_like.mx': 'e7ff49806d2c0043',
    'benchmarks/expm1_like.mx': '835009280bf79a74',
    'benchmarks/foo.mx': '9e55d9b31721684c',
    'benchmarks/foo_infeasible.mx': '9e55d9b31721684c',
    'benchmarks/hypot_like.mx': 'af5832cc726b86bc',
    'benchmarks/k_cos.mx': '145ddaf999b69383',
    'benchmarks/log1p_like.mx': 'e7ff49806d2c0043',
    'benchmarks/tanh_like.mx': 'd68ab1e78c6c3174',
    'perfbench/programs/hard/bits4.mx': '6a8b96d6322f7490',
    'perfbench/programs/hard/fact_rec.mx': 'af5832cc726b86bc',
    'perfbench/programs/hard/fanout.mx': '1aa7c5c070af477a',
    'perfbench/programs/hard/halve_rec.mx': '9e55d9b31721684c',
    'perfbench/programs/hard/loop_guard.mx': 'd6f532c6fceae695',
    'perfbench/programs/hard/prod6.mx': '909e987f83e44b70',
    'perfbench/programs/hard/sq_guard.mx': 'f15aa858b706b3ed',
    'perfbench/programs/deep/dispatch10.mx': 'c3e1232f2d07b813',
    'perfbench/programs/deep/dispatch11.mx': '380e8aa7cf3029a2',
    'perfbench/programs/deep/dispatch12.mx': '5eea347edc90786b',
}


@pytest.mark.parametrize("relpath", sorted(DESCENDANT_DIGESTS))
def test_descendant_relation_is_pinned(relpath):
    program = prepare(parse((ROOT / relpath).read_text(encoding="utf-8")))
    graph = build_cfg(program, program.functions[-1].name)
    rows = sorted((b, sorted(v)) for b, v in graph.descendant.items())
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert digest == DESCENDANT_DIGESTS[relpath]


def test_descendant_digests_cover_every_program():
    found = {str(p.relative_to(ROOT)) for pattern in (
        "benchmarks/*.mx", "perfbench/programs/hard/*.mx",
        "perfbench/programs/deep/*.mx") for p in ROOT.glob(pattern)}
    assert found == set(DESCENDANT_DIGESTS)


# -- the reference builder

def assert_matches_oracle(program):
    """Every function as the entry: the same labels, branches and
    descendant relation as the inlining builder."""
    for fn in program.functions:
        got = build_cfg(program, fn.name)
        want = cfg_oracle.build_cfg(program, fn.name)
        assert got.labels == want.labels
        assert got.branches == want.branches
        assert got.descendant == want.descendant


@st.composite
def programs(draw):
    return prepare(parse(_ProgramGen(draw).program()))


@settings(max_examples=200)
@given(programs())
def test_descendant_relation_matches_oracle_on_random_programs(program):
    assert_matches_oracle(program)


def test_descendant_relation_matches_oracle_on_mutual_recursion():
    assert_matches_oracle(parse("""
        real f(real x) {
            if (x < 0) { return 0; }
            real y = g(x - 1);
            if (y > 2) { y = y / 2; }
            return y;
        }
        real g(real x) {
            if (x == 3) { x = x + 1; }
            return f(x) + 1;
        }
    """))
    # h is reached with the same continuation from f, where its call to
    # g is followed, and from g, where that call is recursive
    assert_matches_oracle(parse("""
        real h(real x) { if (x < 1) { x = g(x); } return x; }
        real g(real x) { if (x == 2) { return h(x); } return x; }
        real f(real x) { if (x > 3) { return h(x); } return g(x); }
    """))


def test_descendant_relation_matches_oracle_on_a_three_function_cycle():
    # calls inside loop tests and if tests, around a cycle a -> b -> c -> a
    assert_matches_oracle(parse("""
        real a(real x) {
            real i = 0;
            while (b(x + i) < 3) {
                if (x > 1) { x = x - 1; }
                i++;
            }
            return x;
        }
        real b(real x) {
            if (c(x) == 0) { return 1; }
            while (x > 10) { x = x / 2; }
            return c(x * 2);
        }
        real c(real x) {
            if (x < 5) {
                while (a(x - 1) > x) { x = x - 1; }
            } else {
                if (b(x / 3) != 2) { x = 0; }
            }
            return x;
        }
    """))


# -- scaling

LEVELS = 40


def _level_branches(program, names):
    """Each named function's branches."""
    rows = {}
    for name in names:
        labels = {node.cond.label for node in walk(program.function(name))
                  if isinstance(node, (If, While))}
        rows[name] = {(label, side) for label in labels for side in "TF"}
    return rows


def test_dispatcher_forty_levels_deep():
    # each level calls the next on both sides of its conditional; the
    # inlining builder's graph has 2^40 copies of the leaf
    levels = [f"real d{LEVELS}(real x) {{ if (x < 1) {{ x = x + 1; }} "
              "return x; }"]
    for k in range(LEVELS - 1, 0, -1):
        levels.append(
            f"real d{k}(real x) {{ if (x < {k}) {{ return d{k + 1}(x * 2); "
            f"}} else {{ return d{k + 1}(x / 2); }} }}")
    program = parse("\n".join(levels))
    started = time.perf_counter()
    graph = build_cfg(program, "d1")
    assert time.perf_counter() - started < 0.5
    names = [f"d{k}" for k in range(1, LEVELS + 1)]
    rows = _level_branches(program, names)
    assert len(graph.branches) == 2 * LEVELS
    for k, name in enumerate(names):
        deeper = set().union(*(rows[n] for n in names[k + 1:]))
        for branch in rows[name]:
            assert graph.descendant[branch] == deeper


def test_chain_calling_the_next_level_twice():
    # after a level returns from the first of its caller's two calls,
    # the second call runs every level below the entry again
    levels = [f"real c{LEVELS}(real x) {{ if (x < 1) {{ x = x + 1; }} "
              "return x; }"]
    for k in range(LEVELS - 1, 0, -1):
        levels.append(
            f"real c{k}(real x) {{ if (x < {k}) {{ x = x + 1; }} "
            f"x = c{k + 1}(x); return c{k + 1}(x * 2); }}")
    program = parse("\n".join(levels))
    started = time.perf_counter()
    graph = build_cfg(program, "c1")
    assert time.perf_counter() - started < 0.5
    names = [f"c{k}" for k in range(1, LEVELS + 1)]
    rows = _level_branches(program, names)
    below_entry = set().union(*(rows[n] for n in names[1:]))
    for branch in graph.branches:
        assert graph.descendant[branch] == below_entry
