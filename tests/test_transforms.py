import pytest

from mexec.errors import UnsupportedPointerUse
from mexec.interp import execute
from mexec.lang import Assign, Binary, Deref, If, Var, parse
from mexec.transforms import prepare


def first_cond(program, fn_index=0):
    for stmt in program.functions[fn_index].body:
        if isinstance(stmt, If):
            return stmt.cond
    raise AssertionError("no conditional found")


def test_pointer_parameter_becomes_scalar():
    program = prepare(parse(
        "real f(real* p) { if (*p <= 1) { *p = 2; } return *p; }"))
    assert execute(program, [0.5]).return_value == 2.0
    assert execute(program, [3.0]).return_value == 3.0


def test_pointer_free_program_unchanged():
    source = "real f(real x) { if (x <= 1) { x++; } return x; }"
    program = parse(source)
    assert prepare(program) is program
    assert program == parse(source)


def test_prepare_leaves_the_program_as_written():
    source = """
        void f(real* p, real x) {
            if (p != 0) { *p = (real) 1; }
            if (hiword(x) < 0x3e400000) { *p = *p + x; }
        }
    """
    program = parse(source)
    prepared = prepare(program)
    assert prepared is program
    assert prepared == parse(source)
    assert prepared.functions[0].params == [("p", "ptr"), ("x", "real")]
    write = prepared.functions[0].body[1].then[0]
    assert write == Assign(target=Deref(name="p"), expr=Binary(
        op="+", lhs=Deref(name="p"), rhs=Var(name="x")))


def test_pointer_comparison_stays_unlabeled_through_prepare():
    program = prepare(parse("""
        void f(real* p) {
            if (p != 0) { *p = 1; }
            if (*p <= 1) { *p = 2; }
        }
    """))
    conds = []
    for stmt in program.functions[0].body:
        if isinstance(stmt, If):
            conds.append(stmt.cond)
    assert conds[0].label is None
    assert conds[1].label == 0


def test_pointer_arithmetic_rejected():
    with pytest.raises(UnsupportedPointerUse):
        prepare(parse("void f(real* p) { *p = p + 1; }"))


@pytest.mark.parametrize("source", [
    "void f(real* p) { p = 1; }",
    "void f(real* p) { p++; }",
    "void f(real* p) { real p = 1; }",
    "real f(real* p) { return p; }",
    "real g(real y) { return y; } real f(real* p) { return g(p); }",
    "void f(real* p) { if (p + 1 != 0) { *p = 1; } }",
])
def test_bare_pointer_outside_a_comparison_operand_rejected(source):
    with pytest.raises(UnsupportedPointerUse, match="pointer 'p'"):
        prepare(parse(source))


@pytest.mark.parametrize("source", [
    "real f(real x) { return *x; }",
    "void f(real x) { *x = 1; }",
    "void f(real x) { real y = 1; *y = x; }",
    "real f(real* p, real x) { if (*x < *p) { return 1; } return 0; }",
])
def test_star_on_a_non_pointer_rejected(source):
    with pytest.raises(UnsupportedPointerUse, match="not a pointer"):
        prepare(parse(source))


def test_real_operands_left_alone():
    program = parse("real f(real x) { if (x <= 1.5) { return 1; } "
                    "return 0; }")
    cond = first_cond(prepare(program))
    assert cond.lhs == Var(name="x")
    assert cond.rhs.value == 1.5


def test_labels_stable_through_prepare():
    program = parse("""
        void f(real* p, real x) {
            if (p != 0) { *p = 1; }
            if (x <= 1) { x++; }
            if (floor(x) == 0) { x = 1; }
        }
    """)
    prepared = prepare(program)
    conds = [s.cond for s in prepared.functions[0].body
             if isinstance(s, If)]
    assert [c.label for c in conds] == [None, 0, 1]
    assert prepared.num_conditionals == 2


def test_prepared_program_reparses():
    source = "real f(real x) { if (floor(x) == 0) { return 1; } return 0; }"
    prepared = prepare(parse(source))
    again = parse(source)
    assert prepared == again
    assert first_cond(prepared).label == first_cond(again).label == 0
