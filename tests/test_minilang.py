import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import BENCH
from mexec.cli import main
from mexec.errors import (
    DuplicateFunction, ParseError, UndeclaredIdentifier, UnsupportedPointerUse,
)
from mexec.interp import execute
from mexec.lang import (
    KEYWORDS, MAX_EXPR_DEPTH, Assign, Binary, Call, ExprStmt, If, Num, Return,
    Token, Var, While, children, parse, tokenize, walk,
)
from mexec.satcheck import parse_constraint
from test_engine import _ProgramGen

FOO_SRC = """
real square(real x) { return x * x; }
void FOO(real x) {
    if (x <= 1) { x++; }
    real y = square(x);
    if (y == 4) { return; }
    return;
}
"""


def _conditionals(program):
    found = []

    def visit(stmts):
        for stmt in stmts:
            if isinstance(stmt, If):
                found.append(stmt.cond)
                visit(stmt.then)
                visit(stmt.els)
            elif isinstance(stmt, While):
                found.append(stmt.cond)
                visit(stmt.body)

    for fn in program.functions:
        visit(fn.body)
    return found


def test_two_conditionals_labeled_in_source_order():
    program = parse(FOO_SRC)
    assert program.num_conditionals == 2
    conds = _conditionals(program)
    assert [c.label for c in conds] == [0, 1]
    assert [c.op for c in conds] == ["<=", "=="]


def test_straight_line_program_has_no_conditionals():
    program = parse("real f(real x) { return x + 1; }")
    assert program.num_conditionals == 0


def test_malformed_comparison_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("real f(real x) { if (x < ) { return 1; } return 0; }")
    assert exc.value.line == 1


def test_missing_operator_in_condition_rejected():
    with pytest.raises(ParseError):
        parse("real f(real x) { if (x) { return 1; } return 0; }")


def test_undeclared_identifier_rejected():
    with pytest.raises(UndeclaredIdentifier):
        parse("real f(real x) { return x + z; }")


def test_duplicate_function_rejected():
    with pytest.raises(DuplicateFunction):
        parse("real f(real x) { return x; } real f(real y) { return y; }")


def test_unknown_call_rejected():
    with pytest.raises(UndeclaredIdentifier):
        parse("real f(real x) { return g(x); }")


@pytest.mark.parametrize("source", [
    "real g(real a, real b) { return a; } real f(real x) { return g(x); }",
    "real f(real x) { return pow(x); }",
    "real f(real x) { return sin(x, x); }",
])
def test_call_with_wrong_argument_count_rejected(source):
    with pytest.raises(ParseError, match="expects"):
        parse(source)


def test_hex_literals():
    program = parse("real f(real x) { if (x < 0x3e400000) { return 1; } "
                    "return 0; }")
    cond = _conditionals(program)[0]
    assert cond.rhs.value == float(0x3e400000)


def test_builtins_need_no_declaration():
    parse("real f(real x) { return sin(x) + pow(x, 2) + hiword(x); }")


def test_pointer_comparison_not_labeled():
    program = parse("""
        void f(real* p) {
            if (p != 0) { *p = 1; }
            if (*p <= 1) { *p = 2; }
        }
    """)
    conds = _conditionals(program)
    assert conds[0].label is None
    assert conds[1].label == 0
    assert program.num_conditionals == 1


def test_caret_is_right_associative_power():
    program = parse("real f(real x) { return 2 ^ x ^ 2; }")
    body = program.functions[0].body[0].expr
    assert body.op == "^"
    assert body.rhs.op == "^"


def test_rich_expressions_parse_with_the_documented_precedence():
    rich = parse("real f(real x, real y) { "
                 "return -x ^ 2 + (x - y) * 3 / (real) floor(y) "
                 "- pow(x, -2) + x ^ -2; }")
    grouped = parse("real f(real x, real y) { "
                    "return ((-(x ^ 2) + (((x - y) * 3) / floor(y))) "
                    "- pow(x, -2)) + (x ^ (-2)); }")
    assert rich == grouped
    x, y = 2.0, 3.5
    want = -(x ** 2) + (x - y) * 3 / math.floor(y) - x ** -2 + x ** -2
    assert execute(rich, [x, y]).return_value == want


def test_comments_are_skipped():
    program = parse("/* header */ real f(real x) { // trailing\n"
                    "return x; }")
    assert program.functions[0].name == "f"


def test_while_condition_is_labeled():
    program = parse("real f(real x) { while (x < 10) { x++; } return x; }")
    assert program.num_conditionals == 1


def test_real_cast_is_dropped_by_the_parser():
    cast = parse("real f(real x) { if ((real) floor(x) < (real) 3) "
                 "{ return (real) x; } return 0; }")
    plain = parse("real f(real x) { if (floor(x) < 3) { return x; } "
                  "return 0; }")
    assert cast == plain


def test_unary_plus_is_dropped_by_the_parser():
    assert (parse("real f(real x) { return +x * +(2 - +x); }")
            == parse("real f(real x) { return x * (2 - x); }"))


@pytest.mark.parametrize("block", [
    "if (x > 0) { real y = 1; }",
    "if (x > 0) { x = 1; } else { real y = 2; }",
    "while (x > 0) { real y = x; x = x - 1; }",
])
def test_a_name_first_assigned_in_a_nested_body_is_undeclared_after_it(
        block):
    with pytest.raises(UndeclaredIdentifier, match="'y'"):
        parse(f"real f(real x) {{ {block} return y; }}")


def _set(value):
    return Assign(target=Var(name="a"), expr=Num(value=value))


def test_bodies_are_statement_lists_with_nested_blocks_spliced_in():
    (fn,) = parse("void f(real a) { { { a = 1; } } a = 2; {} }").functions
    assert fn.body == [_set(1.0), _set(2.0)]
    (branch, loop) = parse("void f(real a) { if (a > 0) a = 1; "
                           "while (a < 0) { { a = 2; } } }").functions[0].body
    # a brace-less arm is a one-item list, a missing else an empty one
    assert (branch.then, branch.els) == ([_set(1.0)], [])
    assert loop.body == [_set(2.0)]
    (branch,) = parse("void f(real a) { if (a > 0) {} else { { a = 3; } } }"
                      ).functions[0].body
    assert (branch.then, branch.els) == ([], [_set(3.0)])


def test_a_bare_return_is_return_0():
    (ret,) = parse("void f(real x) { return; }").functions[0].body
    assert ret == Return(expr=Num(value=0.0))
    assert parse("void f(real x) { return; }") == parse(
        "void f(real x) { return 0; }")


def test_a_name_declared_in_a_bare_block_is_in_scope_after_it():
    program = parse("real f(real x) { { real y = x + 1; } return y; }")
    assert execute(program, [2.0]).return_value == 3.0


@pytest.mark.parametrize("callee", ["f", "sin"])
def test_a_call_through_a_star_is_a_parse_error(callee):
    with pytest.raises(ParseError, match="expected assignment or call"):
        parse("real f(real x) { return x; } "
              f"real g(real *p) {{ *{callee}(1); return 0; }}")


@pytest.mark.parametrize("prefix", ["0x", "0X"])
def test_a_hex_prefix_without_digits_is_a_malformed_literal(prefix):
    with pytest.raises(ParseError, match="malformed hex literal"):
        parse(f"real f(real x) {{ return {prefix}; }}")


def test_declarations_and_increments_are_parsed_as_assignments():
    def run(body, x=5.0):
        program = parse(f"real f(real* p, real x) {{ {body} }}")
        return execute(program, [x, x]).return_value

    assert run("real y; return y;") == 0.0
    assert run("x++; return x;") == 6.0
    assert run("x--; return x;") == 4.0
    assert run("*p++; return *p;") == 6.0
    assert run("*p--; return *p;") == 4.0
    assert (parse("real f(real x) { real y = x * 2; return y; }")
            == parse("real f(real x) { y = x * 2; return y; }"))
    (step,) = parse("void f(real x) { x--; }").functions[0].body
    assert step == Assign(target=Var(name="x"), expr=Binary(
        op="+", lhs=Var(name="x"), rhs=Num(value=-1.0)))
    assert step.expr.lhs is not step.target


def test_foo_keeps_its_labels_and_executable_lines():
    program = parse((BENCH / "foo.mx").read_text(encoding="utf-8"))
    assert [(c.label, c.line) for c in _conditionals(program)] == [
        (0, 9), (1, 13)]
    assert program.lines == {5, 9, 10, 12, 13, 14, 16}


# -- the report's static totals, which the gate records as it checks;
# a walk of the whole AST for each total is the reference

_STATEMENTS = (Assign, ExprStmt, If, Return, While)


def _nodes(program):
    for fn in program.functions:
        yield from walk(fn)


def executable_lines(program):
    return frozenset(node.line for node in _nodes(program)
                     if isinstance(node, _STATEMENTS) and node.line)


def call_sites(program):
    user = {f.name for f in program.functions}
    return frozenset((node.line, node.col) for node in _nodes(program)
                     if isinstance(node, Call) and node.name in user)


def conditional_counts(program):
    labels = [node.cond.label for node in _nodes(program)
              if isinstance(node, (If, While))]
    unlabeled = labels.count(None)
    return len(labels) - unlabeled, unlabeled


def assert_totals_match_the_walks(program):
    assert program.lines == executable_lines(program)
    assert program.call_sites == call_sites(program)
    assert (program.num_conditionals, program.uninstrumentable) == \
        conditional_counts(program)
    assert all(isinstance(total, frozenset)
               for total in (program.lines, program.call_sites))


@st.composite
def spread_sources(draw):
    """A random program with a random share of its blanks made line
    breaks, so that its statements and calls sit on many lines."""
    source = _ProgramGen(draw).program()
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    share = draw(st.sampled_from((0.0, 0.3, 1.0)))
    return "".join("\n" if c == " " and rng.random() < share else c
                   for c in source)


@settings(max_examples=200)
@given(spread_sources())
def test_the_gate_records_what_a_walk_of_the_ast_finds(source):
    assert_totals_match_the_walks(parse(source))


@pytest.mark.parametrize("source, lines, calls, counts", [
    # a bare pointer on either side leaves a conditional unlabeled; a
    # user call in its other side is still a call site
    ("""real g(real a) { return a; }
real f(real *p, real x) {
    if (p == x) { x = 1; }
    if (g(x) < p) { x = 2; }
    while (*p > g(g(x))) { x = x - 1; }
    if (x < 2) { g(x); }
    return sqrt(x);
}""", {1, 3, 4, 5, 6, 7}, {(4, 9), (5, 17), (5, 19), (6, 18)}, (2, 2)),
    # a builtin is not a call site; an else and a nested block are not
    # lines of their own
    ("""real f(real x) {
    if (x < 1)
    {
        x = sin(x);
    }
    else
        x++;
    { real y = x; }
    return x;
}""", {2, 4, 7, 8, 9}, set(), (1, 0)),
])
def test_the_gate_records_lines_calls_and_unlabeled_conditionals(
        source, lines, calls, counts):
    program = parse(source)
    assert_totals_match_the_walks(program)
    assert program.lines == lines
    assert program.call_sites == calls
    assert (program.num_conditionals, program.uninstrumentable) == counts


@pytest.mark.parametrize("body, col", [
    ("real p;", 24), ("real p = 1;", 24), ("p++;", 19)])
def test_a_pointer_declared_or_incremented_bare_is_rejected(body, col):
    with pytest.raises(UnsupportedPointerUse,
                       match="pointer 'p' used without '\\*'") as error:
        parse(f"void f(real* p) {{ {body} }}")
    assert (error.value.line, error.value.col) == (1, col)


def test_children_in_field_order_and_walk_in_pre_order():
    program = parse("""
        real g(real a, real b) { return a; }
        real f(real x) {
            if (x < 1) { return g(x, -x); }
            return 0;
        }
    """)
    fn = program.function("f")
    branch, tail = fn.body
    # cond, then; the missing else is an empty list
    assert list(children(branch)) == [branch.cond, *branch.then]
    call = branch.then[0].expr
    assert isinstance(call, Call)
    assert list(children(call)) == call.args     # list fields spliced in
    assert list(children(Var(name="x"))) == []
    kinds = [type(node).__name__ for node in walk(fn)]
    assert kinds == ["FunctionDef", "If", "Compare", "Var", "Num", "Return",
                     "Call", "Var", "Unary", "Var", "Return", "Num"]
    assert [n for n in walk(fn) if isinstance(n, Return)] == [
        branch.then[0], tail]



@pytest.mark.parametrize("op", ["+", "/", "^"])
def test_operators_nest_at_most_max_expr_depth(op):
    # `+` and `/` chains are left-deep, `^` chains right-deep
    def chain(operands):
        return f" {op} ".join(["x"] * operands)

    deepest = chain(MAX_EXPR_DEPTH + 1)
    parse(f"real f(real x) {{ if ({deepest} < 1) {{ x = 1; }} "
          f"return {deepest}; }}")
    parse_constraint(f"{deepest} == 1")
    deeper = chain(MAX_EXPR_DEPTH + 2)
    for source in (f"real f(real x) {{ return {deeper}; }}",
                   f"real f(real x) {{ while ({deeper} < 1) {{ }} }}",
                   f"real f(real x) {{ g({deeper}); }} real g(real y) {{ }}"):
        with pytest.raises(ParseError, match="nested more than 199"):
            parse(source)
    with pytest.raises(ParseError, match="nested more than 199"):
        parse_constraint(f"x > 0 && 1 < {deeper}")


def test_the_first_fault_of_an_expression_in_source_order_is_reported():
    deeper = " + ".join(["x"] * (MAX_EXPR_DEPTH + 2))
    # an undeclared name before an operand nested too deeply
    with pytest.raises(UndeclaredIdentifier,
                       match="undeclared identifier 'y'"):
        parse(f"real f(real x) {{ return y * ({deeper}); }}")
    with pytest.raises(ParseError, match="nested more than 199"):
        parse(f"real f(real x) {{ return ({deeper}) * y; }}")


# characters outside ASCII, among them ones Python reads as digits or
# folds into ASCII letters in identifiers
@pytest.mark.parametrize("source, char", [
    ("real f(real x) { return x + ²; }", "²"),
    ("real f(real fi) { real ﬁ = 2; return fi; }", "ﬁ"),
    ("real f(real x2) { real x² = 5; return x2; }", "²"),
    ("real f(real é) { return é; }", "é"),
])
def test_non_ascii_characters_are_parse_errors(capsys, tmp_path, source,
                                               char):
    with pytest.raises(ParseError,
                       match=f"unexpected character '{char}'"):
        parse(source)
    path = tmp_path / "f.mx"
    path.write_text(source, encoding="utf-8")
    assert main(["cover", str(path), "--seed", "1", "--n-start", "1"]) == 2
    assert main(["sat", f"x == {char}", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"parse error: unexpected character '{char}'") == 2


@pytest.mark.parametrize("literal", ["7" * 400, "1" * 5000, "0x" + "f" * 300],
                         ids=["400 digits", "5000 digits", "300 hex digits"])
def test_literals_past_the_double_range_read_as_inf(capsys, tmp_path,
                                                    literal):
    source = (f"real f(real x) {{ if (x < {literal}) {{ return 1; }} "
              "return 0; }")
    assert _conditionals(parse(source))[0].rhs.value == math.inf
    path = tmp_path / "f.mx"
    path.write_text(source)
    assert main(["cover", str(path), "--seed", "1", "--n-start", "2"]) == 0
    assert "Branches taken" in capsys.readouterr().out
    assert main(["sat", f"x < {literal}", "--seed", "1",
                 "--n-start", "2"]) == 0
    out, err = capsys.readouterr()
    assert (out.startswith("sat: x = "), err) == (True, "")


def test_keywords_and_punctuators_are_their_own_token_kinds():
    tokens = tokenize("real void if else while return reals _if 0x1F 2.5e3 "
                      "<= + ;")
    assert [t.kind for t in tokens] == [
        "real", "void", "if", "else", "while", "return", "ident", "ident",
        "num", "num", "<=", "+", ";", "eof"]


def test_eof_follows_a_trailing_line_comment():
    assert tokenize("x // note")[-1] == Token("eof", "", 1, 10)
    assert tokenize("x /* a\nb */")[-1] == Token("eof", "", 2, 5)


_PIECES = ["//", "/*", "*/", "0x", "0X", "1e", "1E-", ".5", "\n", " ",
           *KEYWORDS, "++", "--", "==", "!=", "<=", ">="]


@given(st.lists(st.sampled_from(_PIECES)
                | st.characters(max_codepoint=127), max_size=30)
       .map("".join))
def test_tokens_sit_in_the_source_at_their_position(source):
    try:
        tokens = tokenize(source)
    except ParseError:
        return
    lines = source.split("\n")
    for tok in tokens:
        assert lines[tok.line - 1].startswith(tok.text, tok.col - 1)
    eof = tokens[-1]
    assert (eof.line, eof.col) == (len(lines), len(lines[-1]) + 1)
