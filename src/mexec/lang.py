"""Front end for the .mx mini-language: lexer, AST, parser and gate.

The language is a small C-like subset over 64-bit reals: function
definitions, declarations, assignments, if/else, while, return, calls,
and arithmetic expressions with `^` for exponentiation.  Pointer-to-real
parameters are accepted so that library-style signatures can be written
down; the engine reads `*p` like a scalar `p`.  The parser drops a
`(real)` cast, reads declarations and increments as assignments and
`return;` as `return 0;`, and hands on each body as a list of
statements: a nested `{...}` is spliced into its enclosing list, as a
block has no scope of its own; only the arms of an if or while do.

`parse` is the one gate: every program it returns compiles.  Every
conditional whose two operands are numeric receives a dense label
0..N-1 in source order.  Conditionals comparing pointers keep label None
and are excluded from instrumentation and coverage denominators.
"""

import math
import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .distance import COMPARATORS
from .errors import (
    DuplicateFunction,
    ParseError,
    UndeclaredIdentifier,
    UnsupportedPointerUse,
)

# the builtin functions and their argument counts
BUILTIN_ARITY = dict.fromkeys((
    "sin", "cos", "tan", "exp", "log", "sqrt", "fabs", "floor", "hiword",
    "loword"), 1) | {"pow": 2}


# ---------------------------------------------------------------------------
# Tokens

KEYWORDS = ("real", "void", "if", "else", "while", "return")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The lexical structure of docs/grammar.md, ASCII only.  Alternatives are
# tried in order: blanks and comments, numbers, words, punctuators (the
# two-character ones first), and last the inputs no rule matches; the
# lookaheads leave `0x` without a hex digit and `/*` without its `*/`
# to that last one.
_TOKEN = re.compile(r"""
    (?P<blank>[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)
  | (?P<num>0[xX][0-9a-fA-F]+
      | (?!0[xX])(?:[0-9]+(?:\.[0-9]*)? | \.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>%s)
  | (?P<punct>\+\+ | -- | && | [=!<>]= | /(?!\*) | [-+*^<>=(){},;])
  | (?P<bad>/\* | 0[xX] | .)
""" % _NAME.pattern, re.VERBOSE | re.DOTALL)

_BAD = {"/*": "unterminated comment", "0x": "malformed hex literal"}


@dataclass
class Token:
    kind: str   # 'num', 'ident', 'eof', or the keyword or punctuator itself
    text: str
    line: int
    col: int


def tokenize(source):
    """The tokens of `source`, ending in an 'eof' token; the first input
    that no token rule matches is a ParseError."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "blank":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
            continue
        if kind == "bad":
            raise ParseError(
                _BAD.get(text.lower(), f"unexpected character {text!r}"),
                line, col)
        if kind == "punct" or text in KEYWORDS:
            kind = text
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def is_name(text):
    """Whether `text` is a str that the lexer reads as one identifier,
    not a keyword."""
    return (isinstance(text, str) and _NAME.fullmatch(text) is not None
            and text not in KEYWORDS)


def _number(text):
    """The value of a number token; a literal past the double range is
    inf, hex ones included."""
    if text.startswith(("0x", "0X")):
        try:
            return float(int(text, 16))
        except OverflowError:
            return math.inf
    return float(text)


# ---------------------------------------------------------------------------
# AST

@dataclass
class Node:
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Num(Node):
    value: float = 0.0


@dataclass
class Var(Node):
    name: str = ""


@dataclass
class Deref(Node):
    """Read through a pointer parameter, `*p`."""
    name: str = ""


@dataclass
class Unary(Node):
    operand: Optional[Node] = None      # negated


@dataclass
class Binary(Node):
    op: str = "+"
    lhs: Optional[Node] = None
    rhs: Optional[Node] = None


@dataclass
class Call(Node):
    name: str = ""
    args: list = field(default_factory=list)


@dataclass
class Compare(Node):
    op: str = "=="
    lhs: Optional[Node] = None
    rhs: Optional[Node] = None
    label: Optional[int] = field(default=None, compare=False)


@dataclass
class Assign(Node):
    target: Optional[Node] = None   # Var or Deref
    expr: Optional[Node] = None


@dataclass
class If(Node):
    cond: Optional[Compare] = None
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)     # empty without an else


@dataclass
class While(Node):
    cond: Optional[Compare] = None
    body: list = field(default_factory=list)


@dataclass
class Return(Node):
    expr: Optional[Node] = None


@dataclass
class ExprStmt(Node):
    expr: Optional[Node] = None


@dataclass
class FunctionDef(Node):
    name: str = ""
    params: list = field(default_factory=list)   # (name, 'real' | 'ptr')
    body: list = field(default_factory=list)


@dataclass
class Program:
    """A parsed program.  `parse` builds it, labels its conditionals and
    records the report's static totals: the labeled and the unlabeled
    (`uninstrumentable`) conditionals, the `lines` of every statement and
    the (line, col) `call_sites` of every call to a user function.  From
    then on the AST is read-only; what depends only on it (generated
    source and its code, descendant relation) is computed on first use
    and kept in `_memo` (see `memoised`)."""
    functions: list
    num_conditionals: int = 0
    uninstrumentable: int = 0
    lines: frozenset = frozenset()
    call_sites: frozenset = frozenset()
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def function(self, name):
        return next((f for f in self.functions if f.name == name), None)


def memoised(owner, key, make):
    """`make()`, computed once per `key` and kept in the `_memo` dict of
    the read-only `owner`; a `make` that raises leaves nothing kept."""
    memo = owner._memo
    if key not in memo:
        memo[key] = make()
    return memo[key]


# the fields of each node type that hold child nodes, in field order
_CHILD_FIELDS = {
    Unary: ("operand",),
    Binary: ("lhs", "rhs"),
    Call: ("args",),
    Compare: ("lhs", "rhs"),
    Assign: ("target", "expr"),
    If: ("cond", "then", "els"),
    While: ("cond", "body"),
    Return: ("expr",),
    ExprStmt: ("expr",),
    FunctionDef: ("body",),
}


def children(node):
    """The child nodes of `node` in field order; list fields are spliced
    in and absent (None) children skipped."""
    for name in _CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if isinstance(value, list):
            yield from value
        elif value is not None:
            yield value


def walk(node, limit=None):
    """`node` and every node below it, in pre-order.  With a `limit`,
    raises ParseError at the first unary minus, binary operator or call
    nested more than `limit` deep: the parser builds operator chains
    with a loop, so any length parses."""
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        if limit is not None and isinstance(node, (Unary, Binary, Call)):
            depth += 1
            if depth > limit:
                raise ParseError(
                    f"expression nested more than {limit} operators deep",
                    node.line, node.col)
        yield node
        stack.extend((child, depth)
                     for child in reversed(list(children(node))))


# each unary minus, binary operator or call adds a level of parentheses
# to the generated Python and the innermost operand may add one more;
# Python's parser accepts 200 levels.  A chain of 200 operands is the
# deepest expression allowed.
MAX_EXPR_DEPTH = 199

# Each if and while is an indented block of the generated Python, which
# allows 100 levels; the function body takes one, and a conditional's
# hook (coverage's or path's) one more under its test, so one level is
# spare.  A while's test sits inside its loop, so a while counts one
# level more.
MAX_STMT_DEPTH = 97
# Python allows 20 loops nested in one function
MAX_LOOP_DEPTH = 20
# CPython 3.11's parser fails past 6000 nested grammar rules.  An
# operator of the generated Python takes at most 29 (a parenthesized
# unary minus), as does a non-finite literal, and each if or while
# around it at most 7 (an else-if arm); measured, this many are left:
_RULE_BUDGET = 5932


def max_expr_depth(level):
    """The most operators and calls an expression inside `level` ifs
    and whiles may nest; a while's own test counts as inside it."""
    return min(MAX_EXPR_DEPTH, (_RULE_BUDGET - 7 * level) // 29)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # no caller reads past the closing 'eof' token
    def peek(self, ahead=0):
        return self.tokens[self.pos + ahead]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            want = what or repr(kind)
            raise ParseError(
                f"expected {want}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.next()

    # -- program structure

    def parse_program(self):
        functions = []
        while self.peek().kind != "eof":
            functions.append(self.parse_function())
        program = Program(functions)
        _Gate().check(program)
        return program

    def parse_function(self):
        tok = self.peek()
        if tok.kind not in ("real", "void"):
            raise ParseError(
                f"expected function definition, found {tok.text!r}",
                tok.line, tok.col)
        self.next()
        name = self.expect("ident", "function name")
        self.expect("(")
        params = []
        if self.peek().kind != ")":
            while True:
                self.expect("real")
                kind = "real"
                if self.peek().kind == "*":
                    self.next()
                    kind = "ptr"
                pname = self.expect("ident", "parameter name")
                if any(p[0] == pname.text for p in params):
                    raise ParseError(
                        f"duplicate parameter {pname.text!r}",
                        pname.line, pname.col)
                params.append((pname.text, kind))
                if self.peek().kind == ",":
                    self.next()
                    continue
                break
        self.expect(")")
        body = self.parse_block()
        return FunctionDef(line=tok.line, col=tok.col, name=name.text,
                           params=params, body=body)

    # -- statements

    def parse_block(self):
        """The statements of a `{...}` block, nested blocks spliced in."""
        tok = self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                raise ParseError("unterminated block", tok.line, tok.col)
            stmts += self.parse_stmt()
        self.expect("}")
        return stmts

    def parse_stmt(self):
        """A statement as a list: a block's statements, or the one."""
        tok = self.peek()
        if tok.kind == "{":
            return self.parse_block()
        if tok.kind == "if":
            return [self.parse_if()]
        if tok.kind == "while":
            return [self.parse_while()]
        # `return;` is `return 0;`, `real x = e;` is `x = e;`, `real x;`
        # is `x = 0;`, and `t++;` and `t--;` are `t = t + 1;` and
        # `t = t + -1;`
        expr = Num(line=tok.line, col=tok.col, value=0.0)
        if tok.kind == "return":
            self.next()
            if self.peek().kind != ";":
                expr = self.parse_expr()
            self.expect(";")
            return [Return(line=tok.line, col=tok.col, expr=expr)]
        if tok.kind == "real":
            self.next()
            name = self.expect("ident", "variable name")
            target = Var(line=name.line, col=name.col, name=name.text)
            if self.peek().kind == "=":
                self.next()
                expr = self.parse_expr()
        elif tok.kind == "ident" or tok.kind == "*":
            target = self.parse_lvalue()
            nxt = self.peek()
            if nxt.kind == "(" and isinstance(target, Var):
                call = self.finish_call(target.name, tok)
                self.expect(";")
                return [ExprStmt(line=tok.line, col=tok.col, expr=call)]
            if nxt.kind not in ("=", "++", "--"):
                raise ParseError(
                    f"expected assignment or call, found {nxt.text!r}",
                    nxt.line, nxt.col)
            self.next()
            if nxt.kind == "=":
                expr = self.parse_expr()
            else:
                step = Num(line=nxt.line, col=nxt.col,
                           value=1.0 if nxt.kind == "++" else -1.0)
                expr = Binary(line=nxt.line, col=nxt.col, op="+",
                              lhs=replace(target), rhs=step)
        else:
            raise ParseError(
                f"unexpected token {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        self.expect(";")
        return [Assign(line=tok.line, col=tok.col, target=target, expr=expr)]

    def parse_lvalue(self):
        tok = self.peek()
        if tok.kind == "*":
            return self.parse_primary()
        name = self.expect("ident", "variable name")
        return Var(line=tok.line, col=tok.col, name=name.text)

    def parse_if(self):
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_compare()
        self.expect(")")
        then, els = self.parse_stmt(), []
        if self.peek().kind == "else":
            self.next()
            els = self.parse_stmt()
        return If(line=tok.line, col=tok.col, cond=cond, then=then, els=els)

    def parse_while(self):
        tok = self.expect("while")
        self.expect("(")
        cond = self.parse_compare()
        self.expect(")")
        body = self.parse_stmt()
        return While(line=tok.line, col=tok.col, cond=cond, body=body)

    def parse_compare(self):
        lhs = self.parse_expr()
        tok = self.peek()
        if tok.kind not in COMPARATORS:
            raise ParseError(
                f"expected comparison operator, found {tok.text!r}",
                tok.line, tok.col)
        op = self.next().kind
        rhs = self.parse_expr()
        return Compare(line=tok.line, col=tok.col, op=op, lhs=lhs, rhs=rhs)

    # -- expressions

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            rhs = self.parse_term()
            node = Binary(line=tok.line, col=tok.col,
                          op=tok.kind, lhs=node, rhs=rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            rhs = self.parse_unary()
            node = Binary(line=tok.line, col=tok.col,
                          op=tok.kind, lhs=node, rhs=rhs)
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok.kind in ("-", "+"):
            self.next()
            operand = self.parse_unary()
            if tok.kind == "+":
                return operand
            return Unary(line=tok.line, col=tok.col, operand=operand)
        if (tok.kind == "(" and self.peek(1).kind == "real"
                and self.peek(2).kind == ")"):
            # a (real) cast: every value already is a real
            self.next()
            self.next()
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.peek().kind == "^":
            tok = self.next()
            # right associative, and the exponent may be signed
            exponent = self.parse_unary()
            return Binary(line=tok.line, col=tok.col,
                          op="^", lhs=base, rhs=exponent)
        return base

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(line=tok.line, col=tok.col, value=_number(tok.text))
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                return self.finish_call(tok.text, tok)
            return Var(line=tok.line, col=tok.col, name=tok.text)
        if tok.kind == "*":
            self.next()
            name = self.expect("ident", "pointer name")
            return Deref(line=tok.line, col=tok.col, name=name.text)
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(
            f"expected expression, found {tok.text or 'end of input'!r}",
            tok.line, tok.col)

    def finish_call(self, name, tok):
        self.expect("(")
        args = []
        if self.peek().kind != ")":
            args.append(self.parse_expr())
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_expr())
        self.expect(")")
        return Call(line=tok.line, col=tok.col, name=name, args=args)


def parse(source):
    """Parse .mx source text into a checked, labeled Program."""
    try:
        return _Parser(tokenize(source)).parse_program()
    except RecursionError:
        raise ParseError("program nested too deeply") from None


# ---------------------------------------------------------------------------
# The gate: validation, labels and nesting limits

def check_call(call, functions):
    """Reject a call to an unknown function, or one with the wrong
    number of arguments; `functions` maps user function names to their
    definitions."""
    if call.name in functions:
        expected = len(functions[call.name].params)
    elif call.name in BUILTIN_ARITY:
        expected = BUILTIN_ARITY[call.name]
    else:
        raise UndeclaredIdentifier(
            f"call to unknown function {call.name!r}", call.line, call.col)
    if len(call.args) != expected:
        raise ParseError(
            f"{call.name} expects {expected} arguments, got "
            f"{len(call.args)}", call.line, call.col)


class _Gate:
    """The one check of a parsed program, in one pass over each
    function: names, scope, calls, the pointer rule (a pointer parameter
    appears bare only as a whole comparison operand, and `*` applies
    only to pointer parameters) and the nesting limits.  Numbers the
    conditionals that compare no bare pointer 0..N-1 in pre-order; the
    others get label None.  Records the totals that `Program` lists."""

    def __init__(self):
        self.functions = {}
        self.pointers = set()
        self.labels = 0
        self.unlabeled = 0
        self.lines, self.calls = set(), set()

    def check(self, program):
        if not program.functions:
            raise ParseError("the program defines no function")
        for f in program.functions:
            if f.name in self.functions:
                raise DuplicateFunction(
                    f"function {f.name!r} defined twice", f.line, f.col)
            if f.name in BUILTIN_ARITY:
                raise ParseError(f"function {f.name!r} is named like a "
                                 "builtin", f.line, f.col)
            self.functions[f.name] = f
        for f in program.functions:
            self.pointers = {name for name, kind in f.params
                             if kind == "ptr"}
            self.stmts(f.body, {name for name, _kind in f.params}, 0, 0)
        program.num_conditionals = self.labels
        program.uninstrumentable = self.unlabeled
        program.lines = frozenset(self.lines)
        program.call_sites = frozenset(self.calls)

    def expr(self, expr, scope, level):
        for node in walk(expr, max_expr_depth(level)):
            if isinstance(node, (Var, Deref)) and node.name not in scope:
                raise UndeclaredIdentifier(
                    f"undeclared identifier {node.name!r}",
                    node.line, node.col)
            if isinstance(node, Var) and node.name in self.pointers:
                raise UnsupportedPointerUse(
                    f"pointer {node.name!r} used without '*'",
                    node.line, node.col)
            if isinstance(node, Deref) and node.name not in self.pointers:
                raise UnsupportedPointerUse(
                    f"{node.name!r} is not a pointer parameter",
                    node.line, node.col)
            if isinstance(node, Call):
                check_call(node, self.functions)
                if node.name in self.functions:
                    self.calls.add((node.line, node.col))

    def cond(self, cond, scope, level):
        cond.label = self.labels
        for side in (cond.lhs, cond.rhs):
            if isinstance(side, Var) and side.name in self.pointers:
                cond.label = None
            else:
                self.expr(side, scope, level)
        self.labels += cond.label is not None
        self.unlabeled += cond.label is None

    def stmts(self, stmts, scope, depth, loops):
        """Check the statement list `stmts`, inside `depth` ifs and
        whiles of which `loops` are whiles; each arm of an if or while
        checks in a scope of its own."""
        for stmt in stmts:
            self.lines.add(stmt.line)
            if isinstance(stmt, (If, While)):
                loop = isinstance(stmt, While)
                if loops + loop > MAX_LOOP_DEPTH:
                    raise ParseError(f"loops nested more than "
                                     f"{MAX_LOOP_DEPTH} deep",
                                     stmt.line, stmt.col)
                if depth + 1 + loop > MAX_STMT_DEPTH:
                    raise ParseError(f"statements nested more than "
                                     f"{MAX_STMT_DEPTH} deep",
                                     stmt.line, stmt.col)
                self.cond(stmt.cond, scope, depth + loop)
                for arm in ((stmt.body,) if loop else (stmt.then, stmt.els)):
                    self.stmts(arm, set(scope), depth + 1, loops + loop)
            elif (isinstance(stmt, Assign) and isinstance(stmt.target, Var)
                  and stmt.target.name not in self.pointers):
                # an assignment (a declaration among them) may bind a name
                self.expr(stmt.expr, scope, depth)
                scope.add(stmt.target.name)
            else:
                # a write through a pointer or to a bare one, a return or
                # a call
                for child in children(stmt):
                    self.expr(child, scope, depth)
