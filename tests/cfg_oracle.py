"""Reference CFG builder, the oracle for `mexec.cfg.build_cfg`.

It inlines every call at its call site, keeps one node per conditional
occurrence reachable from the entry function (recursive calls are
treated as opaque), and takes the descendants of a branch edge as the
labels a DFS reaches from that edge.  This graph grows exponentially
with call depth, so the tests use it only on small programs; it is not
shipped.
"""

from dataclasses import dataclass, field

from mexec.errors import UnknownFunction
from mexec.lang import (
    Assign, Call, ExprStmt, If, Return, While, children,
)


class _Node:
    """A conditional occurrence (label is None for a conditional that
    compares a bare pointer: it passes reachability through without
    owning branches)."""

    __slots__ = ("label", "t_succ", "f_succ")

    def __init__(self, label):
        self.label = label
        self.t_succ = None
        self.f_succ = None


_EXIT = object()


@dataclass
class CFG:
    labels: frozenset
    branches: frozenset
    descendant: dict
    num_conditionals: int = field(init=False)

    def __post_init__(self):
        self.num_conditionals = len(self.labels)


def _user_calls(expr, user_fns):
    """User-function calls in `expr` in evaluation order: the calls in a
    call's arguments come before the call itself."""
    calls = []
    for child in children(expr):
        calls += _user_calls(child, user_fns)
    if isinstance(expr, Call) and expr.name in user_fns:
        calls.append(expr)
    return calls


class _Builder:
    def __init__(self, program):
        self.program = program
        self.user_fns = {f.name: f for f in program.functions}
        self.nodes = []
        self.calls = {}     # id(expression) -> its user calls

    def build(self, entry):
        fn = self.user_fns.get(entry)
        if fn is None:
            raise UnknownFunction(f"no function named {entry!r}")
        return self._inline_body(fn, _EXIT, (entry,))

    def _inline_body(self, fn, succ, stack):
        # a return inside fn jumps to succ, i.e. back to the caller site
        return self._seq(fn.body, succ, succ, stack)

    def _seq(self, stmts, succ, exit_cont, stack):
        entry = succ
        for stmt in reversed(stmts):
            entry = self._stmt(stmt, entry, exit_cont, stack)
        return entry

    def _chain_calls(self, expr, succ, stack):
        # a function inlined at several sites is walked once
        calls = self.calls.get(id(expr))
        if calls is None:
            calls = self.calls[id(expr)] = _user_calls(expr, self.user_fns)
        entry = succ
        for call in reversed(calls):
            if call.name in stack:
                continue    # recursive call, treated as opaque
            fn = self.user_fns[call.name]
            entry = self._inline_body(fn, entry, stack + (call.name,))
        return entry

    def _stmt(self, stmt, succ, exit_cont, stack):
        if isinstance(stmt, Assign):
            return self._chain_calls(stmt.expr, succ, stack)
        if isinstance(stmt, ExprStmt):
            return self._chain_calls(stmt.expr, succ, stack)
        if isinstance(stmt, Return):
            return self._chain_calls(stmt.expr, exit_cont, stack)
        if isinstance(stmt, If):
            node = _Node(stmt.cond.label)
            self.nodes.append(node)
            node.t_succ = self._seq(stmt.then, succ, exit_cont, stack)
            node.f_succ = self._seq(stmt.els, succ, exit_cont, stack)
            return self._chain_calls(stmt.cond, node, stack)
        if isinstance(stmt, While):
            node = _Node(stmt.cond.label)
            self.nodes.append(node)
            cond_entry = self._chain_calls(stmt.cond, node, stack)
            node.t_succ = self._seq(stmt.body, cond_entry, exit_cont, stack)
            node.f_succ = succ
            return cond_entry
        raise TypeError(f"unhandled statement {stmt!r}")


def _reachable_labels(start):
    """Labels of all conditionals reachable from a CFG point."""
    seen = set()
    labels = set()
    work = [start]
    while work:
        point = work.pop()
        if point is _EXIT or id(point) in seen:
            continue
        seen.add(id(point))
        if point.label is not None:
            labels.add(point.label)
        work.append(point.t_succ)
        work.append(point.f_succ)
    return labels


def build_cfg(program, entry):
    """Build the CFG of `entry` with user calls inlined."""
    builder = _Builder(program)
    builder.build(entry)

    labels = {n.label for n in builder.nodes if n.label is not None}
    branches = frozenset(
        (label, side) for label in labels for side in ("T", "F"))

    descendant = {b: set() for b in branches}
    for node in builder.nodes:
        if node.label is None:
            continue
        for side, succ in (("T", node.t_succ), ("F", node.f_succ)):
            for lbl in _reachable_labels(succ):
                descendant[(node.label, side)].add((lbl, "T"))
                descendant[(node.label, side)].add((lbl, "F"))
    descendant = {b: frozenset(s) for b, s in descendant.items()}

    return CFG(labels=frozenset(labels), branches=branches,
               descendant=descendant)
