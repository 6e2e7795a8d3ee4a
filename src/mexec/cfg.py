"""The descendant relation over labeled conditionals.

Branch ids are (label, side) pairs with side 'T' or 'F'.  The
descendant relation maps a branch edge to every branch of every
conditional an execution can reach after taking that edge: a call
continues into the callee's conditionals and, once it returns, into
the caller's.  Recursive calls are treated as opaque.

No graph is built.  One backward walk from the end of the entry
function carries the set of labels reachable after the current point:
a conditional records the sets after its two sides, a loop walks its
body again until the set before the loop stops growing, and a call
walks the callee's body with the set after the call as the set at the
callee's returns.  That walk is memoised on (callee, set after the
call, functions being walked), so each body is walked once per distinct
continuation, and the relation itself is kept on the Program, so each
entry of a parsed program is walked once.
"""

from dataclasses import dataclass

from .errors import MexecError, UnknownFunction
from .lang import Call, If, Return, While, children, memoised


@dataclass(frozen=True)
class CFG:
    labels: frozenset
    branches: frozenset
    descendant: dict


class _Walk:
    """The backward walk of one build.  `after` is the frozenset of
    labels reachable after the current point, `ret` the one at a
    return of the function being walked, and `open_` the frozenset of
    functions being walked, whose calls are recursive."""

    def __init__(self, program):
        self.user_fns = {f.name: f for f in program.functions}
        self.reach = {}     # branch -> labels reachable after it
        self.bodies = {}    # (function, after, open_) -> labels at entry

    def call(self, name, after, open_):
        key = (name, after, open_)
        if key not in self.bodies:
            self.bodies[key] = self.stmts(self.user_fns[name].body, after,
                                          after, open_ | {name})
        return self.bodies[key]

    def expr(self, expr, after, open_):
        """The labels reachable before `expr`: its user calls run in
        post-order, the calls in a call's arguments before the call."""
        if (isinstance(expr, Call) and expr.name in self.user_fns
                and expr.name not in open_):
            after = self.call(expr.name, after, open_)
        for child in reversed(list(children(expr))):
            after = self.expr(child, after, open_)
        return after

    def branch(self, cond, after_t, after_f):
        """Record the labels after each side of `cond`; return those
        reachable from the conditional itself.  A conditional without
        a label passes reachability through without owning branches."""
        reached = after_t | after_f
        if cond.label is None:
            return reached
        self.reach.setdefault((cond.label, "T"), set()).update(after_t)
        self.reach.setdefault((cond.label, "F"), set()).update(after_f)
        return reached | {cond.label}

    def stmts(self, stmts, after, ret, open_):
        """The labels reachable before the statement list `stmts`."""
        for stmt in reversed(stmts):
            if isinstance(stmt, If):
                after_t = self.stmts(stmt.then, after, ret, open_)
                after_f = self.stmts(stmt.els, after, ret, open_)
                after = self.expr(stmt.cond, self.branch(
                    stmt.cond, after_t, after_f), open_)
            elif isinstance(stmt, While):
                # the body continues at the loop test; iterate from below
                # to the least set that is stable around the loop
                exit_, before = after, None
                while before != after:
                    before = after
                    after_t = self.stmts(stmt.body, before, ret, open_)
                    after = self.expr(stmt.cond, self.branch(
                        stmt.cond, after_t, exit_), open_)
            else:
                # an assignment, call or return: its calls
                if isinstance(stmt, Return):
                    after = ret
                for child in reversed(list(children(stmt))):
                    after = self.expr(child, after, open_)
        return after


def build_cfg(program, entry):
    """The labels, branches and descendant relation of `entry`, with
    user calls followed into their callees.  Built once per program and
    entry: every later call returns the same CFG, which callers only
    read."""
    return memoised(program, ("cfg", entry), lambda: _build(program, entry))


def _build(program, entry):
    if program.function(entry) is None:
        raise UnknownFunction(f"no function named {entry!r}")
    walk = _Walk(program)
    try:
        walk.call(entry, frozenset(), frozenset())
    except RecursionError:
        raise MexecError(f"cannot build the CFG of {entry}: user calls "
                         "nested too deeply") from None
    descendant = {
        branch: frozenset((label, side) for label in labels
                          for side in ("T", "F"))
        for branch, labels in walk.reach.items()}
    labels = frozenset(label for label, _side in descendant)
    return CFG(labels=labels, branches=frozenset(descendant),
               descendant=descendant)
