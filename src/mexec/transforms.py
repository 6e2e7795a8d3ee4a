"""The check a parsed program passes before it runs.

Every layer reads the parser's labeled AST as it is: the engine reads
and writes `*p` like a scalar `p`, and the parser has already dropped
`(real)` casts, since every value is a real.  What makes reading `*p`
as `p` sound is the pointer rule, which `prepare` enforces.
"""

from .errors import UnsupportedPointerUse
from .lang import Compare, Decl, Deref, Var, walk


def _check_pointers(fn):
    """A pointer parameter of `fn` appears bare only as a whole
    comparison operand, and `*` applies only to pointer parameters."""
    pointers = {name for name, kind in fn.params if kind == "ptr"}
    operands = set()    # ids of the bare variables compared as a whole
    for node in walk(fn.body):
        if isinstance(node, Compare):
            operands.update(id(side) for side in (node.lhs, node.rhs)
                            if isinstance(side, Var))
        elif (isinstance(node, Var) and node.name in pointers
              and id(node) not in operands):
            raise UnsupportedPointerUse(
                f"pointer {node.name!r} used without '*'",
                node.line, node.col)
        elif isinstance(node, Deref) and node.name not in pointers:
            raise UnsupportedPointerUse(
                f"{node.name!r} is not a pointer parameter",
                node.line, node.col)
        elif isinstance(node, Decl) and node.name in pointers:
            raise UnsupportedPointerUse(
                f"pointer {node.name!r} declared again",
                node.line, node.col)


def prepare(program):
    """Check the pointer rule in every function and return `program`
    itself, unchanged."""
    for fn in program.functions:
        _check_pointers(fn)
    return program
