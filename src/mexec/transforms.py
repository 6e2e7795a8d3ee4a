"""`prepare`, kept as the identity.

`lang.parse` is the one check a program passes before it runs, the
pointer rule included, and every layer reads its labeled AST as it is.
"""


def prepare(program):
    """Return `program` itself: `parse` has already checked it."""
    return program
