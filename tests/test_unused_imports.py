"""Every name a module of the package imports is read in that module.

`__init__.py` re-exports what it imports, and an import marked
`# noqa: F401` is kept on purpose, so neither is checked; instead
`__all__` must list what `__init__.py` imports, and only names that
resolve.
"""

import ast
import pathlib

import pytest

import mexec

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mexec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """The names the module `text` imports and never reads, in order."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    text = ("import math\n"
            "import os.path\n"
            "from typing import Optional\n"
            "from .saturation import pen  # noqa: F401\n"
            "from .lang import (\n"
            "    Block, If,\n"
            ")\n"
            "x: Block = math.pi\n")
    assert unused_imports(text) == ["os", "Optional", "If"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_all_lists_every_import_of_the_package_and_each_resolves():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported <= set(mexec.__all__)
    assert [name for name in mexec.__all__
            if not hasattr(mexec, name)] == []
