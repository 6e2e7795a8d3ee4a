"""The benchmark (`perfbench/run.py`, `oracle.py` and `tracer.py`) reaches
mexec through module attributes: `mx.<module>.<name>`, or a tracer patch
`_patch(mx.<module>, "<name>", ...)`.  Some of those names are kept only
for the benchmark, so a change that trims one must fail here, not in a
benchmark run."""

import importlib
import re
import sys

from conftest import BENCH

FILES = ("run.py", "oracle.py", "tracer.py")
_USES = (re.compile(r"\bmx\.(\w+)\.(\w+)"),
         re.compile(r"_patch\(\s*mx\.(\w+),\s*\"(\w+)\""))


def benchmark_names():
    """Every (module, name) the benchmark's files reach mexec through."""
    names = set()
    for name in FILES:
        text = (BENCH.parent / "perfbench" / name).read_text(encoding="utf-8")
        for use in _USES:
            names.update(use.findall(text))
    return names


def fresh_modules(modules):
    """`mexec.<module>` for each of `modules`, imported afresh; the
    modules imported before are put back afterwards."""
    saved = {name: module for name, module in sys.modules.items()
             if name == "mexec" or name.startswith("mexec.")}
    for name in saved:
        del sys.modules[name]
    try:
        return {m: importlib.import_module(f"mexec.{m}") for m in modules}
    finally:
        for name in [n for n in sys.modules
                     if n == "mexec" or n.startswith("mexec.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_name_the_benchmark_uses_resolves_on_a_fresh_import():
    names = benchmark_names()
    # the names kept only for the benchmark are among those found
    assert {("interp", "conditional_counts"), ("interp", "pen"),
            ("transforms", "prepare"), ("driver", "Objective")} <= names
    modules = fresh_modules({module for module, _ in names})
    missing = sorted(f"mexec.{module}.{name}" for module, name in names
                     if not hasattr(modules[module], name))
    assert not missing
