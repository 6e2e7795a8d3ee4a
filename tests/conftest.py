import contextlib
import math
import pathlib
from unittest import mock

import pytest
from hypothesis import settings

from mexec import interp, native
from mexec.lang import parse
from mexec.optimize import Objective
from mexec.transforms import prepare

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

# the same examples on every run, so a failure reproduces, and no
# per-example deadline, so a slow host does not fail a test
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")

# one line per end-to-end acceptance check, shown after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class _Forgetful(dict):
    """A line-search record that keeps nothing."""

    def __setitem__(self, key, value):
        pass


@contextlib.contextmanager
def no_search_record():
    """Within the block, every Objective made runs each line search it
    is asked for, as a search without the record would.  Its sources
    stay on Python, whose Powell keeps the record this turns off (the C
    one keeps its own)."""
    init = Objective.__init__

    def forgetful_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.searches = _Forgetful()

    with mock.patch.object(Objective, "__init__", forgetful_init), \
            backend("python"):
        yield


def counting_compiles():
    """Within the block, the mock it gives counts each unit of code
    `interp` compiles."""
    return mock.patch.object(interp, "_compile", wraps=interp._compile)


def backend(name):
    """Within the block, every fast source and constraint runs on `name`:
    "python" for its Python flavour throughout, "c" for its C build from
    its first restart on (native.HOT_RUNS 0)."""
    return mock.patch.object(native, "HOT_RUNS",
                             {"python": math.inf, "c": 0}[name])


def load(name):
    """Parse and normalize a benchmark program."""
    source = (BENCH / name).read_text(encoding="utf-8")
    return prepare(parse(source))


@pytest.fixture
def foo():
    return load("foo.mx")


@pytest.fixture
def foo_infeasible():
    return load("foo_infeasible.mx")


@pytest.fixture
def k_cos():
    return load("k_cos.mx")
