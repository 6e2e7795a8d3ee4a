"""The benchmark's tracer patches mexec functions by module attribute
name (`perfbench/tracer.py`).  A name that disappears, or that a module
stops looking up at call time, breaks the traced benchmark; this test
makes such a refactor fail here instead."""

import contextlib
import importlib
import importlib.util
import sys
from types import SimpleNamespace

from conftest import BENCH
from mexec.driver import SearchConfig
from mexec.satcheck import check_sat, parse_constraint

TRACER_PATH = BENCH.parent / "perfbench" / "tracer.py"
MODULES = ("lang", "transforms", "cfg", "interp", "saturation", "optimize",
           "driver", "satcheck", "report")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def traced_mexec():
    """A fresh import of mexec's modules with the tracer installed; the
    tracer, and the modules as `mx`."""
    saved = {name: module for name, module in sys.modules.items()
             if name == "mexec" or name.startswith("mexec.")}
    for name in saved:
        del sys.modules[name]
    try:
        mx = SimpleNamespace(**{m: importlib.import_module(f"mexec.{m}")
                                for m in MODULES})
        tracer = _load_tracer().Tracer(keep_spans=False)
        tracer.install(mx)
        try:
            yield tracer, mx
        finally:
            tracer.uninstall()
    finally:
        for name in [n for n in sys.modules
                     if n == "mexec" or n.startswith("mexec.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_tracer_records_the_search_layers():
    with traced_mexec() as (tracer, mx):
        program = mx.transforms.prepare(mx.lang.parse(
            (BENCH / "foo.mx").read_text(encoding="utf-8")))
        cfg = mx.driver.SearchConfig(seed=1, n_start=2)
        mx.driver.run_coverage(program, "FOO", cfg)
        mx.satcheck.check_sat(mx.satcheck.parse_constraint("x*x == 4"), cfg)
    for span in ("lang.parse", "transforms.prepare",
                 "driver.run_coverage", "satcheck.check_sat", "cfg.build",
                 "driver.minimize_once", "optimize.basinhopping",
                 "driver.objective", "satcheck.objective", "driver.replay"):
        assert tracer.calls[span] > 0, span


def test_the_line_span_counts_every_requested_line_search():
    """On a run whose restarts ask some line searches again, the span
    still counts each one asked, as it did before the objectives kept a
    record of them."""
    with traced_mexec() as (tracer, mx):
        made = []

        class Recorded(mx.driver.Objective):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        mx.driver.Objective = Recorded
        program = mx.lang.parse(
            (BENCH / "k_cos.mx").read_text(encoding="utf-8"))
        mx.driver.run_coverage(program, "kernel_cos",
                               mx.driver.SearchConfig(seed=0))
    assert tracer.calls["optimize.line"] == 117
    assert sum(len(o.searches) for o in made) == 93
    for span in ("driver.objective", "optimize.basinhopping"):
        assert tracer.calls[span] > 0, span


SAT_CASES = ("x*y == 12 && x + y == 7", "x*x == 2", "sin(x) > 0.5 && x < -2")


def _sat_outcome(result):
    return (result.verdict, repr(result.model), repr(result.residual),
            result.eval_count)


def test_the_traced_generic_sat_path_gives_the_untraced_result():
    """Traced, `sat` evaluates through the tracer's wrapper of the
    constraint's function, a plain function of the point, so every
    evaluation is a point call of the representing function; the
    verdict, model, residual and request count are those of the
    generated runner untraced."""
    untraced = [_sat_outcome(check_sat(parse_constraint(text),
                                       SearchConfig(seed=3, n_start=6)))
                for text in SAT_CASES]
    with traced_mexec() as (tracer, mx):
        traced = [_sat_outcome(mx.satcheck.check_sat(
            mx.satcheck.parse_constraint(text),
            mx.driver.SearchConfig(seed=3, n_start=6)))
            for text in SAT_CASES]
    assert tracer.calls["satcheck.objective"] > 0
    assert traced == untraced
    assert {verdict for verdict, *_ in untraced} == {"sat", "unknown"}
