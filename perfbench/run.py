"""Benchmark of the mexec search, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus-cover --seed 1 \
        --seconds 36 --trace 0

Runs the workload's fixed list of runs through the public library API,
the calls the CLI makes: `prepare(parse(...))`, then `run_coverage`,
`run_path`, `run_bva` or `check_sat`, then `coverage_report` and
`to_json`.  The list is repeated while another pass fits in
`--seconds`; every pass must reproduce the first pass's fingerprint.
One process, one thread.  Run times are reported in units of a fixed
reference task timed around every run (`reference.py`), so that the
host's drift in speed cancels; the header also gives raw seconds.

With `--trace 0` the last line of standard output is the JSON result
with the end-to-end metrics; with `--trace 1` untraced and traced
passes alternate and the result holds the per-layer metrics.  The line
before it is a header with the run counts, the fingerprint and the
environment.  Both are also written under perfbench/results/.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import oracle
import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MODULES = ("lang", "transforms", "cfg", "interp", "saturation", "optimize",
           "driver", "satcheck", "report")
LAYERS = ("driver", "cfg", "optimize", "interp", "saturation", "satcheck",
          "report")
SETUP_REPEATS = 15
MIN_PASSES = 4      # passes the tail percentile is sized for
# the reference task's time between runs on the 2-CPU host the benchmark
# was tuned on, when fast; it turns set-up time in reference units into
# seconds at that host's speed
REF_SECONDS = 2.0e-3

clock = time.perf_counter


class BenchError(Exception):
    pass


@dataclass
class Outcome:
    result: object = None
    report: str = ""
    error: Optional[str] = None     # exception type name if the run raised
    seconds: float = 0.0


# -- set-up

def import_mexec():
    """Import mexec afresh from the checkout's src/ and return its
    modules; earlier imports are dropped so each set-up pays in full."""
    for name in [n for n in sys.modules
                 if n == "mexec" or n.startswith("mexec.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("mexec")
    if Path(package.__file__).resolve().parent != src / "mexec":
        raise BenchError(f"mexec imported from {package.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"mexec.{m}")
                              for m in MODULES})


def load(mx, workload):
    """Read, parse and prepare every program, and parse every
    constraint, of the workload."""
    programs = {}
    for name in workload.programs():
        text = workloads.program_path(ROOT, name).read_text(encoding="utf-8")
        program = mx.transforms.prepare(mx.lang.parse(text))
        _, uninstrumentable = mx.interp.conditional_counts(program)
        programs[name] = SimpleNamespace(
            program=program, entry=program.functions[-1].name,
            uninstrumentable=uninstrumentable)
    constraints = {text: mx.satcheck.parse_constraint(text)
                   for text in workload.constraints()}
    return programs, constraints


def setup(workload):
    start = clock()
    mx = import_mexec()
    programs, constraints = load(mx, workload)
    return clock() - start, mx, programs, constraints


# -- runs

def search_config(mx, run):
    return mx.driver.SearchConfig(seed=run.seed, n_start=run.n_start)


def execute_run(mx, programs, constraints, run):
    """One run: the mode call plus its report.  An exception ends the
    run, which is counted as failed, and the workload goes on."""
    cfg = search_config(mx, run)
    start = clock()
    try:
        if run.mode == "sat":
            result = mx.satcheck.check_sat(constraints[run.source], cfg)
            report = json.dumps(asdict(result))
        else:
            prog = programs[run.source]
            if run.mode == "cover":
                result = mx.driver.run_coverage(prog.program, prog.entry, cfg)
            elif run.mode == "path":
                result = mx.driver.run_path(prog.program, prog.entry,
                                            run.target, cfg)
            else:
                result = mx.driver.run_bva(prog.program, prog.entry, cfg)
            report = mx.report.to_json(mx.report.coverage_report(
                result, prog.program, prog.entry, prog.uninstrumentable))
    except Exception as exc:  # a crashing run is data, not the end
        return Outcome(error=type(exc).__name__, seconds=clock() - start)
    return Outcome(result, report, None, clock() - start)


def run_pass(mx, programs, constraints, runs, tracer=None, refs=None):
    """Run the list once.  With `refs`, the reference task is timed
    before every run and after the last, and its seconds appended
    there."""
    call = execute_run
    if tracer is not None:
        call = tracer.span("bench.run", execute_run)
    start = clock()
    outcomes = []
    for run in runs:
        if refs is not None:
            refs.append(reference.timed())
        outcomes.append(call(mx, programs, constraints, run))
    if refs is not None:
        refs.append(reference.timed())
    return clock() - start, outcomes


def fingerprint(runs, outcomes):
    return oracle.fingerprint([oracle.record(run, outcome)
                               for run, outcome in zip(runs, outcomes)])


def check_pass(mx, programs, runs, outcomes):
    """Independent checks of every run that returned: the problems found
    and the number of runs that failed them."""
    problems, failing = [], 0
    for run, outcome in zip(runs, outcomes):
        if outcome.error is not None:
            continue
        found = oracle.check(mx, run, programs.get(run.source),
                             search_config(mx, run), outcome.result,
                             outcome.report)
        failing += bool(found)
        problems += [f"{run.mode} {run.source} seed {run.seed}: {p}"
                     for p in found]
    return problems, failing


# -- metrics

def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(runs_per_pass):
    """The highest whole percentile with at least 10 timed samples beyond
    it when the list is run MIN_PASSES times, but at least p75; it is
    taken over the list's runs, each standing for its samples.  It
    depends only on the list, so it does not move when a faster program
    fits more passes; the header states how many runs of the list lie
    beyond it."""
    timed = runs_per_pass * MIN_PASSES
    return max(0.75, math.floor(100 * (1 - 10 / timed)) / 100)


def _ratio(num, den):
    return num / den if den else 0.0


def goal_reached(mx, run, outcome):
    if outcome.error is not None:
        return False
    if run.mode == "cover":
        return mx.saturation.goal_reached(outcome.result.state)
    if run.mode == "path":
        return outcome.result.found is not None
    return outcome.result.verdict == "sat"


def search_counts(mx, runs, outcomes):
    """Exact counts of one pass: evaluations, restarts, coverage, goals."""
    ok = [o.result for o in outcomes if o.error is None]
    coverage = [json.loads(o.report)["branch_pct"] if o.error is None
                else 0.0
                for run, o in zip(runs, outcomes) if run.mode != "sat"]
    with_goal = [(r, o) for r, o in zip(runs, outcomes) if r.mode != "bva"]
    return {
        "evals": sum(r.eval_count for r in ok),
        "starts": sum(r.starts_used for r in ok),
        "branch_pct": statistics.fmean(coverage) if coverage else 0.0,
        "goal_share": _ratio(sum(goal_reached(mx, r, o)
                                 for r, o in with_goal), len(with_goal)),
    }


def in_reference_units(per_pass, refs_per_pass):
    """Each run's time in reference units: the median over the passes of
    its seconds divided by the mean of the reference timings taken just
    before and just after it."""
    return [statistics.median(
        seconds[i] / ((pass_refs[i] + pass_refs[i + 1]) / 2)
        for seconds, pass_refs in zip(per_pass, refs_per_pass))
        for i in range(len(per_pass[0]))]


def end_to_end(mx, workload, setup_s, typical, first):
    """`typical` holds each run's time in reference units.  The passes
    repeat the list exactly, so a run's repeats differ only by host
    noise and the percentiles are over the runs of the list."""
    counts = search_counts(mx, workload.runs, first)
    wall = sum(typical)
    times = sorted(typical)
    q = tail_quantile(len(workload.runs))
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall, "ref"),
        "run_ref.p50": (statistics.median(times), "ref"),
        "run_ref.tail": (quantile(times, q), "ref"),
        "evals_per_ref": (counts["evals"] / wall, "1/ref"),
        "evals": (counts["evals"], "count"),
        "starts": (counts["starts"], "count"),
        "branch_pct": (counts["branch_pct"], "%"),
        "goal_share": (counts["goal_share"], "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(workload, first, tracer, setup_tracer, traced, untraced):
    calls, total = tracer.calls, tracer.total
    self_time, counters = tracer.self_time, tracer.counters
    wall = traced[0]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_time.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    executes = tracer.durations("interp.execute")
    admitted = sum(len(o.result.inputs) if r.mode != "sat"
                   else o.result.verdict == "sat"
                   for r, o in zip(workload.runs, first) if o.error is None)
    metrics = {
        "lang.parse_s": (setup_tracer.total["lang.parse"]
                         + setup_tracer.total["lang.parse_constraint"], "s"),
        "transforms.prepare_s": (setup_tracer.total["transforms.prepare"],
                                 "s"),
        "cfg.build_s": (total["cfg.build"], "s"),
        "cfg.build_calls": (calls["cfg.build"], "count"),
        "cfg.descendant_pairs": (counters["cfg.descendant_pairs"], "count"),
        "interp.execute_calls": (calls["interp.execute"], "count"),
        "interp.execute_self_s": (self_time["interp.execute"], "s"),
        "interp.execute_us.p50": (
            statistics.median(executes) * 1e6 if executes else 0.0, "us"),
        "interp.steps_per_call": (
            _ratio(counters["interp.steps"], calls["interp.execute"]),
            "count"),
        "interp.abort_share": (
            _ratio(counters["interp.aborts"], calls["interp.execute"]),
            "share"),
        "saturation.pen_calls": (calls["saturation.pen"], "count"),
        "saturation.pen_self_share": (
            _ratio(self_time["saturation.pen"], wall), "share"),
        "saturation.update_calls": (calls["saturation.update"], "count"),
        "saturation.update_share": (
            _ratio(total["saturation.update"], wall), "share"),
        "optimize.powell_calls": (calls["optimize.powell"], "count"),
        "optimize.line_searches": (calls["optimize.line"], "count"),
        "optimize.self_s": (layer_self["optimize"], "s"),
        "optimize.evals_per_powell": (
            _ratio(counters["optimize.powell_evals"],
                   calls["optimize.powell"]), "count"),
        "driver.starts": (calls["driver.minimize_once"], "count"),
        "driver.admit_share": (
            _ratio(admitted, calls["driver.minimize_once"]), "share"),
        "driver.snap_calls": (calls["driver.snap"], "count"),
        "driver.snap_hit_share": (
            _ratio(counters["driver.snap_hits"], calls["driver.snap"]),
            "share"),
        "driver.snap_s": (total["driver.snap"], "s"),
        "driver.replay_calls": (calls["driver.replay"], "count"),
        "driver.replay_s": (total["driver.replay"], "s"),
        "driver.infeasible_marks": (counters["driver.infeasible_marks"],
                                    "count"),
        "driver.self_s": (layer_self["driver"], "s"),
        "satcheck.objective_calls": (calls["satcheck.objective"], "count"),
        "satcheck.objective_self_share": (
            _ratio(self_time["satcheck.objective"], wall), "share"),
        "report.s": (layer_self["report"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_share": (
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            "share"),
        "trace.unattributed_share": (
            1.0 - sum(layer_self.values()) / wall, "share"),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_share"] = (seconds / wall, "share")
    return metrics


# -- main

def src_line_count():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "mexec").glob("*.py")))


def measure(seconds, passes_so_far, one_pass):
    """Run passes until the next one would overrun `seconds`."""
    begin = clock()
    while True:
        passes_so_far.append(one_pass())
        elapsed = clock() - begin
        typical = statistics.median(p[0] for p in passes_so_far)
        if elapsed + typical > seconds:
            return


def summary(workload, first):
    """Per-program deemed-infeasible branches and raised exceptions,
    which is where the known defects show."""
    infeasible, raised = {}, {}
    for run, outcome in zip(workload.runs, first):
        if outcome.error is not None:
            raised.setdefault(run.source, set()).add(outcome.error)
        elif run.mode == "cover":
            infeasible.setdefault(run.source, set()).update(
                f"{label}{side}"
                for label, side in outcome.result.state.infeasible)
    return ({k: sorted(v) for k, v in sorted(infeasible.items()) if v},
            {k: sorted(v) for k, v in sorted(raised.items())})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one round with restart budgets of 2, for "
                             "smoke tests only")
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed, args.tiny)
    runs = workload.runs

    setup_seconds, setup_refs = [], [reference.timed()]
    try:
        for _ in range(SETUP_REPEATS):
            seconds, mx, programs, constraints = setup(workload)
            setup_seconds.append(seconds)
            setup_refs.append(reference.timed())
    except (ImportError, OSError, BenchError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    untraced, traced, refs = [], [], []
    prints = set()
    first = None
    tracer = setup_tracer = None
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install(mx)
        try:
            load(mx, workload)
        finally:
            setup_tracer.uninstall()

    def untraced_pass():
        nonlocal first
        pass_refs = None if args.trace else []
        wall, outcomes = run_pass(mx, programs, constraints, runs,
                                  refs=pass_refs)
        if pass_refs is not None:
            refs.append(pass_refs)
        if first is None:
            first = outcomes
        prints.add(fingerprint(runs, outcomes))
        return wall, [o.seconds for o in outcomes]

    def paired_pass():
        nonlocal tracer
        wall, seconds = untraced_pass()
        untraced.append(wall)
        pass_tracer = Tracer(keep_spans=tracer is None)
        pass_tracer.install(mx)
        try:
            traced_wall, outcomes = run_pass(mx, programs, constraints, runs,
                                             pass_tracer)
        finally:
            pass_tracer.uninstall()
        traced.append(traced_wall)
        prints.add(fingerprint(runs, outcomes))
        if tracer is None:
            tracer = pass_tracer
        return wall + traced_wall, seconds

    passes = []
    measure(args.seconds, passes, paired_pass if args.trace else untraced_pass)
    per_pass = [seconds for _, seconds in passes]
    raw = sorted(statistics.median(run) for run in zip(*per_pass))
    q = tail_quantile(len(runs))

    problems, failing = check_pass(mx, programs, runs, first)
    if len(prints) != 1:
        problems.append(f"passes disagree: fingerprints {sorted(prints)}")
    failed = sum(o.error is not None for o in first) + failing
    copies = len(passes) * (2 if args.trace else 1)   # each pass is alike

    if args.trace:
        metrics = per_layer(workload, first, tracer, setup_tracer, traced,
                            untraced)
    else:
        # the set-ups are one run made SETUP_REPEATS times
        setup_s = REF_SECONDS * in_reference_units(
            [[s] for s in setup_seconds],
            [setup_refs[k:k + 2] for k in range(len(setup_seconds))])[0]
        metrics = end_to_end(mx, workload, setup_s,
                             in_reference_units(per_pass, refs), first)
    infeasible, raised = summary(workload, first)
    header = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "runs_per_pass": len(runs),
        "passes": len(passes),
        "tail_percentile": round(100 * q),
        "runs_beyond_tail": len(runs) - math.ceil(q * len(runs)),
        "fingerprint": next(iter(prints)) if len(prints) == 1 else None,
        "failed_share": failed / len(runs), "raised": raised,
        "deemed_infeasible": infeasible, "problems": problems[:20],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_line_count(),
        "setup_raw_s": statistics.median(setup_seconds),
        "wall_s": sum(raw), "run_s.p50": statistics.median(raw),
        "run_s.tail": quantile(raw, q),
    }
    if refs:
        header["reference_ms.p50"] = statistics.median(
            r for pass_refs in refs for r in pass_refs) * 1e3
    result = {
        "correct": not problems,
        "attempted": len(runs) * copies,
        "failed": failed * copies,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {"seconds": per_pass, "reference_seconds": refs,
               "setup_seconds": setup_seconds,
               "setup_reference_seconds": setup_refs}
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"header": header, "result": result,
                    "samples": samples}, indent=2) + "\n",
        encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.csv.gz")
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
