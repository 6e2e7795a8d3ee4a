"""Tests of the benchmark itself.

    python -m pytest perfbench/tests

Smoke runs use `--tiny` (one round, restart budgets of 2) so that every
workload finishes in a few seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=3, hash_seed="0", cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    return done


def parsed(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["header"], json.loads(lines[-1])


def test_spec_lists_graded_workloads_only():
    assert set(NAMES) < set(workloads.NAMES)
    assert "hard-cover" not in NAMES


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    header, result = parsed(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, header["problems"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_counts_and_fingerprint_do_not_depend_on_hash_seed(workload):
    exact = ("evals", "starts", "branch_pct", "goal_share")
    seen = []
    for hash_seed in ("0", "1", "2", "0"):
        header, result = parsed(bench(workload, hash_seed=hash_seed))
        seen.append((header["fingerprint"],
                     [result["metrics"][k]["value"] for k in exact]))
    assert all(s == seen[0] for s in seen), seen


def test_traced_run_matches_untraced_fingerprint():
    plain, _ = parsed(bench("solve-mix", trace=0))
    traced, result = parsed(bench("solve-mix", trace=1))
    assert traced["fingerprint"] == plain["fingerprint"]
    metrics = result["metrics"]
    shares = sum(metrics[f"{layer}.self_share"]["value"]
                 for layer in run.LAYERS)
    assert shares + metrics["trace.unattributed_share"]["value"] == (
        pytest.approx(1.0))
    assert 0.0 <= metrics["trace.unattributed_share"]["value"] < 0.2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = bench("corpus-cover", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_raising_run_is_counted_and_the_workload_goes_on():
    def crash(*_args):
        raise RecursionError("maximum recursion depth exceeded")

    mx = SimpleNamespace(driver=SimpleNamespace(
        SearchConfig=lambda **kw: SimpleNamespace(**kw), run_coverage=crash))
    programs = {"p": SimpleNamespace(program=None, entry="f",
                                     uninstrumentable=0)}
    outcome = run.execute_run(mx, programs, {}, workloads.Run("cover", "p", 1))
    assert outcome.error == "RecursionError"
    assert outcome.seconds >= 0.0


def test_constraint_evaluator_is_independent_of_satcheck():
    assert oracle.constraint_holds("x*y == 12 && x + y == 7", ["x", "y"],
                                   [3.0, 4.0])
    assert not oracle.constraint_holds("x*y == 12 && x + y == 7", ["x", "y"],
                                       [2.0, 6.0])
    assert oracle.constraint_holds("2^x <= 5 && x*x >= 5 && x >= 0", ["x"],
                                   [2.3])
    assert not oracle.constraint_holds("-x ^ 2 >= 0", ["x"], [3.0])


def test_check_rejects_a_wrong_sat_model():
    bad = SimpleNamespace(verdict="sat", model=[2.0, 6.0],
                          variables=["x", "y"])
    run_ = workloads.Run("sat", "x*y == 12 && x + y == 7", 1)
    found = oracle.check(None, run_, None, None, bad, "")
    assert found and "violates" in found[0]


def test_run_lists_depend_only_on_the_workload_seed():
    for name in NAMES:
        assert workloads.build(name, 5).runs == workloads.build(name, 5).runs
        assert workloads.build(name, 5).runs != workloads.build(name, 6).runs


def test_fact_rec_still_raises_so_it_stays_out_of_hard_cover():
    """fact_rec is kept out of hard-cover because a workload must be one
    on which no run fails.  This shows the known defect at this commit:
    the interpreter recurses in Python and the search tries inputs deep
    enough to exhaust its stack.  When this test fails the defect is
    fixed, and fact_rec can go back into `workloads.HARD`."""
    mx = run.import_mexec()
    listing = SimpleNamespace(programs=lambda: ["fact_rec"],
                              constraints=lambda: [])
    prog = run.load(mx, listing)[0]["fact_rec"]
    assert "fact_rec" not in workloads.HARD
    with pytest.raises(RecursionError):
        mx.driver.run_coverage(prog.program, prog.entry,
                               mx.driver.SearchConfig(seed=1, n_start=4))


def test_reference_units_divide_by_the_reference_around_each_run():
    # two passes of two runs; the host is twice as slow around run 0 of
    # the second pass, and half-way back to fast just after it
    per_pass = [[0.010, 0.020], [0.020, 0.030]]
    refs = [[0.001, 0.001, 0.001], [0.002, 0.002, 0.001]]
    assert run.in_reference_units(per_pass, refs) == pytest.approx(
        [10.0, 20.0])


@pytest.mark.parametrize("seed", [1, 2])
def test_loop_guard_branch_is_still_deemed_infeasible(seed):
    """hard-cover, which holds loop_guard, is not graded; this shows the
    known defect at this commit: `i == 37` is reachable (x in
    (576, 592]) but the search marks it infeasible."""
    mx = run.import_mexec()
    listing = SimpleNamespace(programs=lambda: ["loop_guard"],
                              constraints=lambda: [])
    prog = run.load(mx, listing)[0]["loop_guard"]
    result = mx.driver.run_coverage(
        prog.program, prog.entry, mx.driver.SearchConfig(seed=seed, n_start=4))
    assert (1, "T") in {(label, side)
                        for label, side in result.state.infeasible}
