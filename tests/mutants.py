"""The mutation gate: every check and speed trick in `src/` has a test
that fails without it.

Each mutant below replaces one piece of text in one file under `src/`.
For each, the script copies the repository's `src/`, `tests/`,
`benchmarks/` and `perfbench/` into a temporary directory, applies the
mutant there, runs `python -m pytest -x -q tests` on the copy (all but
`tests/test_mutants.py`), at most two at a time, and prints one line
per mutant.  A mutant is `killed`
when some test fails, `survived` when every test passes.  The script
exits 1 unless each mutant expected `killed` is killed and each one
marked `equivalent` survives.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

To add a mutant, append `(name, file, old, new, expected)` to MUTANTS:
`old` occurs exactly once in `file`, and `expected` is "killed", or
"equivalent: <reason>" for a mutant no test can tell apart from the
code, with the reason the code stays.  `tests/test_mutants.py` checks
that the list is well formed.

The method: R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on
Test Data Selection", IEEE Computer 11(4), 1978; Y. Jia and M. Harman,
"An Analysis and Survey of the Development of Mutation Testing", IEEE
TSE 37(5), 2011.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmarks", "perfbench")
JOBS = 2
# a mutant that makes a test loop for ever is killed by this timeout
TIMEOUT_S = 600

DRIVER = "src/mexec/driver.py"
INTERP = "src/mexec/interp.py"
OPTIMIZE = "src/mexec/optimize.py"
SATCHECK = "src/mexec/satcheck.py"
SATURATION = "src/mexec/saturation.py"

KILLED = "killed"

MUTANTS = [
    # -- aborts and sanitisers of the generated runner
    ("nan operand abort", INTERP,
     'return [f"if _a != _a or _b != _b: _nan(_a, {op!r}, _b)",',
     'return [f"if False: _nan(_a, {op!r}, _b)",', KILLED),
    ("step budget off by one", INTERP,
     'self.emit("if _n > _B: raise _StepBudgetExceeded")',
     'self.emit("if _n >= _B: raise _StepBudgetExceeded")', KILLED),
    ("call depth off by one", INTERP,
     'self.emit(f"if _dp > {MAX_CALL_DEPTH}: raise _CallDepthExceeded")',
     'self.emit(f"if _dp >= {MAX_CALL_DEPTH}: raise _CallDepthExceeded")',
     KILLED),
    ("runner abort reports 0", INTERP,
     '"except _ABORTS:",\n                   "    return _SENTINEL"])',
     '"except _ABORTS:",\n                   "    return 0.0"])', KILLED),
    ("constraint abort reports 0", INTERP,
     'core += ["    pass", "except _ABORTS:", "    return _SENTINEL"]',
     'core += ["    pass", "except _ABORTS:", "    return 0.0"]', KILLED),
    ("runner keeps any value", INTERP,
     'sanitise = [f"if {-sys.float_info.max!r} <= _r <= {SENTINEL!r}:",',
     'sanitise = ["if True:",', KILLED),
    ("runner keeps values above the sentinel", INTERP,
     'sanitise = [f"if {-sys.float_info.max!r} <= _r <= {SENTINEL!r}:",',
     'sanitise = [f"if {-sys.float_info.max!r} <= _r:",', KILLED),
    ("generic objective keeps NaN", OPTIMIZE,
     "if math.isnan(value) or math.isinf(value) or value > SENTINEL:",
     "if math.isinf(value) or value > SENTINEL:", KILLED),
    ("generic objective keeps -inf", OPTIMIZE,
     "if math.isnan(value) or math.isinf(value) or value > SENTINEL:",
     "if math.isnan(value) or value > SENTINEL:", KILLED),
    ("generic objective keeps values above the sentinel", OPTIMIZE,
     "if math.isnan(value) or math.isinf(value) or value > SENTINEL:",
     "if math.isnan(value) or math.isinf(value):", KILLED),
    ("overflowed power loses its sign", INTERP,
     "return -math.inf", "return math.inf", KILLED),
    ("overflowed builtin is NaN", INTERP,
     "except OverflowError:\n            return math.inf",
     "except OverflowError:\n            return math.nan", KILLED),
    ("division by a literal calls _div", INTERP,
     "if isinstance(e.rhs, Num) and e.rhs.value != 0:", "if False:",
     "equivalent: a nonzero literal divisor cannot raise, so the division "
     "is inline; it stays for speed: dispatch10's coverage objective took "
     "1.67 us per evaluation with it and 1.88 us without (least of 6 runs "
     "of 20,000 points, 2-CPU host)"),
    # -- aborts and sanitisers of trace()
    ("trace abort reports 0", INTERP,
     "            trace.final_r = SENTINEL\n"
     "            trace.aborted = _ABORTS[type(exc)]",
     "            trace.final_r = 0.0\n"
     "            trace.aborted = _ABORTS[type(exc)]", KILLED),
    ("trace abort names no reason", INTERP,
     "trace.aborted = _ABORTS[type(exc)]", "pass", KILLED),
    ("trace keeps a non-finite value unnamed", INTERP,
     "            if not math.isfinite(trace.final_r):\n"
     '                trace.aborted = "non-finite representing value"',
     "            if False:\n"
     '                trace.aborted = "non-finite representing value"',
     KILLED),
    ("trace keeps any value", INTERP,
     "if not -sys.float_info.max <= trace.final_r <= SENTINEL:",
     "if False:", KILLED),
    ("trace runs on int inputs", INTERP,
     "1, None, *(float(v) for v in inputs))", "1, None, *inputs)", KILLED),
    # -- admission, in all four modes
    ("cover admits without its replay's root", DRIVER,
     "        if trace.final_r == 0.0:\n"
     "            result.inputs.append(x)",
     "        if f == 0.0:\n"
     "            result.inputs.append(x)", KILLED),
    ("path replays a restart that ended above 0", DRIVER,
     "        if f != 0.0:\n            return False\n"
     "        trace = execute(repfun, x)",
     "        trace = execute(repfun, x)",
     "equivalent: the replay rejects the restart; the check spares a "
     "traced run of the entry per failed restart"),
    ("path admits without its replay's root", DRIVER,
     "        if (trace.final_r != 0.0\n                or tuple(",
     "        if (False\n                or tuple(", KILLED),
    ("path admits off the target", DRIVER,
     "or tuple(trace.path[:len(target)]) != target):", "):", KILLED),
    ("bva replays a restart that ended above 0", DRIVER,
     "if f == 0.0 and tuple(x) not in seen:",
     "if tuple(x) not in seen:",
     "equivalent: the replay rejects the restart; the check spares a "
     "traced run of the entry per failed restart"),
    ("bva admits an input twice", DRIVER,
     "if f == 0.0 and tuple(x) not in seen:", "if f == 0.0:", KILLED),
    ("bva admits without its replay's root", DRIVER,
     "            if trace.final_r == 0.0:\n"
     "                seen.add(tuple(x))",
     "            if True:\n"
     "                seen.add(tuple(x))", KILLED),
    ("sat admits without its replay", SATCHECK,
     "if f == 0.0 and _holds(constraint, x):", "if f == 0.0:", KILLED),
    ("sat replays a restart that ended above 0", SATCHECK,
     "if f == 0.0 and _holds(constraint, x):",
     "if _holds(constraint, x):",
     "equivalent: the replay rejects the restart; the check spares the "
     "replay of each failed restart"),
    ("sat replay execs a namespace of its own", SATCHECK,
     'constraint._memo.setdefault("holds", holds)', "pass", KILLED),
    ("restarts go on without inputs", DRIVER,
     "if admit(clamp(x_star, box), f_star) or not arity:",
     "if admit(clamp(x_star, box), f_star):", KILLED),
    ("admission sees the unclamped minimizer", DRIVER,
     "if admit(clamp(x_star, box), f_star) or not arity:",
     "if admit(x_star, f_star) or not arity:", KILLED),
    # -- the infeasible-branch heuristic and saturation
    ("infeasible deemed of a covered branch", SATURATION,
     "if branch in state.covered or branch in state.infeasible:",
     "if branch in state.infeasible:", KILLED),
    ("infeasible deemed again", SATURATION,
     "if branch in state.covered or branch in state.infeasible:",
     "if branch in state.covered:", KILLED),
    ("failure counts kept after an admission", DRIVER,
     "            failure_counts.clear()\n", "", KILLED),
    ("explored ignores infeasible descendants", SATURATION,
     "    done = covered | infeasible\n", "    done = covered\n", KILLED),
    ("explored leaves out the infeasible", SATURATION,
     "return frozenset(explored) | infeasible", "return frozenset(explored)",
     KILLED),
    ("explored ignores descendants", SATURATION,
     "if cfg.descendant.get(b, frozenset()) <= done", "if True", KILLED),
    # -- speed tricks: the runner's last point, held line-search values,
    # the record of line searches, the return at a root, guard elision
    ("runner reuses no point", INTERP,
     "reuse = [f\"if {' and '.join(same)}:\",",
     "reuse = [f\"if False and {' and '.join(same)}:\",", KILLED),
    ("runner reuse ignores the sign of zero", INTERP,
     'f"({v} or _cs(1.0, {v}) == _cs(1.0, {m}))"', '"True"', KILLED),
    ("line search counts every held value", OPTIMIZE,
     "held = 3 if f_mid > f_lo else 4", "held = 4", KILLED),
    ("Brent evaluates its bracket again", OPTIMIZE,
     "values=(f_lo, f_mid, f_hi))", "values=None)", KILLED),
    ("line searches are not recorded", OPTIMIZE,
     "known = f.searches.get(key)", "known = None", KILLED),
    ("Powell goes on from a root at its start", OPTIMIZE,
     "if n == 0 or (f.nonnegative and fx == 0.0):", "if n == 0:", KILLED),
    ("Powell goes on from a root of a line search", OPTIMIZE,
     "            x, fx, decrease = _line_minimize(f, x, direction, cfg)\n"
     "            if f.nonnegative and fx == 0.0:",
     "            x, fx, decrease = _line_minimize(f, x, direction, cfg)\n"
     "            if False:", KILLED),
    ("basinhopping goes on from a root", OPTIMIZE,
     "        if f.nonnegative and f_l == 0.0:\n            break",
     "        if False:\n            break", KILLED),
    ("line search keeps a worse point", OPTIMIZE,
     "    if ft >= f0:\n", "    if ft > f0:\n", KILLED),
    ("runaway bracket raises", OPTIMIZE,
     "        t, ft = 0.0, f0\n", "        raise\n", KILLED),
    ("Powell extrapolates sentinel-sized values", OPTIMIZE,
     "if f_start < 1e150 and fx < 1e150:", "if True:", KILLED),
    ("Powell adds a zero direction", OPTIMIZE,
     "if any(d != 0.0 for d in new_dir):", "if True:",
     "equivalent: no test reaches it; the displacement is zero only when "
     "a round moved x across the sign of a zero, and a zero vector would "
     "make the direction set degenerate, so the check stays"),
    ("start sampled across an overflowing width", DRIVER,
     "if hi - lo < math.inf:", "if True:", KILLED),
    ("guards always kept", INTERP,
     "        return (bound is None or bound[0] > self.step_budget",
     "        return True or (bound is None or bound[0] > self.step_budget",
     KILLED),
    ("run bounds count the shorter side", INTERP,
     "total += max(sides, default=0)", "total += min(sides, default=0)",
     KILLED),
    ("run bounds count no call", INTERP,
     "total += 1 + sum(bounds[node.name][0]",
     "total += 1 + 0 * sum(bounds[node.name][0]", KILLED),
    ("run bounds count one level short", INTERP,
     "bounds[name] = None if steps is None else (steps, 1 + max(",
     "bounds[name] = None if steps is None else (steps, 0 + max(", KILLED),
    # -- the distance templates of the generated code
    ("== distance not squared", INTERP,
     '"==": "(({a} - {b}) * ({a} - {b}))",',
     '"==": "(abs({a} - {b}))",', KILLED),
    ("!= distance without epsilon", INTERP,
     '"!=": "(0.0 if {a} != {b} else _eps)",',
     '"!=": "(0.0 if {a} != {b} else 1.0)",', KILLED),
    ("< distance without epsilon", INTERP,
     '"<": "(0.0 if {a} < {b} else ({a} - {b}) * ({a} - {b}) + _eps)",',
     '"<": "(0.0 if {a} < {b} else ({a} - {b}) * ({a} - {b}))",', KILLED),
    ("<= distance zero on the boundary only", INTERP,
     '"<=": "(0.0 if {a} <= {b} else ({a} - {b}) * ({a} - {b}))",',
     '"<=": "(0.0 if {a} < {b} else ({a} - {b}) * ({a} - {b}))",', KILLED),
    ("> and >= swapped", INTERP,
     '_SWAPPED = {">": "<", ">=": "<="}', '_SWAPPED = {">": "<=", ">=": "<"}',
     KILLED),
    ("Metropolis accepts a draw at the threshold", OPTIMIZE,
     "return rng.random() < threshold", "return rng.random() <= threshold",
     KILLED),
    # -- the snap grids
    ("snap grid one decimal short", DRIVER,
     "    for nd in range(15):", "    for nd in range(14):", KILLED),
    ("snap per-input grid one decimal short", DRIVER,
     "        for nd in range(9):", "        for nd in range(8):", KILLED),
    ("snap skips the per-input grid", DRIVER,
     "    for i in range(len(x)):\n        for nd in range(9):",
     "    for i in range(0):\n        for nd in range(9):", KILLED),
]


def _run(mutant, scratch):
    """Apply `mutant` to a fresh copy of the repository under `scratch`
    and run the tests there: (outcome, first failing test or '')."""
    name, path, old, new, _expected = mutant
    text = (ROOT / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "bad mutant", f"{name}: old text not found once in {path}"
    copy = Path(tempfile.mkdtemp(dir=scratch))
    for part in COPIED:
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns(
                            "__pycache__", ".hypothesis", "results"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    (copy / path).write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            # test_mutants.py reads the list against the unmutated source
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "tests", "--ignore=tests/test_mutants.py"],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return KILLED, f"timeout after {TIMEOUT_S} s"
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split(" ")[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return KILLED, failed[0] if failed else f"exit {done.returncode}"


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    wrong = 0
    with tempfile.TemporaryDirectory() as scratch, \
            ThreadPoolExecutor(JOBS) as pool:
        outcomes = pool.map(lambda m: _run(m, scratch), chosen)
        for (name, path, _old, _new, expected), (outcome, detail) in zip(
                chosen, outcomes):
            ok = outcome == ("survived" if expected != KILLED else KILLED)
            wrong += not ok
            print(f"{'ok ' if ok else 'BAD'} {outcome:8} {name} "
                  f"({Path(path).name}): {detail or expected}", flush=True)
    print(f"{len(chosen)} mutants, {wrong} not as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
