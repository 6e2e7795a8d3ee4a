"""Independent checks of each run's output, and the run fingerprint.

Every admitted input is replayed through `execute` under the mode's
configuration and must give final_r == 0.0; path replays must follow
the target prefix; sat models are checked by this file's own evaluator
of the constraint text, never by `satcheck`.
"""

import ast
import hashlib
import itertools
import json
import math
import re

_COMPARE = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}
_COMPARATOR = re.compile(r"(==|!=|<=|>=|<|>)")
_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "fabs": math.fabs,
    "floor": math.floor, "pow": math.pow,
}


def _power(a, b):
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _divide(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _value(node, env):
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_value(node.operand, env)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _value(node.operand, env)
    if isinstance(node, ast.BinOp):
        a, b = _value(node.left, env), _value(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return _divide(a, b)
        if isinstance(node.op, ast.Pow):
            return _power(a, b)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS):
        return _FUNCTIONS[node.func.id](*(_value(a, env) for a in node.args))
    raise ValueError(f"unsupported constraint syntax: {ast.dump(node)}")


def constraint_holds(text, names, values):
    """Evaluate `lhs op rhs && ...` at the model; `^` is exponentiation,
    which binds like Python's `**`."""
    env = dict(zip(names, (float(v) for v in values)))
    for conjunct in text.split("&&"):
        lhs, op, rhs = (p.strip() for p in _COMPARATOR.split(conjunct))
        a = _value(ast.parse(lhs.replace("^", "**"), mode="eval").body, env)
        b = _value(ast.parse(rhs.replace("^", "**"), mode="eval").body, env)
        if not _COMPARE[op](a, b):
            return False
    return True


def _in_box(x, box):
    return all(lo <= v <= hi for v, (lo, hi) in zip(x, box))


def _check_cover(mx, prog, cfg, result, problems):
    graph, state = result.graph, result.state
    arity = len(prog.program.function(prog.entry).params)
    if not graph.labels or arity == 0:
        if len(result.inputs) != 1:
            problems.append("label-free program must give one input")
        return
    # Rebuild the saturation history: each admission happened under the
    # branches covered before it plus the infeasible marks made so far.
    # Marks only grow, so take the smallest set of further marks under
    # which the replay is an exact root.
    current = mx.saturation.new_state(graph)
    marks = sorted(state.infeasible)
    used = ()
    for x in result.inputs:
        pending = [m for m in marks if m not in used]
        for extra in itertools.chain.from_iterable(
                itertools.combinations(pending, k)
                for k in range(len(pending) + 1)):
            candidate = current
            for branch in extra:
                candidate = mx.saturation.add_infeasible(candidate, branch)
            trace = mx.interp.execute(
                prog.program, x, mx.interp.coverage_config(cfg.epsilon),
                candidate, entry=prog.entry, step_budget=cfg.step_budget)
            if trace.final_r == 0.0:
                used += extra
                current = mx.saturation.update_saturation(
                    candidate, trace.covered_branches)
                break
        else:
            problems.append(f"cover input {x!r} does not replay to a root")
            return
    if current.covered != state.covered:
        problems.append("replayed coverage differs from the reported state")


def check(mx, run, prog, cfg, result, report_text):
    """Problems found in one run's output; an empty list means correct."""
    problems = []
    if run.mode == "sat":
        if result.verdict == "sat":
            if not constraint_holds(run.source, result.variables,
                                    result.model):
                problems.append(f"sat model {result.model!r} violates "
                                f"{run.source!r}")
        elif result.verdict != "unknown" or result.model is not None:
            problems.append(f"bad sat verdict {result.verdict!r}")
        return problems

    box = cfg.resolved_box(len(prog.program.function(prog.entry).params))
    for x in result.inputs:
        if not _in_box(x, box):
            problems.append(f"input {x!r} outside the search box")
    if run.mode == "cover":
        _check_cover(mx, prog, cfg, result, problems)
    elif run.mode == "path" and result.found is not None:
        trace = mx.interp.execute(
            prog.program, result.found,
            mx.interp.path_config(run.target, cfg.epsilon),
            entry=prog.entry, step_budget=cfg.step_budget)
        if trace.final_r != 0.0:
            problems.append("path input does not replay to a root")
        if tuple(trace.path[:len(run.target)]) != tuple(run.target):
            problems.append("path input does not follow the target")
    elif run.mode == "bva":
        if len({tuple(x) for x in result.inputs}) != len(result.inputs):
            problems.append("duplicate boundary inputs")
        for x in result.inputs:
            trace = mx.interp.execute(
                prog.program, x, mx.interp.bva_config(cfg.epsilon),
                entry=prog.entry, step_budget=cfg.step_budget)
            if trace.final_r != 0.0:
                problems.append(f"boundary input {x!r} is not a root")

    report = json.loads(report_text)
    total = 2 * len(result.graph.labels)
    covered = (len(result.state.covered) if result.state is not None
               else len(set().union(*(t.covered_branches
                                      for t in result.traces))))
    if (report["total_branches"] != total
            or report["covered_branches"] != covered
            or report["eval_count"] != result.eval_count
            or report["starts_used"] != result.starts_used
            or report["inputs"] != [list(x) for x in result.inputs]):
        problems.append("report disagrees with the search result")
    return problems


def record(run, outcome):
    """Canonical text of what a run produced, for the fingerprint."""
    head = f"{run.mode}|{run.source}|{run.seed}|{run.target!r}"
    if outcome.error is not None:
        return f"{head}|raised {outcome.error}"
    result = outcome.result
    if run.mode == "sat":
        model = ",".join(repr(float(v)) for v in result.model or ())
        return (f"{head}|{result.verdict}|{model}|{result.eval_count}"
                f"|{result.starts_used}")
    inputs = ";".join(",".join(repr(float(v)) for v in x)
                      for x in result.inputs)
    infeasible = (sorted(result.state.infeasible)
                  if result.state is not None else [])
    found = (",".join(repr(float(v)) for v in result.found)
             if result.found is not None else "-")
    return (f"{head}|{inputs}|{result.eval_count}|{result.starts_used}"
            f"|{infeasible}|{found}")


def fingerprint(records):
    return hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
