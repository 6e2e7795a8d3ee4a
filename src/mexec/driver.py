"""Search orchestration: mode dispatch, restarts, admission, and the
infeasible-branch heuristic.

Coverage mode couples the minimizer to the saturation state: each
admitted input may saturate branches, which changes the objective for
the next restart.  Path, boundary, and satisfiability modes minimize a
fixed objective per restart.
"""

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from . import saturation
from .cfg import build_cfg
from .errors import MalformedPath
from .interp import (
    CompiledProgram, bva_config, coverage_config, execute, path_config,
    plain_config,
)
from .optimize import MCMCConfig, Objective, basinhopping

# values worth probing regardless of the box: zero, units, and the
# extremes of the normal double range
SPECIALS = (
    0.0, 1.0, -1.0,
    2.2250738585072014e-308, -2.2250738585072014e-308,
    1e308, -1e308,
)


@dataclass
class SearchConfig:
    n_start: int = 500
    mcmc: MCMCConfig = field(default_factory=MCMCConfig)
    box: Optional[list] = None          # per-dimension (lo, hi)
    epsilon: float = 1e-6
    seed: Optional[int] = None
    infeasible_after: int = 3
    step_budget: int = 1_000_000

    def resolved_box(self, arity):
        if self.box is None:
            return [(-1e3, 1e3)] * arity
        if len(self.box) == 1 and arity > 1:
            return list(self.box) * arity
        return list(self.box)


@dataclass
class TestSuiteResult:
    mode: str
    inputs: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    state: Optional[saturation.SaturationState] = None
    graph: Optional[object] = None
    eval_count: int = 0
    starts_used: int = 0
    wall_time: float = 0.0
    found: Optional[list] = None        # path mode
    verdict: Optional[str] = None


def _clamp(x, box):
    return [min(max(float(xi), lo), hi) for xi, (lo, hi) in zip(x, box)]


def sample_start(rng, box):
    """Draw a starting point: mostly uniform over the box, with a tail of
    special values and log-uniform magnitudes to probe extreme floats."""
    point = []
    for lo, hi in box:
        roll = rng.random()
        if roll < 0.8:
            point.append(rng.uniform(lo, hi))
        elif roll < 0.9:
            point.append(min(max(rng.choice(SPECIALS), lo), hi))
        else:
            magnitude = 10.0 ** rng.uniform(-300.0, 300.0)
            value = magnitude if rng.random() < 0.5 else -magnitude
            point.append(min(max(value, lo), hi))
    return point


def snap_to_zero(f, x, box):
    """Polish a near-root: try rounding the point to coarse decimal grids
    and accept the first rounding where the objective is exactly zero.

    Local minimizer tolerances leave equality-rooted objectives at tiny
    positive residuals; admission requires an exact root, and the roots
    of interest usually sit on round decimals.
    """
    if f(_clamp(x, box)) == 0.0:
        return _clamp(x, box)
    for nd in range(15):
        candidate = _clamp([round(xi, nd) for xi in x], box)
        if f(candidate) == 0.0:
            return candidate
    for i in range(len(x)):
        for nd in range(9):
            candidate = list(x)
            candidate[i] = round(x[i], nd)
            candidate = _clamp(candidate, box)
            if f(candidate) == 0.0:
                return candidate
    return None


def _make_mcmc(cfg, box):
    mcmc = MCMCConfig(
        n_iter=cfg.mcmc.n_iter,
        step_scale=cfg.mcmc.step_scale,
        temperature=cfg.mcmc.temperature,
        local=cfg.mcmc.local,
        box=box,
    )
    return mcmc


def _minimize_once(objective, cfg, box, rng):
    """One restart: sample, basinhop (stopping early at an exact root),
    then polish.  Returns (x, f(x))."""
    x0 = sample_start(rng, box)

    def stop_at_root(_iteration, _x, f_value):
        return f_value == 0.0

    x_star, f_star = basinhopping(objective, x0, _make_mcmc(cfg, box),
                                  rng, stop_at_root)
    if f_star != 0.0:
        snapped = snap_to_zero(objective, x_star, box)
        if snapped is not None:
            return snapped, 0.0
    return x_star, f_star


def run_coverage(program, entry, cfg=None):
    """Saturate as many branches as possible within the restart budget."""
    if cfg is None:
        cfg = SearchConfig()
    started = time.perf_counter()
    graph = build_cfg(program, entry)
    fn = program.function(entry)
    arity = len(fn.params)
    box = cfg.resolved_box(arity)
    rng = random.Random(cfg.seed)
    state = saturation.new_state(graph)
    result = TestSuiteResult(mode="cover", state=state, graph=graph)

    if not graph.labels or arity == 0:
        x = sample_start(rng, box) if arity else []
        trace = execute(CompiledProgram(program, plain_config(), entry,
                                        cfg.step_budget), x)
        result.inputs.append(x)
        result.traces.append(trace)
        result.starts_used = 1
        result.wall_time = time.perf_counter() - started
        return result

    repfun = CompiledProgram(program, coverage_config(cfg.epsilon), entry,
                             cfg.step_budget)
    failure_counts = {}
    for _start in range(cfg.n_start):
        if saturation.goal_reached(state):
            break
        result.starts_used += 1
        snapshot = state
        evaluate = repfun.objective(snapshot)

        def raw(x, evaluate=evaluate):
            return evaluate(_clamp(x, box))

        objective = Objective(raw, arity)
        x_star, f_star = _minimize_once(objective, cfg, box, rng)
        result.eval_count += objective.eval_count
        trace = execute(repfun, _clamp(x_star, box), sat_state=snapshot)
        if f_star == 0.0 and trace.final_r == 0.0:
            result.inputs.append(_clamp(x_star, box))
            result.traces.append(trace)
            state = saturation.update_saturation(state, trace.covered_branches)
            failure_counts.clear()
        elif trace.path:
            taken = trace.path[-1]
            failure_counts[taken] = failure_counts.get(taken, 0) + 1
            if failure_counts[taken] >= cfg.infeasible_after:
                state = mark_infeasible(state, trace)
                failure_counts[taken] = 0
    result.state = state
    result.wall_time = time.perf_counter() - started
    return result


def mark_infeasible(state, failed_trace):
    """Deem the opposite of the last branch taken by a failed run
    infeasible.  Unsound but effective: a run that keeps ending on the
    same branch has repeatedly failed to flip that conditional."""
    if failed_trace.final_r == 0.0 or not failed_trace.path:
        return state
    label, side = failed_trace.path[-1]
    opposite = (label, "F" if side == "T" else "T")
    if opposite in state.covered or opposite in state.explored:
        return state
    return saturation.add_infeasible(state, opposite)


def _validate_path(graph, target):
    for branch in target:
        if (not isinstance(branch, tuple) or len(branch) != 2
                or branch[0] not in graph.labels
                or branch[1] not in ("T", "F")):
            raise MalformedPath(f"bad branch id {branch!r}")


def run_path(program, entry, target, cfg=None):
    """Search for an input whose execution follows the target branch
    sequence; the candidate is verified by replay before being reported."""
    if cfg is None:
        cfg = SearchConfig()
    started = time.perf_counter()
    graph = build_cfg(program, entry)
    target = tuple(target)
    _validate_path(graph, target)
    fn = program.function(entry)
    arity = len(fn.params)
    box = cfg.resolved_box(arity)
    rng = random.Random(cfg.seed)
    result = TestSuiteResult(mode="path", graph=graph)

    repfun = CompiledProgram(program, path_config(target, cfg.epsilon),
                             entry, cfg.step_budget)
    evaluate = repfun.objective()

    def raw(x):
        return evaluate(_clamp(x, box))

    for _start in range(cfg.n_start):
        result.starts_used += 1
        objective = Objective(raw, arity)
        x_star, f_star = _minimize_once(objective, cfg, box, rng)
        result.eval_count += objective.eval_count
        if f_star == 0.0:
            x_star = _clamp(x_star, box)
            trace = execute(repfun, x_star)
            if (trace.final_r == 0.0
                    and tuple(trace.path[:len(target)]) == target):
                result.found = x_star
                result.inputs.append(x_star)
                result.traces.append(trace)
                break
    result.wall_time = time.perf_counter() - started
    return result


def run_bva(program, entry, cfg=None):
    """Collect inputs that sit exactly on some conditional's boundary."""
    if cfg is None:
        cfg = SearchConfig()
    started = time.perf_counter()
    graph = build_cfg(program, entry)
    fn = program.function(entry)
    arity = len(fn.params)
    box = cfg.resolved_box(arity)
    rng = random.Random(cfg.seed)
    result = TestSuiteResult(mode="bva", graph=graph)

    repfun = CompiledProgram(program, bva_config(cfg.epsilon), entry,
                             cfg.step_budget)
    evaluate = repfun.objective()

    def raw(x):
        return evaluate(_clamp(x, box))

    seen = set()
    for _start in range(cfg.n_start):
        result.starts_used += 1
        objective = Objective(raw, arity)
        x_star, f_star = _minimize_once(objective, cfg, box, rng)
        result.eval_count += objective.eval_count
        if f_star == 0.0:
            x_star = _clamp(x_star, box)
            key = tuple(x_star)
            if key not in seen:
                seen.add(key)
                trace = execute(repfun, x_star)
                result.inputs.append(x_star)
                result.traces.append(trace)
    result.wall_time = time.perf_counter() - started
    return result
