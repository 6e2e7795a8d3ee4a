"""Search orchestration: one restart loop for every mode, admission,
and the infeasible-branch heuristic.

Every mode minimizes a representing function and admits its roots:
`search` runs the restarts, and each mode supplies the objective of a
restart and what admitting a restart's result means.  Coverage mode
couples the two through the saturation state: each admitted input may
saturate branches, which changes the objective for the next restart.
Path, boundary, and satisfiability modes minimize a fixed objective.
"""

import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from . import saturation
from .cfg import build_cfg
from .errors import (
    InvalidBox, MalformedPath, MexecError, check_count, check_number,
)
from .interp import (
    CompiledProgram, bva_config, coverage_config, execute, path_config,
    plain_config,
)
from .optimize import MCMCConfig, Objective, basinhopping, clamp

# values worth probing regardless of the box: zero, units, and the
# extremes of the normal double range
SPECIALS = (
    0.0, 1.0, -1.0,
    2.2250738585072014e-308, -2.2250738585072014e-308,
    1e308, -1e308,
)


@dataclass(frozen=True)
class SearchConfig:
    """Search settings, checked as the config is made (a broken rule
    raises MexecError naming the setting): `n_start` is an integer >= 0;
    `epsilon` finite and > 0; `infeasible_after` and `step_budget`
    integers >= 1; `seed` None or an int, float, str, bytes or
    bytearray, the seeds random.Random takes, but not NaN, which it
    seeds from the hash of the object, so two NaN seeds differ.
    `resolved_box` checks `box`, whose rule needs the arity."""
    n_start: int = 500
    mcmc: MCMCConfig = field(default_factory=MCMCConfig)
    box: Optional[list] = None          # per-dimension (lo, hi)
    epsilon: float = 1e-6
    seed: Optional[int] = None
    infeasible_after: int = 3
    step_budget: int = 1_000_000

    def __post_init__(self):
        check_count("n_start", self.n_start, 0)
        check_number("epsilon", self.epsilon, positive=True)
        check_count("infeasible_after", self.infeasible_after, 1)
        check_count("step_budget", self.step_budget, 1)
        if (not isinstance(self.seed, (type(None), int, float, str, bytes,
                                       bytearray))
                or self.seed != self.seed):
            raise MexecError(f"bad seed {self.seed!r}, need None, an int, "
                             "a float other than NaN, a str, bytes or a "
                             "bytearray")

    def resolved_box(self, arity):
        """One (lo, hi) pair of floats per input, from one pair for
        every input or one pair each; raises InvalidBox unless the box is
        a list of (lo, hi) pairs of finite doubles with lo < hi."""
        if self.box is None:
            return [(-1e3, 1e3)] * arity
        try:
            for lo, hi in self.box:
                if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                    raise InvalidBox(f"bad box ({lo!r}, {hi!r}), need "
                                     "finite lo < hi")
        except (OverflowError, TypeError, ValueError):
            # not (lo, hi) numbers, or an int too long to print
            raise InvalidBox("bad box, need (lo, hi) pairs of finite "
                             "doubles") from None
        # float bounds, so that an input clamped to one is a float
        box = [(float(lo), float(hi)) for lo, hi in self.box]
        if len(box) == 1:
            return box * arity
        if len(box) != arity:
            raise InvalidBox(f"bad box of {len(box)} pairs for {arity} "
                             "inputs, need one pair or one per input")
        return box


@dataclass
class SearchResult:
    """What a mode admitted and what its search spent.  Every mode fills
    `mode`, `inputs` (the inputs it admitted), the counts and
    `wall_time`; cover, path and bva fill `traces` (the replay of each
    admitted input) and `graph`; cover fills `state`; path fills
    `found`; sat fills `verdict`, `model`, `residual` and `variables`.
    """
    mode: str
    inputs: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    state: Optional[saturation.SaturationState] = None
    graph: Optional[object] = None
    eval_count: int = 0
    run_count: int = 0                  # of eval_count, those run
    starts_used: int = 0
    wall_time: float = 0.0              # seconds the search ran
    found: Optional[list] = None        # path mode
    verdict: Optional[str] = None       # sat mode: 'sat' or 'unknown'
    model: Optional[list] = None
    residual: Optional[float] = None    # sat mode: the least value seen
    variables: list = field(default_factory=list)


def sample_start(rng, box):
    """Draw a starting point: mostly uniform over the box, with a tail of
    special values and log-uniform magnitudes to probe extreme floats."""
    point = []
    for lo, hi in box:
        roll = rng.random()
        if roll < 0.8:
            if hi - lo < math.inf:
                point.append(rng.uniform(lo, hi))
            else:
                # the width overflows; the same single draw, spread
                # without forming hi - lo
                u = rng.random()
                point.append(lo * (1.0 - u) + hi * u)
        elif roll < 0.9:
            point.append(min(max(rng.choice(SPECIALS), lo), hi))
        else:
            magnitude = 10.0 ** rng.uniform(-300.0, 300.0)
            value = magnitude if rng.random() < 0.5 else -magnitude
            point.append(min(max(value, lo), hi))
    return point


def snap_to_zero(f, x):
    """Polish a near-root, not a root itself: try rounding it to coarse
    decimal grids and accept the first where the objective is exactly 0.

    Local minimizer tolerances leave equality-rooted objectives at tiny
    positive residuals; admission requires an exact root, and the roots
    of interest usually sit on round decimals.  The Objective `f` clamps
    each rounding it evaluates; the rounding returned is not clamped.
    """
    for nd in range(15):
        candidate = [round(xi, nd) for xi in x]
        if f(candidate) == 0.0:
            return candidate
    for i in range(len(x)):
        for nd in range(9):
            candidate = list(x)
            candidate[i] = round(x[i], nd)
            if f(candidate) == 0.0:
                return candidate
    return None


def _minimize_once(objective, cfg, rng):
    """One restart: sample in the objective's box, basinhop (which stops
    at an exact root), then polish.  Returns (x, f(x)).  A function of
    no inputs has one value, which is evaluated once."""
    if not objective.box:
        return [], objective([])
    x0 = sample_start(rng, objective.box)
    x_star, f_star = basinhopping(objective, x0, cfg.mcmc, rng)
    if f_star != 0.0:
        snapped = snap_to_zero(objective, x_star)
        if snapped is not None:
            return snapped, 0.0
    return x_star, f_star


def search(result, cfg, arity, objective_at, admit):
    """The restart loop of every mode.

    Each restart asks `objective_at()` for this restart's function of
    the input vector; minimizes it within the box from a sampled start;
    and passes the clamped minimizer and its value to `admit(x, f)`,
    which returns True to stop.  With no inputs, one restart decides.
    Writes onto `result` the restarts run, the objective evaluations
    they requested and those of them they ran, and the seconds it took,
    and returns it.
    """
    started = time.perf_counter()
    box = cfg.resolved_box(arity)
    rng = random.Random(cfg.seed)
    for _start in range(cfg.n_start):
        result.starts_used += 1
        # a representing function or a distance, never below 0; an
        # abort or a non-finite value maps to the positive sentinel
        objective = Objective(objective_at(), arity, box, nonnegative=True)
        x_star, f_star = _minimize_once(objective, cfg, rng)
        result.eval_count += objective.eval_count
        result.run_count += objective.run_count
        if admit(clamp(x_star, box), f_star) or not arity:
            break
    result.wall_time = time.perf_counter() - started
    return result


def run_coverage(program, entry, cfg=None):
    """Saturate as many branches as possible within the restart budget."""
    if cfg is None:
        cfg = SearchConfig()
    graph = build_cfg(program, entry)
    arity = len(program.function(entry).params)
    result = SearchResult(mode="cover", state=saturation.new_state(graph),
                          graph=graph)

    if not graph.labels or arity == 0:
        # nothing to search: one sampled input, if the budget allows
        started = time.perf_counter()
        box = cfg.resolved_box(arity)
        if cfg.n_start:
            x = sample_start(random.Random(cfg.seed), box)
            trace = execute(CompiledProgram(program, plain_config(), entry,
                                            cfg.step_budget), x)
            result.inputs.append(x)
            result.traces.append(trace)
            result.state = saturation.update_saturation(
                result.state, trace.covered_branches)
            result.starts_used = 1
        result.wall_time = time.perf_counter() - started
        return result

    repfun = CompiledProgram(program, coverage_config(cfg.epsilon), entry,
                             cfg.step_budget)
    failure_counts = {}

    def admit(x, _f):
        # the state is still the one this restart's objective was built
        # from; its replay alone decides, and the search stops once
        # every branch is saturated
        state = result.state
        trace = execute(repfun, x, sat_state=state)
        if trace.final_r == 0.0:
            result.inputs.append(x)
            result.traces.append(trace)
            result.state = saturation.update_saturation(
                state, trace.covered_branches)
            failure_counts.clear()
        elif trace.path:
            taken = trace.path[-1]
            failure_counts[taken] = failure_counts.get(taken, 0) + 1
            if failure_counts[taken] >= cfg.infeasible_after:
                result.state = mark_infeasible(state, trace)
        return saturation.goal_reached(result.state)

    return search(result, cfg, arity,
                  lambda: repfun.objective(result.state), admit)


def mark_infeasible(state, failed_trace):
    """Deem the opposite of the last branch taken by a failed run
    infeasible.  Unsound but effective: a run that keeps ending on the
    same branch has repeatedly failed to flip that conditional."""
    if failed_trace.final_r == 0.0 or not failed_trace.path:
        return state
    label, side = failed_trace.path[-1]
    return saturation.add_infeasible(state,
                                     (label, "F" if side == "T" else "T"))


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
    graph = build_cfg(program, entry)
    target = tuple(target)
    _validate_path(graph, target)
    result = SearchResult(mode="path", graph=graph)
    repfun = CompiledProgram(program, path_config(target, cfg.epsilon),
                             entry, cfg.step_budget)

    def admit(x, f):
        if f != 0.0:
            return False
        trace = execute(repfun, x)
        if (trace.final_r != 0.0
                or tuple(trace.path[:len(target)]) != target):
            return False
        result.found = x
        result.inputs.append(x)
        result.traces.append(trace)
        return True

    return search(result, cfg, repfun.arity, repfun.objective, admit)


def run_bva(program, entry, cfg=None):
    """Collect inputs that sit exactly on some conditional's boundary,
    each confirmed by its replay."""
    if cfg is None:
        cfg = SearchConfig()
    graph = build_cfg(program, entry)
    result = SearchResult(mode="bva", graph=graph)
    repfun = CompiledProgram(program, bva_config(cfg.epsilon), entry,
                             cfg.step_budget)
    seen = set()

    def admit(x, f):
        if f == 0.0 and tuple(x) not in seen:
            trace = execute(repfun, x)
            if trace.final_r == 0.0:
                seen.add(tuple(x))
                result.inputs.append(x)
                result.traces.append(trace)
        return False

    return search(result, cfg, repfun.arity, repfun.objective, admit)
