"""Derivative-free minimization: Brent line search, Powell's method, and
a Metropolis basinhopping loop on top.

All routines treat the objective as a black box that returns a finite
value or a large sentinel; none of them require derivatives, which
matters because representing functions are flat on large regions and
discontinuous at branch flips.  They evaluate it through an Objective:
at a point by calling it, and along a line by the function of t that
`Objective.along` returns, so a line search builds no point list per
evaluation.  Both are one evaluation, of x + t*d: a point x is that
line at t = -0.0 along zeros.

A line search asks for no value it already holds: the bracket starts
from the value at t = 0, and Brent checks the bracket with the values
the bracketing found.  `_bracket` and `brent_line_min` run it for a
plain function and are the specification: an Objective of a compiled
function runs the copy that interp generates next to its runner (or its
C build, see native), which inlines the evaluation and gives the same
results and counts.  Nor does
a line search run again: an Objective records each line search it has
run, keyed by the exact bits of the point, the direction and xtol, and
answers a repeat, such as the same failed search Powell asks again in
its next round, from that record.  The Objective still counts each
request those answers stand for in `eval_count`, as an evaluation
reused, so the count and the search path are those of a search that
evaluates every request.

Powell and basinhopping wrap a plain function once, in an Objective
without a box.  They return at a root: on an Objective marked
`nonnegative`, as the modes mark theirs, they stop at the first exact 0
they hold; on anything else they run until their settings stop them.

`powell_minimize` and `_line_minimize` specify Powell too: on an
Objective bound to a hot source's C build, each `powell_minimize` is one
call of their C text (see native), with a record of its own and the
same results and counts.
"""

import math
import random
import struct
import sys
from dataclasses import dataclass, field
from functools import cache, partial

from .errors import (
    ArityMismatch, InvalidBox, InvalidBracket, check_count, check_number,
)

# the value of an aborted or non-finite evaluation
SENTINEL = 1e300

_CGOLD = 0.3819660
_TINY = 1e-21
# each step of the bracketing is this many times the one before; a
# positive growth keeps the bracket ordered, as Brent's check needs
BRACKET_GROWTH = 2.0


class Objective:
    """The evaluator the optimizer sees: counts evaluations, clamps each
    point into `box` (per-dimension (lo, hi), kept as floats so that a
    clamped input is a float, or None for no bounds) and maps NaN,
    infinite or above-sentinel values to a large finite sentinel, so
    acceptance arithmetic stays well defined.

    Each evaluation is of the line x + t*d; a point x is t = -0.0 along
    zeros, which is x bit for bit; a point of another length than
    `arity` raises ArityMismatch, a box of another length InvalidBox.
    If `fn` has a `runner(objective)` method, as interp's compiled
    representing functions do, the generated runner it returns does all
    of this in one call, the generated line search it returns, None
    without inputs, runs each line search, and its Powell, None but on
    a C build with inputs, each `powell_minimize`; otherwise each
    evaluation calls `fn`, and line searches run `_python_search`.

    `eval_count` counts the evaluations the search requests, and
    `reuse_count` those of them answered with a value already held:
    by the runner when a request repeats the last clamped point it
    ran, by a line search for the values it passes on, and by
    `searches`, the record of the line searches run on this objective,
    for every request of a line search it answers.

    `nonnegative` marks an `fn` that is never below 0, as a representing
    function is, so that an exact 0 is its minimum.
    """

    def __init__(self, fn, arity, box=None, nonnegative=False):
        if box is not None and len(box) != arity:
            raise InvalidBox(f"bad box of {len(box)} pairs for {arity} "
                             "inputs")
        self.fn = fn
        self.arity = arity
        self.box = None if box is None else [
            (float(lo), float(hi)) for lo, hi in box]
        self.nonnegative = nonnegative
        self.eval_count = 0
        self.reuse_count = 0
        # line search key -> (new x, new f, decrease, requests)
        self.searches = {}
        self._zeros = (0.0,) * arity
        runner = getattr(fn, "runner", None)
        line, search, self._powell = ((None,) * 3 if runner is None
                                      else runner(self))
        self._line = line or self._evaluate
        self._search = search or self._python_search

    def __call__(self, x):
        if len(x) != self.arity:
            raise ArityMismatch(f"expected {self.arity} inputs, got "
                                f"{len(x)}")
        return self._line(x, self._zeros, -0.0)

    @property
    def run_count(self):
        """The evaluations actually run: those requested, less those
        reused."""
        return self.eval_count - self.reuse_count

    def along(self, x, direction):
        """The objective at x + t*direction as a function of the float t,
        computing x[i] + t*direction[i] on every coordinate."""
        return partial(self._line, x, direction)

    def _evaluate(self, x, direction, t):
        """`fn` at x + t*direction clamped into the box, sanitised as the
        generated runner does: a value outside [-max, SENTINEL], NaN and
        a huge int included, is the sentinel."""
        point = [xi + t * di for xi, di in zip(x, direction)]
        self.eval_count += 1
        value = self.fn(point if self.box is None else clamp(point, self.box))
        if -sys.float_info.max <= value <= SENTINEL:
            return value
        return SENTINEL

    def _python_search(self, x, direction, f0, xtol, growth):
        """The line search along x + t*direction from f0, the value at x:
        `_bracket` and then `brent_line_min` on the values it found.
        Returns (t, value at t, whether the bracket's mid is above its
        lo); a runaway bracketing, which Brent rejects, gives (0.0, f0).
        This is the specification of the generated search."""
        g = self.along(x, direction)
        (lo, f_lo), (mid, f_mid), (hi, f_hi) = _bracket(
            g, 0.0, f0, 1.0, growth, 80)
        try:
            t, ft = brent_line_min(g, (lo, mid, hi), xtol,
                                   values=(f_lo, f_mid, f_hi))
        except InvalidBracket:
            # runaway bracketing (objective decreasing off to huge magnitudes)
            t, ft = 0.0, f0
        return t, ft, f_mid > f_lo


@dataclass(frozen=True)
class LocalMinConfig:
    """Powell settings, checked as the config is made: `max_rounds` is
    an integer >= 0; `xtol` and `ftol` finite and >= 0."""
    xtol: float = 1e-8
    ftol: float = 1e-8
    max_rounds: int = 60

    def __post_init__(self):
        check_count("max_rounds", self.max_rounds, 0)
        check_number("xtol", self.xtol)
        check_number("ftol", self.ftol)


@dataclass(frozen=True)
class MCMCConfig:
    """Basinhopping settings, checked as the config is made: `n_iter` is
    an integer >= 0; `step_scale` finite and >= 0; `temperature` >= 0,
    +inf included."""
    n_iter: int = 5
    step_scale: float = 50.0
    temperature: float = 1.0
    local: LocalMinConfig = field(default_factory=LocalMinConfig)

    def __post_init__(self):
        check_count("n_iter", self.n_iter, 0)
        check_number("step_scale", self.step_scale)
        check_number("temperature", self.temperature, finite=False)


def _bracket(g, a, fa, step, growth, max_expand):
    """Bracket a minimum of g by stepping outward from t = a, whose
    value fa is known; returns (t, g(t)) for lo, mid and hi, with
    g(mid) <= g(lo) and g(mid) <= g(hi) unless the bracket stops after
    `max_expand` expansions, on which Brent raises InvalidBracket."""
    b = a + step
    fb = g(b)
    if fb > fa:
        a, b = b, a
        fa, fb = fb, fa
    c = b + growth * (b - a)
    fc = g(c)
    expansions = 0
    while fc < fb:
        expansions += 1
        if expansions > max_expand:
            break
        a, b, c = b, c, c + growth * (c - b)
        fa, fb, fc = fb, fc, g(c)
    if a < c:
        return (a, fa), (b, fb), (c, fc)
    return (c, fc), (b, fb), (a, fa)


def brent_line_min(g, bracket, xtol=1e-8, max_iter=100, values=None):
    """Brent's parabolic-interpolation line minimizer on a bracket.

    `values`, if given, are g(lo), g(mid) and g(hi); the check that the
    midpoint is lowest then uses them and evaluates nothing.
    """
    lo, mid, hi = bracket
    if not (lo <= mid <= hi) or not (lo < hi):
        raise InvalidBracket(f"bad bracket ordering {bracket!r}")
    if values is None:
        f_mid = g(mid)
        higher = f_mid > g(lo) or f_mid > g(hi)
    else:
        f_lo, f_mid, f_hi = values
        higher = f_mid > f_lo or f_mid > f_hi
    if higher:
        raise InvalidBracket(f"midpoint is not lowest in {bracket!r}")

    a, b = lo, hi
    x = w = v = mid
    fx = fw = fv = f_mid
    d = e = 0.0
    for _ in range(max_iter):
        xm = 0.5 * (a + b)
        tol1 = xtol * abs(x) + _TINY
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        use_golden = True
        if abs(e) > tol1:
            # try a parabolic step through x, w, v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            e = d
            if (abs(p) < abs(0.5 * q * e_prev) and p > q * (a - x)
                    and p < q * (b - x)):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = math.copysign(tol1, xm - x)
                use_golden = False
        if use_golden:
            e = (b - x) if x < xm else (a - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


@cache
def _pack(n):
    """The exact double bits of a line search on n inputs: x, the
    direction and xtol, as one bytes key."""
    return struct.Struct(f"{2 * n + 1}d").pack


def _line_minimize(f, x, direction, cfg):
    """Minimize the Objective f along x + t*direction; returns (new x,
    new f, decrease).  A line search run before is answered from f's
    `searches` record, counting the requests of that search again."""
    key = _pack(len(x))(*x, *direction, cfg.xtol)
    known = f.searches.get(key)
    if known is not None:
        new_x, f_new, decrease, requests = known
        f.eval_count += requests
        f.reuse_count += requests
        return list(new_x), f_new, decrease
    requested = f.eval_count
    # x itself, not x + 0.0 * d: that would turn a -0.0 into 0.0
    f0 = f(x)
    t, ft, mid_above_lo = f._search(x, direction, f0, cfg.xtol,
                                    BRACKET_GROWTH)
    # the requests these values answer: the bracket's f(x) and Brent's
    # check g(mid), g(lo) and, unless that already fails, g(hi)
    held = 3 if mid_above_lo else 4
    f.eval_count += held
    f.reuse_count += held
    if ft >= f0:
        new_x, ft = tuple(x), f0
    else:
        new_x = tuple(xi + t * di for xi, di in zip(x, direction))
    f.searches[key] = (new_x, ft, f0 - ft, f.eval_count - requested)
    return list(new_x), ft, f0 - ft


def powell_minimize(f, x0, cfg=None):
    """Powell's conjugate-direction minimization without derivatives.

    Directions start as the coordinate axes; after each sweep the axis of
    largest decrease may be replaced by the overall displacement, and the
    direction set is reset to the axes periodically to avoid degeneracy.
    `cfg` None runs the LocalMinConfig defaults.

    When `f` is marked `nonnegative`, Powell returns at the first exact 0
    it holds, at f(x0) or after a line search: every later line search
    would return its start, so the point is the one a full run returns.
    """
    if cfg is None:
        cfg = LocalMinConfig()
    if not isinstance(f, Objective):
        f = Objective(f, len(x0))
    n = len(x0)
    x = [float(v) for v in x0]
    if f._powell is not None and n == f.arity:
        # the same Powell, run in C; a point of another length raises
        # at f(x) below
        return f._powell(x, cfg)
    fx = f(x)
    if n == 0 or (f.nonnegative and fx == 0.0):
        return x, fx
    directions = [[1.0 if i == j else 0.0 for j in range(n)]
                  for i in range(n)]
    for round_no in range(cfg.max_rounds):
        f_start = fx
        x_start = list(x)
        biggest = 0.0
        biggest_idx = 0
        for i, direction in enumerate(directions):
            x, fx, decrease = _line_minimize(f, x, direction, cfg)
            if f.nonnegative and fx == 0.0:
                return x, fx
            if decrease > biggest:
                biggest = decrease
                biggest_idx = i
        if 2.0 * (f_start - fx) <= cfg.ftol * (abs(f_start) + abs(fx)) + _TINY:
            break
        # try the average displacement direction; the magnitude guard
        # keeps sentinel-sized values out of the extrapolation products
        if f_start < 1e150 and fx < 1e150:
            extrapolated = [2.0 * xi - si for xi, si in zip(x, x_start)]
            f_e = f(extrapolated)
            if f_e < f_start:
                t = (2.0 * (f_start - 2.0 * fx + f_e)
                     * (f_start - fx - biggest) ** 2
                     - biggest * (f_start - f_e) ** 2)
                if t < 0.0:
                    new_dir = [xi - si for xi, si in zip(x, x_start)]
                    if any(d != 0.0 for d in new_dir):
                        x, fx, _ = _line_minimize(f, x, new_dir, cfg)
                        if f.nonnegative and fx == 0.0:
                            return x, fx
                        directions[biggest_idx] = new_dir
        if (round_no + 1) % (2 * n) == 0:
            directions = [[1.0 if i == j else 0.0 for j in range(n)]
                          for i in range(n)]
    return x, fx


def metropolis_accept(f_current, f_proposal, temperature, rng):
    """Accept rule of the basinhopping chain: always accept downhill,
    accept uphill with probability exp(-gap / T), at T = 0 its limit."""
    if f_proposal < f_current:
        return True
    gap = f_proposal - f_current
    try:
        threshold = math.exp(-gap / temperature)
    except ZeroDivisionError:
        # the limit T -> 0: an equal value stays acceptable, a higher
        # one does not
        threshold = 1.0 if gap == 0.0 else 0.0
    return rng.random() < threshold


def clamp(x, box):
    """`x` with each coordinate moved into its (lo, hi) bounds; a copy
    of `x` when `box` is None."""
    if box is None:
        return list(x)
    return [min(max(xi, lo), hi) for xi, (lo, hi) in zip(x, box)]


def basinhopping(f, x0, cfg=None, rng=None):
    """Global minimization: local minimize, then repeatedly perturb the
    incumbent, re-minimize, and Metropolis-accept the proposal.

    Returns (best x, best f).  The start and each proposal are clamped
    into the box of the Objective `f`, which, marked `nonnegative`, stops
    the search at the first incumbent that is an exact 0.  `cfg` None
    runs the MCMCConfig defaults.
    """
    if cfg is None:
        cfg = MCMCConfig()
    if rng is None:
        rng = random.Random()
    if not isinstance(f, Objective):
        f = Objective(f, len(x0))
    x_l, f_l = powell_minimize(f, clamp(x0, f.box), cfg.local)
    best_x, best_f = list(x_l), f_l
    if f.nonnegative and f_l == 0.0:
        return best_x, best_f
    for _ in range(cfg.n_iter):
        delta = [rng.uniform(-cfg.step_scale, cfg.step_scale)
                 for _ in range(len(x_l))]
        proposal = clamp([xi + di for xi, di in zip(x_l, delta)], f.box)
        x_t, f_t = powell_minimize(f, proposal, cfg.local)
        if metropolis_accept(f_l, f_t, cfg.temperature, rng):
            x_l, f_l = x_t, f_t
        if f_l < best_f:
            best_x, best_f = list(x_l), f_l
        if f.nonnegative and f_l == 0.0:
            break
    return best_x, best_f
