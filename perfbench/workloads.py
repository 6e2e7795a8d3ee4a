"""Workload definitions: the fixed list of runs each workload makes.

A run is one mode call (`cover`, `path`, `bva` or `sat`) on one program
or constraint with one search seed.  The search seeds are drawn from
the workload seed, so the same workload seed always gives the same
list, and a held-out workload seed gives a fresh one.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent

# the shipped corpus, relative to the repository root
CORPUS = (
    "atan_like", "cbrt_like", "ceil_like", "expm1_like", "foo",
    "foo_infeasible", "hypot_like", "k_cos", "log1p_like", "tanh_like",
)
# sq_guard does the same work on every run and always reaches its goal;
# four runs per round keep goal_share and the median run time steady.
# fact_rec (programs/hard/) is left out: its runs raise RecursionError,
# and a workload must be one on which no run fails.
HARD = ("loop_guard", "halve_rec", "prod6", "bits4", "fanout")
HARD_ROUND = HARD + ("sq_guard",) * 4
# dispatcher name -> nesting depth; lvl0's conditional has label depth + 3
DEEP = {"dispatch10": 10, "dispatch11": 11, "dispatch12": 12}

# (mode, program or constraint, restart budget, path target).  The
# unsolvable x*x == 2 and the infeasible k_cos path use their whole
# budget and so do the same work on every seed; their repeats hold the
# median and the tail run time steady while the other runs vary.
SOLVE_ROUND = (
    ("sat", "x*y == 12 && x + y == 7", 8, None),          # (3, 4), (4, 3)
    ("sat", "2^x <= 5 && x*x >= 5 && x >= 0", 8, None),   # [2.2361, 2.3219]
    ("sat", "a*b - c == 1 && a + b + c == 10", 8, None),  # 3 variables
    *(("sat", "x*x == 2", 4, None),) * 9,   # no double root: unknown
    ("path", "k_cos", 8, ((0, "T"), (1, "T"))),           # |x| < 2^-27
    ("path", "k_cos", 8, ((0, "F"), (2, "F"), (3, "T"))),  # |x| > 0.78125
    ("path", "foo", 8, ((0, "T"), (1, "T"))),             # x = 1, x = -3
    ("path", "foo_infeasible", 8, ((1, "T"),)),           # y == -1
    *(("path", "k_cos", 4, ((0, "T"), (1, "F"))),) * 2,   # infeasible
    ("bva", "atan_like", 4, None),
    ("bva", "hypot_like", 4, None),
    ("bva", "ceil_like", 4, None),
)


@dataclass(frozen=True)
class Run:
    mode: str                       # cover, path, bva or sat
    source: str                     # program name or constraint text
    seed: int
    n_start: int = 500              # the library default
    target: Optional[tuple] = None  # path mode only


@dataclass
class Workload:
    name: str
    runs: list = field(default_factory=list)

    def programs(self):
        return sorted({r.source for r in self.runs if r.mode != "sat"})

    def constraints(self):
        return sorted({r.source for r in self.runs if r.mode == "sat"})


def program_path(root, name):
    """Source file of a named program: the shipped corpus lives in the
    repository's benchmarks/, the benchmark's own tiers next to this
    file."""
    for tier in ("hard", "deep"):
        path = HERE / "programs" / tier / f"{name}.mx"
        if path.exists():
            return path
    return Path(root) / "benchmarks" / f"{name}.mx"


def _draw_seed(rng):
    return rng.randrange(2**31)


def build(name, seed, tiny=False):
    """The run list of a workload for one workload seed.

    `tiny` keeps one round and caps every restart budget at 2, for
    smoke tests; it is never used for measurements.
    """
    rng = random.Random(f"{name}:{seed}")

    def cap(n_start):
        return min(n_start, 2) if tiny else n_start

    def rounds(n):
        return 1 if tiny else n

    runs = []
    if name == "corpus-cover":
        for _ in range(rounds(6)):
            for prog in CORPUS:
                runs.append(Run("cover", prog, _draw_seed(rng), cap(500)))
    elif name == "hard-cover":
        for _ in range(rounds(4)):
            for prog in HARD_ROUND:
                runs.append(Run("cover", prog, _draw_seed(rng), cap(4)))
    elif name == "solve-mix":
        for _ in range(rounds(2)):
            for mode, source, n_start, target in SOLVE_ROUND:
                runs.append(Run(mode, source, _draw_seed(rng), cap(n_start),
                                target))
    elif name == "deep-calls":
        # path mode keeps the search effort per run nearly fixed, so the
        # CFG build, which every mode does first, dominates: lvl0 true
        # and lvl0 false are found at once, lvl0 true then lvl1 false
        # is infeasible (x < 1 implies 2x < 2) and uses every restart.
        # One round takes 3-4.5 s, so a 36 s run measures each run of the
        # list eight times or more.
        for prog, depth in DEEP.items():
            top = depth + 3
            for target in (((top, "T"),), ((top, "F"),),
                           ((top, "T"), (top - 1, "F"))):
                runs.append(Run("path", prog, _draw_seed(rng), cap(2),
                                target))
    else:
        raise KeyError(name)
    return Workload(name=name, runs=runs)


NAMES = ("corpus-cover", "hard-cover", "solve-mix", "deep-calls")
