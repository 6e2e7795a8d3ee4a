"""Test-input generation for numerical programs.

Testing objectives (branch coverage, path reachability, boundary
values, constraint satisfiability) are encoded as nonnegative
representing functions whose roots are exactly the inputs sought; the
roots are found by basinhopping over Powell local minimization.
"""

from .distance import branch_distance, compare, negate_op
from .driver import SearchConfig, run_bva, run_coverage, run_path
from .interp import execute, coverage_config, path_config, bva_config
from .lang import parse
from .optimize import (
    LocalMinConfig, MCMCConfig, Objective, basinhopping, brent_line_min,
    powell_minimize,
)
from .report import CoverageReport, coverage_report
from .satcheck import check_sat, compile_constraint, parse_constraint
from .saturation import (
    SaturationState, goal_reached, new_state, pen, update_saturation,
)
from .transforms import prepare
from .cfg import build_cfg

__version__ = "1.0.0"

__all__ = [
    "branch_distance", "compare", "negate_op",
    "SearchConfig", "run_bva", "run_coverage", "run_path",
    "execute", "coverage_config", "path_config", "bva_config",
    "parse",
    "LocalMinConfig", "MCMCConfig", "Objective", "basinhopping",
    "brent_line_min", "powell_minimize",
    "CoverageReport", "coverage_report",
    "check_sat", "compile_constraint", "parse_constraint",
    "SaturationState", "goal_reached", "new_state", "pen",
    "update_saturation",
    "prepare",
    "build_cfg",
    "__version__",
]
