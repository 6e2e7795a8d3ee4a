"""Branch saturation bookkeeping and the coverage penalty function.

A branch is saturated once it and every branch reachable from it are
covered (or deemed infeasible).  The penalty function drives the search
toward conditionals with exactly one saturated side: it returns the
distance to flipping that conditional the unsaturated way.
"""

from dataclasses import dataclass

from .distance import branch_distance, negate_op


@dataclass(frozen=True)
class SaturationState:
    cfg: object
    covered: frozenset = frozenset()
    infeasible: frozenset = frozenset()
    explored: frozenset = frozenset()


def _recompute_explored(cfg, covered, infeasible):
    done = covered | infeasible
    explored = {
        b for b in covered
        if cfg.descendant.get(b, frozenset()) <= done
    }
    return frozenset(explored) | infeasible


def new_state(cfg):
    return SaturationState(cfg=cfg)


def update_saturation(state, covered_branches):
    """Fold newly covered branches into the state and recompute which
    branches are saturated."""
    covered = state.covered | frozenset(covered_branches)
    explored = _recompute_explored(state.cfg, covered, state.infeasible)
    return SaturationState(cfg=state.cfg, covered=covered,
                           infeasible=state.infeasible, explored=explored)


def add_infeasible(state, branch):
    """Deem a branch infeasible; it counts as explored from now on."""
    if branch in state.covered:
        return state
    infeasible = state.infeasible | {branch}
    explored = _recompute_explored(state.cfg, state.covered, infeasible)
    return SaturationState(cfg=state.cfg, covered=state.covered,
                           infeasible=infeasible, explored=explored)


def goal_reached(state):
    """True once every branch in the CFG is saturated or infeasible."""
    return state.cfg.branches <= state.explored


def pen(label, op, a, b, state, r_current, epsilon=1e-6):
    """Penalty value at conditional `label` evaluating `a op b`.

    Neither side saturated: 0 (any new input makes progress).
    One side saturated: distance toward the unsaturated side.
    Both sides saturated: keep the current value unchanged.
    """
    t_done = (label, "T") in state.explored
    f_done = (label, "F") in state.explored
    if not t_done and not f_done:
        return 0.0
    if not t_done and f_done:
        return branch_distance(op, a, b, epsilon)
    if t_done and not f_done:
        return branch_distance(negate_op(op), a, b, epsilon)
    return r_current
