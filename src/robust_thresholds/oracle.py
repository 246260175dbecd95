"""Brute-force verifiers, deliberately independent of the grid solver.

These recurse or enumerate on exact continuous states through the model
surface only; no grids, no interpolation, no shared code with ``dp`` beyond
the system definition itself.  They exist to check the solver, so they stay
dumb on purpose.  A node-expansion budget guards against accidental
exponential blowups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import ControlMesh
from .model import SystemSpec, as_threshold, check_admissible, simulate

__all__ = [
    "OracleBudget",
    "BudgetExceededError",
    "closedloop_maximin",
    "openloop_maximin",
    "exhaustive_membership",
]


class BudgetExceededError(RuntimeError):
    """The enumeration outgrew its node-expansion budget."""


@dataclass
class OracleBudget:
    max_expansions: int = 10_000_000
    used: int = 0

    def __post_init__(self):
        if self.max_expansions <= 0:
            raise ValueError("budget must be positive")

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.max_expansions:
            raise BudgetExceededError(
                f"oracle budget of {self.max_expansions} expansions exceeded")


def closedloop_maximin(xi, c, sys: SystemSpec, controls: ControlMesh,
                       budget: OracleBudget | None = None) -> float:
    """Game-tree value: controller commits a mesh control at each reached
    state, then the worst scenario element is revealed, stage by stage.

    Direct recursive evaluation on exact states, no grid.  Memoization only
    collapses repeated (stage, state) subtrees (exact-key lookups, so results
    are bit-identical to the full tree).
    """
    cv = as_threshold(c, sys.threshold_dim)
    bud = budget if budget is not None else OracleBudget()
    m = sys.threshold_dim
    cs = [float(v) for v in cv]
    dyn, g_of, th_of = sys.dynamics, sys.stage_constraints, sys.terminal_constraint
    seen: dict = {}

    def key_of(x):
        return float(x) if np.ndim(x) == 0 else tuple(np.ravel(x))

    def value(n, x):
        key = (n, key_of(x))
        hit = seen.get(key)
        if hit is not None:
            return hit
        bud.spend()
        if n == sys.horizon + 1:
            th = th_of(x)
            out = min(float(th[j]) - cs[j] for j in range(m))
        else:
            out = -np.inf
            for u in controls.values:
                g = g_of(n, x, u)
                here = min(float(g[j]) - cs[j] for j in range(m))
                worst_next = min(value(n + 1, dyn(n, x, u, w))
                                 for w in sys.scenario_sets[n])
                out = max(out, min(worst_next, here))
        seen[key] = out
        return out

    return value(0, xi)


def openloop_maximin(xi, c, sys: SystemSpec, controls: ControlMesh,
                     budget: OracleBudget | None = None) -> float:
    """max over full control paths of min over full scenario paths of the
    smallest constraint slack along the rollout (stage and terminal alike).

    Never exceeds the closed-loop value: committing the whole control path
    up front concedes the information advantage.
    """
    cv = as_threshold(c, sys.threshold_dim)
    bud = budget if budget is not None else OracleBudget()
    n_stages = sys.horizon + 1
    best = -np.inf
    for upath in itertools.product(controls.values, repeat=n_stages):
        worst = np.inf
        for wpath in itertools.product(*sys.scenario_sets):
            bud.spend()
            traj = simulate(sys, xi, upath, wpath)
            r = min(min(np.min(sys.stage_constraint(k, traj[k], upath[k]) - cv)
                        for k in range(n_stages)),
                    np.min(sys.terminal(traj[-1]) - cv))
            worst = min(worst, float(r))
            if worst <= best:
                break  # this control path already lost
        best = max(best, worst)
    return best


def exhaustive_membership(xi, c, sys: SystemSpec, controls: ControlMesh,
                          budget: OracleBudget | None = None) -> bool:
    """True iff some mesh control path is admissible against every scenario
    path, checked definitionally through ``check_admissible``.

    Agrees with ``openloop_maximin(...) >= 0`` by construction of the slack.
    """
    bud = budget if budget is not None else OracleBudget()
    n_stages = sys.horizon + 1
    for upath in itertools.product(controls.values, repeat=n_stages):
        ok = True
        for wpath in itertools.product(*sys.scenario_sets):
            bud.spend()
            if not check_admissible(sys, xi, upath, wpath, c):
                ok = False
                break
        if ok:
            return True
    return False
