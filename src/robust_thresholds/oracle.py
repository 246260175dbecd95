"""Brute-force verifiers, deliberately independent of the grid solver.

These recurse or enumerate on exact continuous states through the model
surface only; no grids, no interpolation, no shared code with ``dp`` beyond
the system definition itself.  They exist to check the solver, so they stay
definitional: the closed-loop oracle evaluates the game tree, and the
open-loop oracles search control paths against every scenario path.  The
path search shares prefixes: each (control prefix, scenario prefix) pair is
simulated once, through ``SystemSpec.step`` as the reference ``simulate`` of
``tests/tabular_tools.py`` does, and a control prefix that can no longer win
is dropped with all its extensions.  A node-expansion budget guards against
accidental exponential blowups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import ControlMesh
from .model import SystemSpec, as_threshold

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
    are bit-identical to the full tree).  The states of a 1-D system are
    scalars, as ``SystemSpec.step`` returns them, and key as floats; other
    states key as tuples.  One expansion is one (stage, state) node
    evaluated; a memo hit costs none.
    """
    cv = as_threshold(c, sys.threshold_dim)
    bud = budget if budget is not None else OracleBudget()
    m = sys.threshold_dim
    cs = [float(v) for v in cv]
    dyn, g_of, th_of = sys.dynamics, sys.stage_constraints, sys.terminal_constraint
    seen: dict = {}
    key_of = float if sys.state_dim == 1 else (lambda x: tuple(np.ravel(x)))

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


def _path_search(xi, sys: SystemSpec, controls: ControlMesh, bud: OracleBudget,
                 stage_score, terminal_score, enough: float) -> float:
    """max over mesh control paths of the smallest node score met on the
    path's scenario tree: ``stage_score(k, x, u)`` at every stage-k state
    and ``terminal_score(x)`` at every final state.

    Depth first over control prefixes.  A prefix carries the states of all
    its scenario prefixes, in lexicographic order, and the smallest score
    met so far.  It is dropped, with every extension, once that score is
    <= the best complete path: no extension can beat the best, since a
    path's value is at most any score on it.  The search stops once the
    best reaches ``enough``.  One expansion is one simulated step, spent
    before the steps of a prefix are taken.
    """
    best = -np.inf
    last = sys.horizon

    def descend(k, states, low_in):
        nonlocal best
        scen = sys.scenario_sets[k]
        for u in controls.values:
            low = low_in
            for x in states:
                low = min(low, stage_score(k, x, u))
                if low <= best:
                    break
            else:  # no state dropped the prefix
                bud.spend(len(states) * len(scen))
                nxt = [sys.step(k, x, u, w) for x in states for w in scen]
                if k < last:
                    descend(k + 1, nxt, low)
                else:
                    for x in nxt:
                        low = min(low, terminal_score(x))
                        if low <= best:
                            break
                    else:  # a complete path better than the best
                        best = low
                if best >= enough:
                    return

    descend(0, [xi], np.inf)
    return best


def openloop_maximin(xi, c, sys: SystemSpec, controls: ControlMesh,
                     budget: OracleBudget | None = None) -> float:
    """max over full control paths of min over full scenario paths of the
    smallest constraint slack along the rollout (stage and terminal alike).

    Never exceeds the closed-loop value: committing the whole control path
    up front concedes the information advantage.
    """
    cv = as_threshold(c, sys.threshold_dim)
    bud = budget if budget is not None else OracleBudget()
    return _path_search(
        xi, sys, controls, bud,
        lambda k, x, u: float(np.min(sys.stage_constraint(k, x, u) - cv)),
        lambda x: float(np.min(sys.terminal(x) - cv)),
        np.inf)


def exhaustive_membership(xi, c, sys: SystemSpec, controls: ControlMesh,
                          budget: OracleBudget | None = None) -> bool:
    """True iff some mesh control path is admissible against every scenario
    path: every stage and terminal constraint vector on the rollout is >= c
    componentwise, compared definitionally as the reference
    ``check_admissible`` of ``tests/tabular_tools.py`` does.

    Agrees with ``openloop_maximin(...) >= 0`` by construction of the slack.
    """
    cv = as_threshold(c, sys.threshold_dim)
    bud = budget if budget is not None else OracleBudget()
    # a node scores 0 when its constraints clear c and -inf otherwise, so a
    # failing node drops its control prefix and a complete path ends the
    # search
    return _path_search(
        xi, sys, controls, bud,
        lambda k, x, u: 0.0 if np.all(sys.stage_constraint(k, x, u) >= cv) else -np.inf,
        lambda x: 0.0 if np.all(sys.terminal(x) >= cv) else -np.inf,
        0.0) >= 0.0
