"""Shared helpers: random finite-state instances, a small 2-D system and
tiny reference recursions.

The generated systems have node-to-node transitions, so nearest-node solves
carry zero discretization error and every grid quantity can be checked
against plain recursive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import robust_thresholds as rt


@dataclass
class TabularInstance:
    params: rt.TabularParams
    sys: rt.SystemSpec
    grid: rt.StateGrid
    controls: rt.ControlMesh
    compiled: object
    reach: rt.ReachableSets
    xi: float


def random_instance(rng: np.random.Generator, *, max_states: int = 12,
                    max_controls: int = 4, max_horizon: int = 3,
                    m: int = 2, integer_values: bool = False) -> TabularInstance:
    n_states = int(rng.integers(2, max_states + 1))
    n_controls = int(rng.integers(2, max_controls + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    if integer_values:
        stage_values = rng.integers(-5, 6, size=(n_states, n_controls, m)).astype(float)
        terminal_values = rng.integers(-5, 6, size=(n_states, m)).astype(float)
    else:
        stage_values = rng.uniform(-5, 5, size=(n_states, n_controls, m))
        terminal_values = rng.uniform(-5, 5, size=(n_states, m))
    params = rt.TabularParams(
        node_coords=np.arange(n_states, dtype=float),
        transitions=rng.integers(0, n_states, size=(n_states, n_controls, 2)),
        stage_values=stage_values,
        terminal_values=terminal_values,
    )
    sys = rt.build_tabular_system(params, horizon=horizon)
    grid = rt.StateGrid(lower=[0.0], upper=[float(n_states - 1)], counts=[n_states])
    controls = rt.ControlMesh(tuple(range(n_controls)))
    compiled = rt.compile_system(sys, grid, controls, interp="nearest")
    xi = float(rng.integers(0, n_states))
    reach = rt.build_reachable_sets(xi, grid, sys, controls, compiled=compiled)
    return TabularInstance(params=params, sys=sys, grid=grid, controls=controls,
                           compiled=compiled, reach=reach, xi=xi)


def single_scenario_instance(inst: TabularInstance, scenario: int) -> TabularInstance:
    """Same tables restricted to one constant scenario."""
    p = inst.params
    params = rt.TabularParams(
        node_coords=p.node_coords,
        transitions=p.transitions[..., [scenario]],
        stage_values=p.stage_values,
        terminal_values=p.terminal_values,
    )
    sys = rt.build_tabular_system(params, horizon=inst.sys.horizon)
    compiled = rt.compile_system(sys, inst.grid, inst.controls, interp="nearest")
    reach = rt.build_reachable_sets(inst.xi, inst.grid, sys, inst.controls,
                                    compiled=compiled)
    return TabularInstance(params=params, sys=sys, grid=inst.grid,
                           controls=inst.controls, compiled=compiled, reach=reach,
                           xi=inst.xi)


def solve_w(inst: TabularInstance, c) -> float:
    return rt.solve_value(inst.xi, c, inst.sys, inst.grid, inst.controls,
                          compiled=inst.compiled, reach=inst.reach)


def exact_reachable_nodes(inst: TabularInstance) -> list:
    """Breadth-first reachable node-index sets, one per stage 0..N+1."""
    p = inst.params
    start = int(np.searchsorted(p.node_coords, inst.xi))
    sets = [{start}]
    for _ in range(inst.sys.horizon + 1):
        nxt = set()
        for i in sets[-1]:
            for u in range(p.n_controls):
                for w in range(p.n_scenarios):
                    nxt.add(int(p.transitions[i, u, w]))
        sets.append(nxt)
    return sets


def tree_constrained_value(inst: TabularInstance, comp: int, c: np.ndarray,
                           neg_inf: float = -1.0e9) -> float:
    """Reference recursion for the component-constrained maximin problem."""
    p, sys = inst.params, inst.sys

    def node_of(x):
        return int(np.searchsorted(p.node_coords, x - 1e-9))

    def value(n, x):
        i = node_of(x)
        if n == sys.horizon + 1:
            return (p.terminal_values[i, comp]
                    if np.all(p.terminal_values[i] >= c) else neg_inf)
        best = -np.inf
        for u in range(p.n_controls):
            here = (p.stage_values[i, u, comp]
                    if np.all(p.stage_values[i, u] >= c) else neg_inf)
            worst = min(value(n + 1, p.node_coords[p.transitions[i, u, w]])
                        for w in range(p.n_scenarios))
            best = max(best, min(worst, here))
        return best

    return value(0, inst.xi)


def tree_policy_threshold(inst: TabularInstance, policy: rt.FeedbackPolicy) -> np.ndarray:
    """Reference closed-loop rollup of a policy into its guaranteed thresholds."""
    p, sys = inst.params, inst.sys
    m = p.terminal_values.shape[1]

    def comp_value(n, i, j):
        if n == sys.horizon + 1:
            return p.terminal_values[i, j]
        u = int(policy.choices[n, i])
        worst = min(comp_value(n + 1, int(p.transitions[i, u, w]), j)
                    for w in range(p.n_scenarios))
        return min(p.stage_values[i, u, j], worst)

    start = int(np.searchsorted(p.node_coords, inst.xi))
    return np.asarray([comp_value(0, start, j) for j in range(m)])



PLANE_XI = (2.2, 1.7)


def plane_problem():
    """(sys, grid, controls, compiled, reach) of a 2-D time-varying system
    with 3 scenarios and 3 constraint components on a 9x9 grid with 5
    controls, reachable from ``PLANE_XI``: the 4-corner gather, the
    index-array rows and the longer slice loops, with images leaving the
    grid box on both sides."""
    shifts = ((0.3, -0.2), (-0.1, 0.4), (0.0, 0.0))
    sys = rt.SystemSpec(
        horizon=2, state_dim=2, threshold_dim=3,
        dynamics=lambda k, x, u, w: (0.8 + 0.05 * k) * np.asarray(x) + u + np.asarray(w),
        stage_constraints=lambda k, x, u: np.asarray([x[0], x[1] - 0.1 * k, -abs(u)]),
        terminal_constraint=lambda x: np.asarray([x[0], x[1], 0.0]),
        control_space=rt.IntervalControlSpace(-0.5, 0.5),
        scenario_sets=(shifts,) * 3,
    )
    grid = rt.StateGrid(lower=[0.0, 0.0], upper=[4.0, 4.0], counts=[9, 9])
    controls = rt.ControlMesh.uniform(-0.5, 0.5, 5)
    compiled = rt.compile_system(sys, grid, controls)
    reach = rt.build_reachable_sets(PLANE_XI, grid, sys, controls, compiled=compiled)
    return sys, grid, controls, compiled, reach
