"""Shared helpers: random finite-state instances, a small 2-D system,
full-grid reachable sets, tiny reference recursions and the definitional
rollout, admissibility and slack references the solver and oracles are
checked against.

The generated systems have node-to-node transitions, so nearest-node solves
carry zero discretization error and every grid quantity can be checked
against plain recursive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import robust_thresholds as rt
from robust_thresholds.model import as_threshold


def simulate(sys: rt.SystemSpec, xi, controls: Sequence, scenario: Sequence):
    """Roll the system forward; returns the trajectory (x_0 .. x_{N+1}).

    Pure function of (xi, controls, scenario): replaying the output through
    ``step`` reproduces it node by node.
    """
    n_stages = sys.horizon + 1
    if len(controls) != n_stages:
        raise ValueError(f"control path has {len(controls)} entries, expected {n_stages}")
    if len(scenario) != n_stages:
        raise ValueError(f"scenario path has {len(scenario)} entries, expected {n_stages}")
    traj = [xi]
    x = xi
    for k in range(n_stages):
        x = sys.step(k, x, controls[k], scenario[k])
        traj.append(x)
    return traj


def check_admissible(sys: rt.SystemSpec, xi, controls, scenario, c) -> bool:
    """True iff every stage constraint and the terminal constraint clear c.

    Antitone in c componentwise: lowering any threshold entry can only turn
    False into True.
    """
    cv = as_threshold(c, sys.threshold_dim)
    traj = simulate(sys, xi, controls, scenario)
    for k in range(sys.horizon + 1):
        if not np.all(sys.stage_constraint(k, traj[k], controls[k]) >= cv):
            return False
    return bool(np.all(sys.terminal(traj[-1]) >= cv))


def stage_slack(sys: rt.SystemSpec, k: int, x, u, c) -> float:
    """Smallest componentwise gap g^k(x, u) - c; >= 0 iff the stage clears c."""
    cv = as_threshold(c, sys.threshold_dim)
    return float(np.min(sys.stage_constraint(k, x, u) - cv))


def terminal_slack(sys: rt.SystemSpec, x, c) -> float:
    """Smallest componentwise gap between the terminal constraint and c."""
    cv = as_threshold(c, sys.threshold_dim)
    return float(np.min(sys.terminal(x) - cv))


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


def full_grid_sets(grid: rt.StateGrid, horizon: int) -> rt.ReachableSets:
    """Reachable sets marking every node at every stage: the reference the
    reachable-set solves are compared with."""
    masks = np.ones((horizon + 2, grid.n_nodes), dtype=bool)
    return rt.ReachableSets(grid=grid, masks=masks)


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


def tree_policy_threshold(inst: TabularInstance, choices: np.ndarray) -> np.ndarray:
    """Reference closed-loop rollup of the feedback policy ``choices`` into
    its guaranteed thresholds."""
    p, sys = inst.params, inst.sys
    m = p.terminal_values.shape[1]

    def comp_value(n, i, j):
        if n == sys.horizon + 1:
            return p.terminal_values[i, j]
        u = int(choices[n, i])
        worst = min(comp_value(n + 1, int(p.transitions[i, u, w]), j)
                    for w in range(p.n_scenarios))
        return min(p.stage_values[i, u, j], worst)

    start = int(np.searchsorted(p.node_coords, inst.xi))
    return np.asarray([comp_value(0, start, j) for j in range(m)])


def product_openloop_maximin(xi, c, sys: rt.SystemSpec, controls: rt.ControlMesh) -> float:
    """Reference open-loop value: every control path against every scenario
    path, each pair simulated from xi on its own."""
    cv = as_threshold(c, sys.threshold_dim)
    n_stages = sys.horizon + 1
    best = -np.inf
    for upath in itertools.product(controls.values, repeat=n_stages):
        worst = np.inf
        for wpath in itertools.product(*sys.scenario_sets):
            traj = simulate(sys, xi, upath, wpath)
            r = min(min(np.min(sys.stage_constraint(k, traj[k], upath[k]) - cv)
                        for k in range(n_stages)),
                    np.min(sys.terminal(traj[-1]) - cv))
            worst = min(worst, float(r))
            if worst <= best:
                break  # this control path already lost
        best = max(best, worst)
    return best


def product_exhaustive_membership(xi, c, sys: rt.SystemSpec,
                                  controls: rt.ControlMesh) -> bool:
    """Reference open-loop membership: some control path passes
    ``check_admissible`` against every scenario path."""
    n_stages = sys.horizon + 1
    return any(all(check_admissible(sys, xi, upath, wpath, c)
                   for wpath in itertools.product(*sys.scenario_sets))
               for upath in itertools.product(controls.values, repeat=n_stages))


def bisect_level(solve, c, comp: int, tol: float, upper: float) -> float:
    """Reference level search: plain bisection on the sign of W, down to
    adjacent floats, with no iteration cap."""
    lo, hi = float(c[comp]), float(upper)
    trial = np.array(c, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        trial[comp] = mid
        if solve(trial) >= -tol:
            lo = mid
        else:
            hi = mid


PLANE_XI = (2.2, 1.7)


def plane_problem(counts=(9, 9)):
    """(sys, grid, controls, compiled, reach) of a 2-D time-varying system
    with 3 scenarios and 3 constraint components on a 9x9 grid (or
    ``counts``) with 5 controls, reachable from ``PLANE_XI``: the 4-corner
    gather, the index-array rows and the longer slice loops, with images
    leaving the grid box on both sides."""
    shifts = ((0.3, -0.2), (-0.1, 0.4), (0.0, 0.0))
    sys = rt.SystemSpec(
        horizon=2, state_dim=2, threshold_dim=3,
        dynamics=lambda k, x, u, w: (0.8 + 0.05 * k) * np.asarray(x) + u + np.asarray(w),
        stage_constraints=lambda k, x, u: np.asarray([x[0], x[1] - 0.1 * k, -abs(u)]),
        terminal_constraint=lambda x: np.asarray([x[0], x[1], 0.0]),
        control_space=rt.IntervalControlSpace(-0.5, 0.5),
        scenario_sets=(shifts,) * 3,
    )
    grid = rt.StateGrid(lower=[0.0, 0.0], upper=[4.0, 4.0], counts=list(counts))
    controls = rt.ControlMesh.uniform(-0.5, 0.5, 5)
    compiled = rt.compile_system(sys, grid, controls)
    reach = rt.build_reachable_sets(PLANE_XI, grid, sys, controls, compiled=compiled)
    return sys, grid, controls, compiled, reach


def product_problem(rng: np.random.Generator, *, max_states: int = 4,
                    n_controls: int = 3, horizon: int = 2):
    """(sys, grid, controls, compiled, reach, xi) of a 2-D node-to-node
    system compiled with nearest-node interpolation: each coordinate moves
    by its own random transition table under a shared control and
    scenario, and the constraints are random per (node, control)."""
    na, nb = (int(v) for v in rng.integers(2, max_states + 1, size=2))
    ta = rng.integers(0, na, size=(na, n_controls, 2))
    tb = rng.integers(0, nb, size=(nb, n_controls, 2))
    g = rng.uniform(-5, 5, size=(na, nb, n_controls, 2))
    theta = rng.uniform(-5, 5, size=(na, nb, 2))

    def node(x):
        return int(round(x[0])), int(round(x[1]))

    def dynamics(k, x, u, w):
        a, b = node(x)
        return np.array([ta[a, u, w], tb[b, u, w]], dtype=float)

    sys = rt.SystemSpec(
        horizon=horizon, state_dim=2, threshold_dim=2, dynamics=dynamics,
        stage_constraints=lambda k, x, u: g[node(x) + (u,)],
        terminal_constraint=lambda x: theta[node(x)],
        control_space=rt.FiniteControlSpace(tuple(range(n_controls))),
        scenario_sets=((0, 1),) * (horizon + 1), time_invariant=True,
    )
    grid = rt.StateGrid(lower=[0.0, 0.0], upper=[na - 1.0, nb - 1.0], counts=[na, nb])
    controls = rt.ControlMesh(tuple(range(n_controls)))
    compiled = rt.compile_system(sys, grid, controls, interp="nearest")
    xi = (float(rng.integers(0, na)), float(rng.integers(0, nb)))
    reach = rt.build_reachable_sets(xi, grid, sys, controls, compiled=compiled)
    return sys, grid, controls, compiled, reach, xi
