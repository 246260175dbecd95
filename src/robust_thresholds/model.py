"""Uncertain discrete-time control systems with mixed and end-point constraints.

A system runs for stages k = 0..N.  At every stage the controller picks a
control u_k, an adversarial scenario element w_k is drawn from a finite
per-stage set, and the state advances through the stage dynamics.  A
trajectory therefore has N+2 states (x_0..x_{N+1}) driven by N+1 controls
and N+1 scenario elements.  Stage constraints couple (x_k, u_k), and a
terminal constraint applies to x_{N+1}; both are compared componentwise
against a threshold vector elsewhere (see ``dp`` and ``pareto``).

Everything in this module evaluates the system exactly: no grid, no
clamping.  Discretization lives in ``mesh``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "IntervalControlSpace",
    "FiniteControlSpace",
    "SystemSpec",
    "TabularParams",
    "build_tabular_system",
]


@dataclass(frozen=True)
class IntervalControlSpace:
    """Compact box of scalar controls [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError("control bounds must be finite")
        if self.lower > self.upper:
            raise ValueError("control space is empty: lower > upper")

    def contains(self, u) -> bool:
        return bool(self.lower - 1e-12 <= float(u) <= self.upper + 1e-12)


@dataclass(frozen=True)
class FiniteControlSpace:
    """Explicit finite list of admissible controls."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("control space is empty")

    def contains(self, u) -> bool:
        return any(np.all(u == v) for v in self.values)


def _as_state(x, state_dim: int) -> np.ndarray:
    """Normalize a state to a float array of shape (state_dim,)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (state_dim,):
        raise ValueError(f"state has shape {arr.shape}, expected ({state_dim},)")
    return arr


def _state_out(arr: np.ndarray, state_dim: int):
    """Return states as scalars for 1-D systems, arrays otherwise."""
    return float(arr[0]) if state_dim == 1 else arr


@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of one uncertain discrete-time control system.

    dynamics(k, x, u, w)           -> next state
    stage_constraints(k, x, u)     -> vector of length threshold_dim
    terminal_constraint(x)         -> vector of length threshold_dim

    ``scenario_sets`` holds one finite tuple of scenario elements per stage
    k = 0..N.  If ``time_invariant`` is set, dynamics, constraints and
    scenario sets do not depend on k, which downstream code exploits to
    share precomputed transition tables across stages.  If ``batchable`` is
    set, the three callables also accept a batch of states (shape (B,) for
    1-D systems, (B, state_dim) otherwise) with fixed (k, u, w) and return
    batched results; the built-in fishery and tabular systems do.
    """

    horizon: int
    state_dim: int
    threshold_dim: int
    dynamics: Callable
    stage_constraints: Callable
    terminal_constraint: Callable
    control_space: Any
    scenario_sets: tuple
    time_invariant: bool = False
    batchable: bool = False

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.state_dim < 1 or self.threshold_dim < 1:
            raise ValueError("state_dim and threshold_dim must be positive")
        if len(self.scenario_sets) != self.horizon + 1:
            raise ValueError(
                f"need one scenario set per stage 0..{self.horizon}, "
                f"got {len(self.scenario_sets)}"
            )
        for k, om in enumerate(self.scenario_sets):
            if len(om) == 0:
                raise ValueError(f"scenario set at stage {k} is empty")

    # -- exact evaluation -------------------------------------------------

    def _check_stage(self, k: int) -> None:
        if not 0 <= k <= self.horizon:
            raise ValueError(f"stage {k} out of range [0, {self.horizon}]")

    def step(self, k: int, x, u, w):
        """One exact transition x -> F_k(x, u, w).  No grid snapping."""
        self._check_stage(k)
        if not any(_scenario_eq(w, v) for v in self.scenario_sets[k]):
            raise ValueError(f"scenario element {w!r} not in stage-{k} scenario set")
        xa = _as_state(x, self.state_dim)
        out = np.asarray(self.dynamics(k, _state_out(xa, self.state_dim), u, w),
                         dtype=float)
        return _state_out(np.atleast_1d(out), self.state_dim)

    def stage_constraint(self, k: int, x, u) -> np.ndarray:
        """Raw stage constraint vector; never compared against a threshold here."""
        self._check_stage(k)
        xa = _as_state(x, self.state_dim)
        g = np.atleast_1d(np.asarray(
            self.stage_constraints(k, _state_out(xa, self.state_dim), u), dtype=float))
        if g.shape != (self.threshold_dim,):
            raise ValueError(
                f"stage constraint returned shape {g.shape}, "
                f"expected ({self.threshold_dim},)")
        return g

    def terminal(self, x) -> np.ndarray:
        xa = _as_state(x, self.state_dim)
        th = np.atleast_1d(np.asarray(
            self.terminal_constraint(_state_out(xa, self.state_dim)), dtype=float))
        if th.shape != (self.threshold_dim,):
            raise ValueError(
                f"terminal constraint returned shape {th.shape}, "
                f"expected ({self.threshold_dim},)")
        return th


def _scenario_eq(a, b) -> bool:
    try:
        return bool(np.all(a == b))
    except Exception:
        return a is b


def as_threshold(c, m: int) -> np.ndarray:
    """Normalize a threshold vector to a finite float array of shape (m,)."""
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.shape != (m,):
        raise ValueError(f"threshold has shape {arr.shape}, expected ({m},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("threshold entries must be finite")
    return arr


# -- built-in finite-state test system ------------------------------------


@dataclass(frozen=True)
class TabularParams:
    """Finite-state system whose transitions map grid nodes exactly to nodes.

    node_coords      (X,) strictly increasing state coordinates
    transitions      (X, U, W) or (N+1, X, U, W) int node indices
    stage_values     (X, U, m) or (N+1, X, U, m) constraint values
    terminal_values  (X, m)

    Controls and scenario elements are the integer indices 0..U-1 and
    0..W-1.  Because transitions land exactly on nodes, value iteration with
    nearest-node interpolation has zero discretization error, which is what
    the oracle-equivalence tests rely on.
    """

    node_coords: np.ndarray
    transitions: np.ndarray
    stage_values: np.ndarray
    terminal_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "node_coords",
                           np.asarray(self.node_coords, dtype=float))
        object.__setattr__(self, "transitions",
                           np.asarray(self.transitions, dtype=int))
        object.__setattr__(self, "stage_values",
                           np.asarray(self.stage_values, dtype=float))
        object.__setattr__(self, "terminal_values",
                           np.asarray(self.terminal_values, dtype=float))
        if self.node_coords.ndim != 1 or len(self.node_coords) < 1:
            raise ValueError("node_coords must be a nonempty 1-D array")
        if np.any(np.diff(self.node_coords) <= 0):
            raise ValueError("node_coords must be strictly increasing")
        if self.transitions.ndim not in (3, 4):
            raise ValueError("transitions must have 3 or 4 axes")
        if self.stage_values.ndim not in (3, 4):
            raise ValueError("stage_values must have 3 or 4 axes")
        n = len(self.node_coords)
        if np.any(self.transitions < 0) or np.any(self.transitions >= n):
            raise ValueError("transition indices out of range")
        if self.terminal_values.shape[0] != n or self.terminal_values.ndim != 2:
            raise ValueError("terminal_values must have shape (X, m)")
        t, g = self.transitions.shape, self.stage_values.shape
        if t[-3] != n or g[-3] != n:
            raise ValueError(f"transitions {t} and stage_values {g} must both "
                             f"cover the {n} states of node_coords")
        if t[-2] != g[-2]:
            raise ValueError(f"transitions {t} and stage_values {g} disagree "
                             f"on the number of controls")
        if len(t) == len(g) == 4 and t[0] != g[0]:
            raise ValueError(f"transitions {t} and stage_values {g} disagree "
                             f"on the number of stages")
        if g[-1] != self.terminal_values.shape[1]:
            raise ValueError(f"stage_values {g} and terminal_values "
                             f"{self.terminal_values.shape} disagree on the "
                             f"number of constraint components")

    @property
    def n_controls(self) -> int:
        return self.transitions.shape[-2]

    @property
    def n_scenarios(self) -> int:
        return self.transitions.shape[-1]

    def __eq__(self, other):
        if not isinstance(other, TabularParams):
            return NotImplemented
        return (np.array_equal(self.node_coords, other.node_coords)
                and np.array_equal(self.transitions, other.transitions)
                and np.array_equal(self.stage_values, other.stage_values)
                and np.array_equal(self.terminal_values, other.terminal_values))


def _node_index(coords: np.ndarray, x):
    """Index of the node at (or nearest above) x; exact for on-node states."""
    # searchsorted never returns a negative index, so only the top is capped
    return np.minimum(np.searchsorted(coords, np.asarray(x, dtype=float) - 1e-9),
                      len(coords) - 1)


class _NodeLookup:
    """``_node_index`` of one tabular system's node coordinates.

    A node coordinate, the state every transition lands on, is a dict hit
    whose index ``_node_index`` computed once, so the hit is exact by
    construction.  Anything else (an off-node or NaN state, or a batch of
    states, which is unhashable) takes ``_node_index`` itself.
    """

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        self.index = dict(zip(coords.tolist(), _node_index(coords, coords).tolist()))

    def __call__(self, x):
        try:
            i = self.index.get(x)
        except TypeError:
            i = None
        return _node_index(self.coords, x) if i is None else i


class _TabularDynamics:
    """Picklable transition lookup for TabularParams."""

    def __init__(self, params: TabularParams, node: _NodeLookup):
        self.params = params
        self.node = node

    def __call__(self, k, x, u, w):
        p = self.params
        table = p.transitions if p.transitions.ndim == 3 else p.transitions[k]
        return p.node_coords[table[self.node(x), int(u), int(w)]]


class _TabularStageConstraint:
    def __init__(self, params: TabularParams, node: _NodeLookup):
        self.params = params
        self.node = node

    def __call__(self, k, x, u):
        p = self.params
        table = p.stage_values if p.stage_values.ndim == 3 else p.stage_values[k]
        return table[self.node(x), int(u)]


class _TabularTerminal:
    def __init__(self, params: TabularParams, node: _NodeLookup):
        self.params = params
        self.node = node

    def __call__(self, x):
        return self.params.terminal_values[self.node(x)]


def build_tabular_system(params: TabularParams, horizon: int) -> SystemSpec:
    """Wrap a transition table as a SystemSpec over its node coordinates."""
    if params.transitions.ndim == 4 and params.transitions.shape[0] != horizon + 1:
        raise ValueError("per-stage transitions must cover stages 0..N")
    if params.stage_values.ndim == 4 and params.stage_values.shape[0] != horizon + 1:
        raise ValueError("per-stage stage_values must cover stages 0..N")
    time_invariant = params.transitions.ndim == 3 and params.stage_values.ndim == 3
    m = params.terminal_values.shape[1]
    scen = tuple(range(params.n_scenarios))
    node = _NodeLookup(params.node_coords)  # one dict shared by the three callables
    return SystemSpec(
        horizon=horizon,
        state_dim=1,
        threshold_dim=m,
        dynamics=_TabularDynamics(params, node),
        stage_constraints=_TabularStageConstraint(params, node),
        terminal_constraint=_TabularTerminal(params, node),
        control_space=FiniteControlSpace(tuple(range(params.n_controls))),
        scenario_sets=tuple(scen for _ in range(horizon + 1)),
        time_invariant=time_invariant,
        batchable=True,
    )
