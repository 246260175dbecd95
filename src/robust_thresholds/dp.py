"""Maximin backward dynamic programming over a discretized system.

For a threshold vector c the stage-n value at a grid node x follows the
recursion

    V_n(x) = max over mesh controls u of
             min( worst-case over scenario elements w of V_{n+1}(F_n(x,u,w)),
                  stage slack at (x, u) )

with V_{N+1} equal to the terminal slack, where the stage slack is the
smallest componentwise gap between the stage constraint vector and c, and
likewise for the terminal slack.  The root value W(xi, c) = V_0(xi) decides
membership: c is robustly sustainable from xi exactly when W >= 0, and the
weak Pareto front is its zero level set.

The same sweep also runs with arbitrary per-stage score arrays instead of
slacks; the constrained problems behind the strong Pareto front reuse it
with infeasible state-control pairs masked to a large negative sentinel
(min/max propagate the sentinel, nothing ever sums it with real payoffs
except interpolation weights in [0, 1]).  Every score form is a min of
nondecreasing per-component maps of the constraint vector, applied alike
to stage and terminal constraints.

Dynamics are evaluated exactly, but value tables live on the grid box, so
an image F_n(x,u,w) outside the box is read through the clamped table
(see ``mesh.StateGrid.locate``).  That read alone would credit a fishery
stock driven below zero with the value of stock zero.  Each out-of-box
read is therefore capped by what the next stage's own constraints allow
at the exact image y: the score of theta(y) when the next stage is
terminal, else the score of the best-case vector G(y) = max over mesh
controls u' of g_{n+1}(y, u') (componentwise).  V_{n+1}(y) never exceeds
that score, so the cap is a valid upper bound.  The sweeps take the min
over scenarios of the reads and the stage score alike, so the compiled
system folds each cap vector into the constraint vector of its (x, u) by
a componentwise min, which scores bit for bit as the min of the two
scores.  A threshold then touches only scores.

One backward loop serves both the optimizing sweep (``sweep_scores``) and
the evaluation of a fixed policy (``sweep_policy``): evaluating a policy
is the same max over a one-control set, each row gathering only the cells
of its chosen control.  Every stage runs one kernel.  It gathers the
next-stage values corner by corner with ``take`` and accumulates the
weighted corners in place, then takes the minimum over scenarios and with
the stage score.  The scenario axis, like the constraint axis of the score
builders, is short (two entries on the fishery) and trailing, so every
minimum over it is taken slice by slice with ``np.minimum``: a ufunc
reduction over a 2-element axis costs an order of magnitude more than
the elementwise minimum of its two slices.  The float operations are the
same either way, so tables are bitwise those of a plain ``.min(axis=-1)``.

Everything here is deterministic: control ties resolve to the lowest mesh
index, so repeated runs reproduce tables bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mesh import (ControlMesh, ReachableSets, StateGrid, UnpopulatedNodeError,
                   _require_compiled_from, full_grid_sets, interpolate)
from .model import SystemSpec, as_threshold

__all__ = [
    "NEG_INF",
    "ValueTable",
    "FeedbackPolicy",
    "CompiledSystem",
    "compile_system",
    "stage_slack",
    "terminal_slack",
    "backward_recursion",
    "robust_value",
    "solve_value",
    "membership",
]

# Finite stand-in for "infeasible"; only ever flows through min/max and
# convex interpolation, so it cannot overflow.  Values at or below
# NEG_INF_CUTOFF are treated as infeasibility markers.
NEG_INF = -1.0e9
NEG_INF_CUTOFF = NEG_INF / 2.0


@dataclass
class ValueTable:
    """Stage-n values on grid nodes for one threshold (NaN = never populated)."""

    stage: int
    threshold: np.ndarray | None
    grid: StateGrid
    values: np.ndarray
    populated: np.ndarray
    interp: str = "multilinear"


@dataclass
class FeedbackPolicy:
    """Per stage and node, the index into the control mesh attaining the max.

    ``choices[n, i] == -1`` marks nodes the solve never populated.
    """

    grid: StateGrid
    controls: ControlMesh
    choices: np.ndarray  # (N+1, n_nodes) int32


# -- exact slack operations (no grid involved) -----------------------------


def stage_slack(sys: SystemSpec, k: int, x, u, c) -> float:
    """Smallest componentwise gap g^k(x, u) - c; >= 0 iff the stage clears c."""
    cv = as_threshold(c, sys.threshold_dim)
    return float(np.min(sys.stage_constraint(k, x, u) - cv))


def terminal_slack(sys: SystemSpec, x, c) -> float:
    """Smallest componentwise gap between the terminal constraint and c."""
    cv = as_threshold(c, sys.threshold_dim)
    return float(np.min(sys.terminal(x) - cv))


# -- discretization compiled once, reused across thresholds ----------------


@dataclass
class _StageArrays:
    # Corner-major: corner_idx[j] and corner_w[j] of a contiguous row range
    # are contiguous blocks, which the stage kernel gathers and weights one
    # corner at a time.  Scenarios are the last axis, so the kernel reduces
    # over them slice by slice.  Indices stay int32: reachability reads them
    # too, and an intp copy would double their memory.
    corner_idx: np.ndarray  # (C, n_nodes, n_u, n_w) int32
    corner_w: np.ndarray    # (C, n_nodes, n_u, n_w) float64
    # constraints on the last axis, already capped componentwise by the
    # cap vector of every out-of-box image of (node, control)
    g_vals: np.ndarray      # (n_nodes, n_u, m)
    # one entry per (node, control, scenario) whose image leaves the grid
    # box, sorted by node: the node, the control and the exact image
    out_node: np.ndarray    # (n_out,) int64
    out_u: np.ndarray       # (n_out,) int64
    out_pts: np.ndarray     # (n_out, dim)


class CompiledSystem:
    """Transition/constraint tables of (system, grid, control mesh) pairs.

    Building these costs one pass over node x control x scenario tuples and
    is independent of the threshold, so every threshold solve afterwards is
    pure array arithmetic.  ``interp`` ("multilinear" or "nearest") is
    chosen here and nowhere else.  Time-invariant systems share one table
    across stages; the last stage gets its own constraint table only when
    its terminal caps differ from the caps of the others.
    """

    def __init__(self, sys: SystemSpec, grid: StateGrid, controls: ControlMesh,
                 interp: str = "multilinear"):
        if grid.dim != sys.state_dim:
            raise ValueError("grid dimension does not match the system state dimension")
        controls.validate_against(sys)
        self.sys = sys
        self.grid = grid
        self.controls = controls
        self.interp = interp
        self._nodes = grid.node_coordinates()
        horizon = sys.horizon
        if sys.time_invariant:
            last = self._build_stage(0)
            shared = replace(last, g_vals=last.g_vals.copy())
            self._fold_caps(shared, 0)
            self._fold_caps(last, horizon)
            if np.array_equal(last.g_vals, shared.g_vals):
                last = shared
            self._stages = [shared] * horizon + [last]
        else:
            self._stages = [self._build_stage(k) for k in range(horizon + 1)]
            for k, sa in enumerate(self._stages):
                self._fold_caps(sa, k)
        self.theta_vals = self._terminal_at(self._nodes)
        # grid rows x the largest scenario set of any stage: per control,
        # the size of one corner block of the stage kernel's scratch
        self._row_cells = grid.n_nodes * max(len(om) for om in sys.scenario_sets)

    # internal evaluation helpers ------------------------------------------------

    def _batch(self, pts: np.ndarray):
        return pts[:, 0] if self.sys.state_dim == 1 else pts

    def _one(self, row: np.ndarray):
        return float(row[0]) if self.sys.state_dim == 1 else row

    def _images(self, k: int, u, w) -> np.ndarray:
        sys = self.sys
        if sys.batchable:
            y = np.asarray(sys.dynamics(k, self._batch(self._nodes), u, w), dtype=float)
        else:
            y = np.asarray([np.atleast_1d(sys.step(k, self._one(row), u, w))
                            for row in self._nodes], dtype=float)
        return y.reshape(len(self._nodes), self.grid.dim)

    def _constraints_at(self, k: int, pts: np.ndarray, u) -> np.ndarray:
        sys = self.sys
        if sys.batchable:
            g = np.asarray(sys.stage_constraints(k, self._batch(pts), u), dtype=float)
        else:
            g = np.asarray([sys.stage_constraint(k, self._one(row), u)
                            for row in pts], dtype=float)
        return g.reshape(len(pts), sys.threshold_dim)

    def _terminal_at(self, pts: np.ndarray) -> np.ndarray:
        sys = self.sys
        if sys.batchable:
            th = np.asarray(sys.terminal_constraint(self._batch(pts)), dtype=float)
        else:
            th = np.asarray([sys.terminal(self._one(row)) for row in pts], dtype=float)
        return th.reshape(len(pts), sys.threshold_dim)

    def _build_stage(self, k: int) -> _StageArrays:
        sys, grid = self.sys, self.grid
        n_u, n_w = len(self.controls), len(sys.scenario_sets[k])
        n_corners = (1 << grid.dim) if self.interp == "multilinear" else 1
        n = len(self._nodes)
        corner_idx = np.empty((n_corners, n, n_u, n_w), dtype=np.int32)
        corner_w = np.empty((n_corners, n, n_u, n_w))
        g_vals = np.empty((n, n_u, sys.threshold_dim))
        images = np.empty((n, n_u, n_w, grid.dim))
        for j, u in enumerate(self.controls.values):
            g_vals[:, j, :] = self._constraints_at(k, self._nodes, u)
            for s, w in enumerate(sys.scenario_sets[k]):
                images[:, j, s] = self._images(k, u, w)
                idx, wts = grid.locate(images[:, j, s], mode=self.interp)
                corner_idx[:, :, j, s] = idx.T
                corner_w[:, :, j, s] = wts.T
        out_node, out_u, out_w = np.nonzero(
            ((images < grid.lower) | (images > grid.upper)).any(axis=-1))
        return _StageArrays(corner_idx=np.ascontiguousarray(corner_idx),
                            corner_w=np.ascontiguousarray(corner_w),
                            g_vals=g_vals, out_node=out_node, out_u=out_u,
                            out_pts=images[out_node, out_u, out_w])

    def _fold_caps(self, sa: _StageArrays, n: int) -> None:
        """Fold each out-of-box cap of stage n into ``sa.g_vals`` in place:
        theta(y) for n = N, else G(y) = max over mesh controls of
        g_{n+1}(y, .), componentwise min into the vector of its (x, u)."""
        pts = sa.out_pts
        if not len(pts):
            return
        if n == self.sys.horizon:
            cap = self._terminal_at(pts)
        else:
            cap = self._constraints_at(n + 1, pts, self.controls.values[0])
            for u in self.controls.values[1:]:
                cap = np.maximum(cap, self._constraints_at(n + 1, pts, u))
        # entries are sorted by node, so each (node, control) pair is one run
        pair = sa.out_node * len(self.controls) + sa.out_u
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        flat = sa.g_vals.reshape(-1, sa.g_vals.shape[-1])  # a view: g_vals is contiguous
        flat[pair[first]] = np.minimum(flat[pair[first]],
                                       np.minimum.reduceat(cap, first, axis=0))

    def stage(self, k: int) -> _StageArrays:
        return self._stages[k]

    # threshold-dependent score construction --------------------------------

    def _scores(self, score):
        """Per-stage (n_nodes, n_u) and terminal (n_nodes,) scores of a
        nondecreasing map of constraint vectors (last axis).  Each distinct
        constraint table is scored once (time-invariant systems share one
        across stages)."""
        scored: dict = {}
        stage = []
        for sa in self._stages:
            key = id(sa.g_vals)
            if key not in scored:
                scored[key] = score(sa.g_vals)
            stage.append(scored[key])
        return stage, score(self.theta_vals)

    def slack_scores(self, c: np.ndarray):
        """Per-stage (n_nodes, n_u) and terminal arrays of min_i (g_i - c_i)."""
        return self._scores(lambda g: _slack(g, c))

    def masked_component_scores(self, c: np.ndarray, comp: int):
        """Scores for the component-`comp` constrained maximin problem.

        A state-control pair scores its comp-th constraint value when the
        whole constraint vector clears c, and the infeasibility sentinel
        otherwise; same for terminal states.
        """
        return self._scores(lambda g: np.where(_clears(g, c), g[..., comp], NEG_INF))

    def component_scores(self, comp: int):
        """Raw per-component constraint values (used for policy rollup)."""
        return self._scores(lambda g: g[..., comp])


def compile_system(sys: SystemSpec, grid: StateGrid, controls: ControlMesh,
                   interp: str = "multilinear") -> CompiledSystem:
    return CompiledSystem(sys, grid, controls, interp)


def _reduce_last(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` over a short last axis, one slice at a
    time in the same order: the same values at a fraction of the cost of a
    ufunc reduction, whose set-up dominates when the axis has 2 entries."""
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    out = ufunc(a[..., 0], a[..., 1])
    for i in range(2, a.shape[-1]):
        ufunc(out, a[..., i], out=out)
    return out


def _slack(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """min_i (g_i - c_i) over the constraint (last) axis of g."""
    return _reduce_last(np.minimum, g - c)


def _clears(g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """True where every constraint component on the last axis of g is >= c."""
    return _reduce_last(np.logical_and, g >= c)


# -- core sweeps ------------------------------------------------------------


def _stage_kernel(V: np.ndarray, ci: np.ndarray, cw: np.ndarray,
                  scores: np.ndarray, work: np.ndarray) -> np.ndarray:
    """min(worst case over scenarios of the interpolated V, stage scores).

    ``ci``/``cw`` hold the corner indices and weights, shape (C, ..., n_w);
    ``scores`` has their shape without the corner and scenario axes, as
    does the result.  Corners are accumulated in order, V[ci[0]] * cw[0]
    + V[ci[1]] * cw[1] + ..., and the minima over the short scenario axis
    are taken slice by slice.  NaN from any touched unpopulated node
    propagates into the result (weights never cancel it).

    ``work`` is flat scratch space of at least two corner blocks, reused
    by every stage of a sweep: left to allocate its own blocks, each stage
    frees megabytes at the top of the heap, which the allocator hands back
    to the system and faults in again at the next stage.
    """
    shape = ci.shape[1:]
    size = scores.size * shape[-1]
    acc = work[:size].reshape(shape)
    # corner indices are in range by construction (``StateGrid.locate``
    # clamps); mode "raise" would gather into a temporary copy of ``out``
    V.take(ci[0], out=acc, mode="clip")
    acc *= cw[0]
    if len(ci) > 1:
        part = work[size:2 * size].reshape(shape)
        for j in range(1, len(ci)):
            V.take(ci[j], out=part, mode="clip")
            part *= cw[j]
            acc += part
    q = _reduce_last(np.minimum, acc)
    return np.minimum(q, scores, out=q)


def _sweep(compiled: CompiledSystem, reach: ReachableSets,
           stage_scores: list[np.ndarray], terminal_score: np.ndarray,
           threshold, fixed: np.ndarray | None, want_policy: bool):
    """Backward maximin sweep; returns (tables, argmax choices or None).

    With ``fixed`` None every row maximizes over the whole control mesh.
    A policy's ``fixed`` choices restrict each row to its one chosen
    control: the kernel then sees a control axis of length one, and the
    max over it evaluates the policy.
    """
    sys, grid = compiled.sys, compiled.grid
    n_nodes = grid.n_nodes
    tables: list[ValueTable] = [None] * (sys.horizon + 2)  # type: ignore[list-item]
    choices = (np.full((sys.horizon + 1, n_nodes), -1, dtype=np.int32)
               if want_policy else None)
    rows = reach.selectors[sys.horizon + 1]
    V = np.full(n_nodes, np.nan)
    V[rows] = terminal_score[rows]
    tables[sys.horizon + 1] = _table(sys.horizon + 1, threshold, grid, V,
                                     compiled.interp)
    n_ctrl = len(compiled.controls) if fixed is None else 1
    work = np.empty(2 * compiled._row_cells * n_ctrl)
    for n in range(sys.horizon, -1, -1):
        rows, sa = reach.selectors[n], compiled.stage(n)
        if fixed is None:
            cells = (rows,)
        else:
            p = fixed[n][rows]
            # an index of -1 would silently read the last control
            if np.any(p < 0):
                raise UnpopulatedNodeError(f"policy gap on reachable nodes at stage {n}")
            # each row's chosen cells only, shape (C, rows, 1, n_w)
            cells = (np.arange(n_nodes)[rows], p, None)
        q = _stage_kernel(V, sa.corner_idx[(slice(None), *cells)],
                          sa.corner_w[(slice(None), *cells)],
                          stage_scores[n][cells], work)
        vals = q.max(axis=-1)
        if np.isnan(vals).any():
            raise UnpopulatedNodeError(
                f"stage-{n} sweep touched unpopulated next-stage nodes")
        if want_policy:
            choices[n][rows] = q.argmax(axis=-1)
        V = np.full(n_nodes, np.nan)
        V[rows] = vals
        tables[n] = _table(n, threshold, grid, V, compiled.interp)
    return tables, choices


def sweep_scores(compiled: CompiledSystem, reach: ReachableSets,
                 stage_scores: list[np.ndarray], terminal_score: np.ndarray,
                 *, threshold=None, want_policy: bool = True):
    """Backward optimization sweep; returns (tables, policy_or_None)."""
    tables, choices = _sweep(compiled, reach, stage_scores, terminal_score,
                             threshold, None, want_policy)
    policy = (FeedbackPolicy(grid=compiled.grid, controls=compiled.controls,
                             choices=choices) if want_policy else None)
    return tables, policy


def sweep_policy(compiled: CompiledSystem, reach: ReachableSets,
                 policy: FeedbackPolicy, stage_scores: list[np.ndarray],
                 terminal_score: np.ndarray, *, threshold=None):
    """Backward evaluation sweep of a fixed feedback policy."""
    return _sweep(compiled, reach, stage_scores, terminal_score, threshold,
                  policy.choices, False)[0]


def _table(stage, threshold, grid, V, interp) -> ValueTable:
    return ValueTable(stage=stage, threshold=threshold, grid=grid, values=V,
                      populated=~np.isnan(V), interp=interp)


# -- public solver entry points ---------------------------------------------


def _ensure(sys, grid, controls, compiled, reach):
    if compiled is None:
        compiled = compile_system(sys, grid, controls)
    _require_compiled_from(compiled, sys, grid, controls)
    rch = reach if reach is not None else full_grid_sets(grid, sys.horizon)
    return compiled, rch


def backward_recursion(sys: SystemSpec, grid: StateGrid, controls: ControlMesh,
                       reach: ReachableSets | None, c, *,
                       compiled: CompiledSystem | None = None,
                       want_policy: bool = True):
    """Value tables V_{N+1}..V_0 for threshold c, plus the argmax policy.

    Passing ``reach=None`` solves on the full grid.  Ties in the control
    argmax resolve to the lowest mesh index.
    """
    comp, rch = _ensure(sys, grid, controls, compiled, reach)
    cv = as_threshold(c, sys.threshold_dim)
    stage_scores, terminal = comp.slack_scores(cv)
    return sweep_scores(comp, rch, stage_scores, terminal, threshold=cv,
                        want_policy=want_policy)


def robust_value(xi, tables: list[ValueTable]) -> float:
    """W(xi, c) read off the stage-0 table."""
    return interpolate(tables[0], xi)


def solve_value(xi, c, sys: SystemSpec, grid: StateGrid, controls: ControlMesh, *,
                compiled: CompiledSystem | None = None,
                reach: ReachableSets | None = None) -> float:
    """Convenience: build the tables for c and return W(xi, c)."""
    tables, _ = backward_recursion(sys, grid, controls, reach, c,
                                   compiled=compiled, want_policy=False)
    return robust_value(xi, tables)


def membership(xi, c, sys: SystemSpec, grid: StateGrid, controls: ControlMesh, *,
               tol: float = 0.0, compiled: CompiledSystem | None = None,
               reach: ReachableSets | None = None) -> bool:
    """True iff W(xi, c) >= -tol; tol defaults to exact zero."""
    if tol < 0:
        raise ValueError("membership tolerance must be >= 0")
    return solve_value(xi, c, sys, grid, controls, compiled=compiled,
                       reach=reach) >= -tol
