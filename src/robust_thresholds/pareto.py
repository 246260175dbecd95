"""Front computation on top of the maximin solver.

Weak front: every threshold c with negative value W projects onto the weak
Pareto front along the diagonal, p(c) = c + W(xi, c) * 1.  Sweeping the
threshold rays therefore traces the whole front, and the sustainable set is
recovered as everything componentwise below some front point.

Strong front: starting from any sustainable threshold, solving one
constrained maximin problem per threshold component (in a chosen component
order) and rolling the optimal policy back into a threshold vector walks a
componentwise-nondecreasing chain whose endpoint is a strong Pareto
maximum.  The chain's internal consistency (monotone steps, value
identities) is revalidated and reported as residuals; on finite-state
systems with nearest-node interpolation both hold exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .mesh import ControlMesh, StateGrid, ThresholdRayMesh, interpolate
from .model import SystemSpec, as_threshold

__all__ = [
    "InfeasibleThresholdError",
    "FrontResult",
    "StrongChain",
    "ConstrainedValue",
    "project_to_weak_front",
    "weak_front",
    "constrained_maximin_value",
    "threshold_of_policy",
    "strong_pareto_point",
]


class InfeasibleThresholdError(ValueError):
    """A constrained solve or chain start needs a sustainable threshold."""


def default_front_tol(grid: StateGrid, interp: str) -> float:
    """Residual tolerance for revalidated front points.

    Nearest-node solves on node-closed systems are exact up to float
    rounding; multilinear solves on continuous systems carry an
    interpolation error that scales with the cell size.
    """
    if interp == "nearest":
        return 1e-12
    return 2.5 * float(np.max(grid.spacing))


@dataclass
class FrontResult:
    """Weak-front polyline plus the membership predicate it induces."""

    points: np.ndarray        # (P, m) projected front points
    sources: np.ndarray       # (P, m) originating mesh thresholds
    values: np.ndarray        # (P,) W at each source (all < 0)
    revalidated: np.ndarray   # (P,) W at each projected point (NaN if skipped)
    skipped_sources: np.ndarray  # (S, m) mesh points with W >= 0, not projected
    skipped_values: np.ndarray   # (S,)
    front_tol: float
    diagnostics: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def max_residual(self) -> float:
        vals = self.revalidated[~np.isnan(self.revalidated)]
        return float(np.max(np.abs(vals))) if len(vals) else float("nan")

    def contains(self, query, tol: float = 0.0) -> bool:
        """Membership in front + lower cone: query <= some front point."""
        if len(self.points) == 0:
            raise ValueError("empty front has no membership predicate")
        q = as_threshold(query, self.points.shape[1])
        return bool(np.any(np.all(q <= self.points + tol, axis=1)))


def project_to_weak_front(xi, c, sys: SystemSpec, grid: StateGrid,
                          controls: ControlMesh, *, compiled=None, reach=None,
                          value: float | None = None):
    """Diagonal projection c + W(xi, c) * 1 of an unsustainable threshold.

    Requires W(xi, c) < 0; pass ``value`` to reuse an already computed W.
    Returns (projected point, W).
    """
    cv = as_threshold(c, sys.threshold_dim)
    w = value if value is not None else dp.solve_value(
        xi, cv, sys, grid, controls, compiled=compiled, reach=reach)
    if w >= 0:
        raise ValueError(
            f"threshold {cv.tolist()} is already sustainable (W = {w}); "
            "the diagonal projection needs W < 0")
    return cv + w, w


def weak_front(xi, mesh, sys: SystemSpec, grid: StateGrid, controls: ControlMesh, *,
               front_tol: float | None = None, compiled=None, reach=None,
               jobs: int = 1) -> FrontResult:
    """Project every valid threshold-mesh point onto the weak Pareto front.

    Mesh points that turn out sustainable (W >= 0, anchors too small) are
    skipped and reported.  Each projected point is re-solved and |W(xi, p)|
    compared against ``front_tol``; residuals beyond it and out-of-order
    sweep coordinates become diagnostics, not errors.
    """
    points = mesh.points if isinstance(mesh, ThresholdRayMesh) else np.atleast_2d(
        np.asarray(mesh, dtype=float))
    if len(points) == 0:
        raise ValueError("empty threshold mesh")
    comp, rch = dp._ensure(sys, grid, controls, compiled, reach)
    tol = front_tol if front_tol is not None else default_front_tol(grid, comp.interp)

    def solve(c):
        return dp.solve_value(xi, c, sys, grid, controls, compiled=comp, reach=rch)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            values = list(ex.map(solve, points))
    else:
        values = [solve(c) for c in points]
    values = np.asarray(values)

    valid = values < 0
    sources = points[valid]
    front_points = sources + values[valid][:, None]
    diagnostics = []
    for c, w in zip(points[~valid], values[~valid]):
        diagnostics.append(
            f"mesh point {c.tolist()} lies inside the sustainable set "
            f"(W = {w:.6g}); enlarge the anchors")

    reval = np.full(len(front_points), np.nan)
    if len(front_points):
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as ex:
                reval = np.asarray(list(ex.map(solve, front_points)))
        else:
            reval = np.asarray([solve(p) for p in front_points])
        worst = np.max(np.abs(reval)) if len(reval) else 0.0
        if worst > tol:
            diagnostics.append(
                f"front revalidation residual {worst:.6g} exceeds tolerance {tol:.6g}")

    if isinstance(mesh, ThresholdRayMesh):
        _sweep_order_diagnostics(mesh, values, diagnostics)

    return FrontResult(points=front_points, sources=sources, values=values[valid],
                       revalidated=reval, skipped_sources=points[~valid],
                       skipped_values=values[~valid], front_tol=tol,
                       diagnostics=diagnostics)


def _sweep_order_diagnostics(mesh: ThresholdRayMesh, values: np.ndarray,
                             diagnostics: list) -> None:
    """The swept coordinate of the projected points must be nondecreasing."""
    for axis, members in mesh.sweeps:
        proj = [mesh.points[i, axis] + values[i] for i in members if values[i] < 0]
        drops = np.diff(proj)
        if len(drops) and float(drops.min()) < -1e-9:
            diagnostics.append(
                f"projected coordinate {axis} decreases along its sweep "
                f"(worst step {float(drops.min()):.6g})")


@dataclass
class ConstrainedValue:
    """Result of one component-constrained maximin solve."""

    component: int
    value: float
    feasible: bool
    policy: dp.FeedbackPolicy

    def require_feasible(self, c) -> None:
        if not self.feasible:
            raise InfeasibleThresholdError(
                f"threshold {np.asarray(c).tolist()} is infeasible for the "
                f"component-{self.component} constrained problem at this "
                f"discretization (value {self.value:.6g})")


def constrained_maximin_value(xi, component: int, c, sys: SystemSpec,
                              grid: StateGrid, controls: ControlMesh, *,
                              compiled=None, reach=None) -> ConstrainedValue:
    """Best worst-case over scenarios of the running minimum of one
    constraint component, over policies that keep the whole constraint
    vector at or above c.

    Infeasible state-control pairs are masked to the negative sentinel; a
    root value at the sentinel level means c is not sustainable at this
    discretization, flagged via ``feasible``.
    """
    if not 0 <= component < sys.threshold_dim:
        raise ValueError(f"component {component} out of range")
    cv = as_threshold(c, sys.threshold_dim)
    comp, rch = dp._ensure(sys, grid, controls, compiled, reach)
    stage_scores, terminal = comp.masked_component_scores(cv, component)
    tables, policy = dp.sweep_scores(comp, rch, stage_scores, terminal,
                                     threshold=cv, want_policy=True)
    value = dp.robust_value(xi, tables)
    return ConstrainedValue(component=component, value=value,
                            feasible=value > dp.NEG_INF_CUTOFF,
                            policy=policy)


def threshold_of_policy(xi, policy: dp.FeedbackPolicy, sys: SystemSpec,
                        grid: StateGrid, *, compiled=None, reach=None) -> np.ndarray:
    """Threshold vector a feedback policy guarantees from xi.

    Component j is the closed-loop worst case over scenarios of the minimum
    over time of constraint component j (terminal included), computed by one
    policy-evaluation sweep per component.  The result is itself a
    sustainable threshold for the policy that produced it.
    """
    comp, rch = dp._ensure(sys, grid, policy.controls, compiled, reach)
    out = np.empty(sys.threshold_dim)
    for j in range(sys.threshold_dim):
        stage_scores, terminal = comp.component_scores(j)
        tables = dp.sweep_policy(comp, rch, policy, stage_scores, terminal)
        out[j] = interpolate(tables[0], xi)
    return out


@dataclass
class StrongChain:
    """Chain c^0 <= c^1 <= ... <= c^m walked by the sequential scheme."""

    permutation: tuple
    chain: np.ndarray             # (m+1, m)
    values: np.ndarray            # (m,) optimal value of step i solve
    policies: list
    residual_monotone: float      # worst componentwise decrease along the chain
    residual_identity: float      # worst |value_i - chain[j][sigma(i)]|, j >= i
    diagnostics: list = field(default_factory=list)
    line_search_steps: tuple = ()  # steps whose member came from the W line search

    @property
    def endpoint(self) -> np.ndarray:
        return self.chain[-1]


def _largest_accepted_level(solve, c: np.ndarray, comp: int, tol: float,
                            upper: float) -> float:
    """Largest t >= c[comp] with solve(c + (t - c[comp]) e_comp) >= -tol.

    Bisection on the sign of W, which is antitone in t; W(c) is already
    accepted and W rejects t = ``upper``.  Stops at adjacent floats.
    """
    lo, hi = float(c[comp]), float(upper)
    trial = c.copy()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        trial[comp] = mid
        if solve(trial) >= -tol:
            lo = mid
        else:
            hi = mid
    return lo


def strong_pareto_point(xi, c0, sigma, sys: SystemSpec, grid: StateGrid,
                        controls: ControlMesh, *, compiled=None, reach=None,
                        membership_tol: float = 0.0,
                        diag_tol: float = 1e-9) -> StrongChain:
    """Walk the sequential constrained-maximin chain from a sustainable c0.

    ``sigma`` is a permutation of the component indices 0..m-1 giving the
    order in which components are maximized.  Each step solves the
    constrained problem for the next component, rolls its optimal policy
    into a threshold vector, and continues from there.  Postconditions
    (chain monotone componentwise; step values reappearing as fixed
    coordinates of all later chain members) are measured and reported as
    residuals; violations beyond ``diag_tol`` become diagnostics.

    A masked step is kept only when its rolled-up threshold gamma is >= c,
    equals c on the components already maximized and has the step value as
    gamma[sigma_i] (each within ``diag_tol``), and W(gamma) >= -membership_tol.
    On coarse multilinear grids the masked step can blend its sentinel
    across cells, or roll up a threshold that W rejects.  Such a step
    instead raises only component sigma_i of the current member to the
    largest level W accepts (bisection on the sign of W); that level is the
    step value and W's argmax policy there is the step policy.  The indices
    of those steps are kept in ``line_search_steps``.
    """
    m = sys.threshold_dim
    perm = tuple(int(i) for i in sigma)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"sigma {sigma!r} is not a permutation of 0..{m - 1}")
    c0v = as_threshold(c0, m)
    comp, rch = dp._ensure(sys, grid, controls, compiled, reach)

    def solve(c):
        return dp.solve_value(xi, c, sys, grid, controls, compiled=comp, reach=rch)

    w0 = solve(c0v)
    if w0 < -membership_tol:
        raise InfeasibleThresholdError(
            f"chain start {c0v.tolist()} is not sustainable (W = {w0:.6g})")

    chain = [c0v]
    values, policies, searched = [], [], []
    for i in range(m):
        c = chain[-1]
        res = constrained_maximin_value(xi, perm[i], c, sys, grid, controls,
                                        compiled=comp, reach=rch)
        gamma = None
        if res.feasible:
            gamma = threshold_of_policy(xi, res.policy, sys, grid,
                                        compiled=comp, reach=rch)
            done = list(perm[:i])
            if not (np.all(gamma >= c - diag_tol)
                    and np.all(np.abs(gamma[done] - c[done]) <= diag_tol)
                    and abs(gamma[perm[i]] - res.value) <= diag_tol
                    and solve(gamma) >= -membership_tol):
                gamma = None
        if gamma is None:
            # W is at most the best stage-0 slack, so W rejects `upper`
            upper = comp.stage(0).g_vals[..., perm[i]].max() + membership_tol + 1.0
            gamma = c.copy()
            gamma[perm[i]] = _largest_accepted_level(solve, c, perm[i],
                                                     membership_tol, upper)
            _, policy = dp.backward_recursion(sys, grid, controls, rch, gamma,
                                              compiled=comp)
            values.append(gamma[perm[i]])
            policies.append(policy)
            searched.append(i)
        else:
            values.append(res.value)
            policies.append(res.policy)
        chain.append(gamma)

    chain_arr = np.asarray(chain)
    values_arr = np.asarray(values)
    steps = np.diff(chain_arr, axis=0)
    residual_monotone = float(max(0.0, -steps.min())) if steps.size else 0.0
    residual_identity = 0.0
    for i in range(m):
        for j in range(i + 1, m + 1):
            residual_identity = max(
                residual_identity, abs(values_arr[i] - chain_arr[j, perm[i]]))

    diagnostics = []
    if residual_monotone > diag_tol:
        diagnostics.append(
            f"chain monotonicity violated by {residual_monotone:.6g}")
    if residual_identity > diag_tol:
        diagnostics.append(
            f"value identities violated by {residual_identity:.6g}")
    return StrongChain(permutation=perm, chain=chain_arr, values=values_arr,
                       policies=policies, residual_monotone=residual_monotone,
                       residual_identity=residual_identity, diagnostics=diagnostics,
                       line_search_steps=tuple(searched))
