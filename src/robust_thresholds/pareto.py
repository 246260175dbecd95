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

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .mesh import ControlMesh, StateGrid, ThresholdRayMesh
from .model import SystemSpec, as_threshold

__all__ = [
    "InfeasibleThresholdError",
    "FrontResult",
    "StrongChain",
    "weak_front",
    "constrained_maximin_value",
    "threshold_of_policy",
    "strong_pareto_point",
]


# chain postconditions and masked-step checks hold within this of exact
DIAG_TOL = 1e-9


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
    revalidated: np.ndarray   # (P,) W at each projected point
    skipped_sources: np.ndarray  # (S, m) mesh points with W >= 0, not projected
    skipped_values: np.ndarray   # (S,)
    front_tol: float
    diagnostics: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def max_residual(self) -> float:
        """max |W| over the projected points; NaN for an empty front."""
        reval = self.revalidated
        return float(np.max(np.abs(reval))) if len(reval) else float("nan")

    def contains(self, query) -> bool:
        """Membership in front + lower cone: query <= some front point."""
        if len(self.points) == 0:
            raise ValueError("empty front has no membership predicate")
        q = as_threshold(query, self.points.shape[1])
        return bool(np.any(np.all(q <= self.points, axis=1)))


def weak_front(xi, mesh: ThresholdRayMesh, sys: SystemSpec, grid: StateGrid,
               controls: ControlMesh, *, front_tol: float | None = None, compiled,
               reach, jobs: int = 1) -> FrontResult:
    """Project every valid threshold-mesh point onto the weak Pareto front.

    Mesh points that turn out sustainable (W >= 0, anchors too small) are
    skipped and reported.  Each projected point is re-solved and |W(xi, p)|
    compared against ``front_tol``; residuals beyond it and out-of-order
    sweep coordinates become diagnostics, not errors.
    """
    points = mesh.points
    if len(points) == 0:
        raise ValueError("empty threshold mesh")
    tol = front_tol if front_tol is not None else default_front_tol(grid, compiled.interp)

    def solve(c):
        return dp.solve_value(xi, c, sys, grid, controls, compiled=compiled, reach=reach)

    def solve_all(thresholds) -> np.ndarray:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as ex:
                return np.asarray(list(ex.map(solve, thresholds)))
        return np.asarray([solve(c) for c in thresholds])

    values = solve_all(points)
    valid = values < 0
    sources = points[valid]
    front_points = sources + values[valid][:, None]
    diagnostics = []
    for c, w in zip(points[~valid], values[~valid]):
        diagnostics.append(
            f"mesh point {c.tolist()} lies inside the sustainable set "
            f"(W = {w:.6g}); enlarge the anchors")

    reval = solve_all(front_points)
    worst = np.max(np.abs(reval), initial=0.0)
    if worst > tol:
        diagnostics.append(
            f"front revalidation residual {worst:.6g} exceeds tolerance {tol:.6g}")

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


def constrained_maximin_value(xi, component: int, c, *, compiled, reach):
    """Best worst-case over scenarios of the running minimum of one
    constraint component, over policies that keep the whole constraint
    vector at or above c.  Returns (value, choices), the optimal feedback
    policy as ``dp.sweep_scores`` gives it.

    Infeasible state-control pairs are masked to the negative sentinel; a
    root value at or below ``dp.NEG_INF_CUTOFF`` means c is not sustainable
    at this discretization.
    """
    m = compiled.sys.threshold_dim
    if not 0 <= component < m:
        raise ValueError(f"component {component} out of range")
    stage_scores, terminal = compiled.masked_component_scores(as_threshold(c, m),
                                                              component)
    tables, choices = dp.sweep_scores(compiled, reach, stage_scores, terminal)
    return dp.robust_value(xi, tables), choices


def threshold_of_policy(xi, choices: np.ndarray, *, compiled, reach) -> np.ndarray:
    """Threshold vector the feedback policy ``choices`` guarantees from xi.

    Component j is the closed-loop worst case over scenarios of the minimum
    over time of constraint component j (terminal included), computed by one
    policy-evaluation sweep per component.  The result is itself a
    sustainable threshold for the policy that produced it.
    """
    out = np.empty(compiled.sys.threshold_dim)
    for j in range(len(out)):
        tables = dp.sweep_policy(compiled, reach, choices, *compiled.component_scores(j))
        out[j] = dp.robust_value(xi, tables)
    return out


@dataclass
class StrongChain:
    """Chain c^0 <= c^1 <= ... <= c^m walked by the sequential scheme."""

    permutation: tuple
    chain: np.ndarray             # (m+1, m)
    values: np.ndarray            # (m,) optimal value of step i solve
    residual_monotone: float      # worst componentwise decrease along the chain
    residual_identity: float      # worst |value_i - chain[j][sigma(i)]|, j >= i
    diagnostics: list = field(default_factory=list)
    line_search_steps: tuple = ()  # steps whose member came from the W line search

    @property
    def endpoint(self) -> np.ndarray:
        return self.chain[-1]


_SIGN = -(1 << 63)


def _float_key(x: float) -> int:
    """Integer that orders floats as their values do, one step per float."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else _SIGN - bits


def _key_midpoint(lo: float, hi: float) -> float:
    """The float halfway from lo to hi in the count of floats between them."""
    key = (_float_key(lo) + _float_key(hi)) // 2
    return struct.unpack("<d", struct.pack("<q", key if key >= 0 else _SIGN - key))[0]


def _largest_accepted_level(solve, c: np.ndarray, comp: int, tol: float,
                            upper: float) -> float:
    """Largest float t >= c[comp] with solve(c + (t - c[comp]) e_comp) >= -tol.

    W(c) is already accepted and W rejects t = ``upper``.  The float
    evaluation of t -> W(c + t e_comp) is nonincreasing (rounding, min, max
    and sums with nonnegative interpolation weights are all monotone), so
    that float is unique: it is the accepted ``lo`` whose next float is
    rejected, the level plain bisection ends on.  The search keeps a
    bracket ``lo`` accepted, ``hi`` rejected, classifies every probe by its
    computed W only, and stops on adjacent floats alone.

    The first probe is the float after c[comp]; if W rejects it, the start
    is the answer.  Later probes come from models of the piecewise-linear
    W: the line through the two nearest rejected probes, extrapolated to
    W = -tol, then the secant between ``lo`` and ``hi`` when W(lo) > -tol,
    then the value midpoint.  A model point that rounds onto an end of the
    bracket predicts the float next to it, so that float is probed.  After
    two probes in a row that fail to halve the number of floats in the
    bracket, the next probe halves it, so the search takes under 200
    solves, through subnormals and across zero too.
    """
    trial = c.copy()
    lo, hi = float(c[comp]), float(upper)
    w_lo = w_hi = far = w_far = None  # W at lo and hi; the rejected probe before hi
    misses = -1  # probes in a row that did not halve the bracket; the first never does
    while lo < hi:
        inner = float(np.nextafter(lo, hi))
        if inner == hi:
            break
        if w_lo is None:
            probe = inner
        else:
            probe = _key_midpoint(lo, hi)
            models = []
            if misses < 2:
                if w_far is not None and w_far < w_hi:
                    models.append(hi + (-tol - w_hi) * (far - hi) / (w_far - w_hi))
                if w_hi is not None and w_lo > -tol:
                    models.append(lo + (w_lo + tol) * (hi - lo) / (w_lo - w_hi))
                models.append(0.5 * (lo + hi))
            for t in models:
                t = inner if t == lo else float(np.nextafter(hi, lo)) if t == hi else t
                if lo < t < hi:
                    probe = t
                    break
        width = _float_key(hi) - _float_key(lo)
        trial[comp] = probe
        w = solve(trial)
        if w >= -tol:
            lo, w_lo = probe, w
        else:
            far, w_far, hi, w_hi = hi, w_hi, probe, w
        misses = 0 if 2 * (_float_key(hi) - _float_key(lo)) <= width else misses + 1
    return lo


def strong_pareto_point(xi, c0, sigma, sys: SystemSpec, grid: StateGrid,
                        controls: ControlMesh, *, compiled, reach,
                        membership_tol: float = 0.0) -> StrongChain:
    """Walk the sequential constrained-maximin chain from a sustainable c0.

    ``sigma`` is a permutation of the component indices 0..m-1 giving the
    order in which components are maximized.  Each step solves the
    constrained problem for the next component, rolls its optimal policy
    into a threshold vector, and continues from there.  Postconditions
    (chain monotone componentwise; step values reappearing as fixed
    coordinates of all later chain members) are measured and reported as
    residuals; violations beyond ``DIAG_TOL`` become diagnostics.

    A masked step is kept only when its rolled-up threshold gamma is >= c,
    equals c on the components already maximized and has the step value as
    gamma[sigma_i] (each within ``DIAG_TOL``), and W(gamma) >= -membership_tol.
    On coarse multilinear grids the masked step can blend its sentinel
    across cells, or roll up a threshold that W rejects.  Such a step
    instead raises only component sigma_i of the current member to the
    largest float level W accepts, found by a certified level search on the
    sign of W (``_largest_accepted_level``); that level is the step value.
    The chain keeps thresholds and values only, no step policies.  The
    indices of those steps are kept in ``line_search_steps``.
    """
    m = sys.threshold_dim
    perm = tuple(int(i) for i in sigma)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"sigma {sigma!r} is not a permutation of 0..{m - 1}")
    c0v = as_threshold(c0, m)

    def solve(c):
        return dp.solve_value(xi, c, sys, grid, controls, compiled=compiled, reach=reach)

    w0 = solve(c0v)
    if w0 < -membership_tol:
        raise InfeasibleThresholdError(
            f"chain start {c0v.tolist()} is not sustainable (W = {w0:.6g})")

    chain = [c0v]
    values, searched = [], []
    for i in range(m):
        c = chain[-1]
        value, choices = constrained_maximin_value(xi, perm[i], c,
                                                   compiled=compiled, reach=reach)
        gamma = None
        if value > dp.NEG_INF_CUTOFF:
            gamma = threshold_of_policy(xi, choices, compiled=compiled, reach=reach)
            done = list(perm[:i])
            if not (np.all(gamma >= c - DIAG_TOL)
                    and np.all(np.abs(gamma[done] - c[done]) <= DIAG_TOL)
                    and abs(gamma[perm[i]] - value) <= DIAG_TOL
                    and solve(gamma) >= -membership_tol):
                gamma = None
        if gamma is None:
            # W is at most the best stage-0 slack, so W rejects `upper`
            upper = compiled.stage(0).g_vals[..., perm[i]].max() + membership_tol + 1.0
            gamma = c.copy()
            gamma[perm[i]] = _largest_accepted_level(solve, c, perm[i],
                                                     membership_tol, upper)
            values.append(gamma[perm[i]])
            searched.append(i)
        else:
            values.append(value)
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
    if residual_monotone > DIAG_TOL:
        diagnostics.append(
            f"chain monotonicity violated by {residual_monotone:.6g}")
    if residual_identity > DIAG_TOL:
        diagnostics.append(
            f"value identities violated by {residual_identity:.6g}")
    return StrongChain(permutation=perm, chain=chain_arr, values=values_arr,
                       residual_monotone=residual_monotone,
                       residual_identity=residual_identity, diagnostics=diagnostics,
                       line_search_steps=tuple(searched))
