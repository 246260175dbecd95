"""Acceptance suite: one test per criterion, each printing a verdict line.

The expensive fishery artifacts (default-grid weak fronts at horizon 50) are
computed once per session and shared.  Run with ``pytest -s`` to see the
verdict lines as they happen.
"""

import time

import numpy as np
import pytest

import robust_thresholds as rt
from robust_thresholds import oracle, pareto
from robust_thresholds.fishery import FisheryParams, build_fishery_system

from tabular_tools import random_instance, single_scenario_instance, solve_w

SUITE_SEED = 12345
SUITE_SIZE = 50
THRESHOLDS_PER_INSTANCE = 100


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} - {detail}")


# -- shared tabular suite -----------------------------------------------------


@pytest.fixture(scope="module")
def tab_suite():
    rng = np.random.default_rng(SUITE_SEED)
    suite = []
    for _ in range(SUITE_SIZE):
        inst = random_instance(rng)
        thresholds = rng.uniform(-6.0, 6.0, size=(THRESHOLDS_PER_INSTANCE, 2))
        suite.append((inst, thresholds))
    return suite


@pytest.fixture(scope="module")
def tab_fronts(tab_suite):
    # sweeps must run far enough that the diagonal projections cover the
    # whole front down to the most negative constraint values (~ -6.5)
    fronts = []
    for inst, _ in tab_suite:
        hi = np.asarray([
            max(inst.params.stage_values[..., j].max(),
                inst.params.terminal_values[:, j].max()) + 1.0
            for j in (0, 1)])
        mesh = rt.threshold_ray_mesh(0.5, 40, hi)
        fronts.append(pareto.weak_front(
            inst.xi, mesh, inst.sys, inst.grid, inst.controls,
            compiled=inst.compiled, reach=inst.reach))
    return fronts


# -- shared fishery artifacts at the documented default discretization --------

FISHERY_GRID_NODES = 600
FISHERY_CONTROLS = 200
FISHERY_XI = 60.0  # implementer-chosen: the benchmark figure's values are unstated
RAY_SPACING = 0.5
RAY_COUNT = 200
RAY_ANCHORS = (130.0, 60.0)


@pytest.fixture(scope="module")
def fishery_defaults():
    params = FisheryParams.default()  # r_a=0.39, r_b=2, K_a=90, K_b=50
    grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[FISHERY_GRID_NODES])
    controls = rt.ControlMesh.uniform(0.0, params.u_max, FISHERY_CONTROLS)
    return params, grid, controls


def _front_for(params, grid, controls, horizon, scenarios=None):
    sys = build_fishery_system(params, horizon=horizon, scenarios=scenarios)
    compiled = rt.compile_system(sys, grid, controls)
    reach = rt.build_reachable_sets(FISHERY_XI, grid, sys, controls,
                                    compiled=compiled)
    mesh = rt.threshold_ray_mesh(RAY_SPACING, RAY_COUNT, RAY_ANCHORS)
    return pareto.weak_front(FISHERY_XI, mesh, sys, grid, controls,
                             compiled=compiled, reach=reach)


@pytest.fixture(scope="module")
def fishery_front(fishery_defaults):
    params, grid, controls = fishery_defaults
    return _front_for(params, grid, controls, horizon=50)


@pytest.fixture(scope="module")
def fishery_single_fronts(fishery_defaults):
    params, grid, controls = fishery_defaults
    return {w: _front_for(params, grid, controls, horizon=50, scenarios=(w,))
            for w in ("a", "b")}


def front_polyline(front, x_lo, x_hi, step=0.002):
    """Dense point sampling of a front treated as a curve in the plane.

    Connecting the projected points in order of their first coordinate
    reproduces the front including its (near-)vertical drops, which a
    height-versus-x comparison cannot represent.
    """
    pts = front.points
    order = np.argsort(pts[:, 0])
    xs, hs = [], []
    for i in order:
        x, h = pts[i, 0], pts[i, 1]
        if xs and x - xs[-1] < 1e-9:
            hs[-1] = max(hs[-1], h)
        else:
            xs.append(x)
            hs.append(h)
    grid = np.arange(x_lo, x_hi, step)
    return grid, np.interp(grid, np.asarray(xs), np.asarray(hs))


# -- criteria -----------------------------------------------------------------


def test_criterion_1_oracle_equivalence(tab_suite):
    """Grid recursion with nearest-node lookup equals the game-tree oracle."""
    t0 = time.time()
    worst = 0.0
    for inst, thresholds in tab_suite:
        for c in thresholds:
            got = solve_w(inst, c)
            want = oracle.closedloop_maximin(inst.xi, c, inst.sys, inst.controls)
            worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    ok = worst <= 1e-12
    report(1, "oracle equivalence", ok,
           f"{SUITE_SIZE} systems x {THRESHOLDS_PER_INSTANCE} thresholds, "
           f"max |solver - oracle| = {worst:.3g}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_level_set_fixed_point(tab_fronts, fishery_front):
    """Projected points satisfy W(xi, p) = 0 within the stated tolerances."""
    worst_tab = max(f.max_residual for f in tab_fronts)
    worst_fish = fishery_front.max_residual
    ok = worst_tab <= 1e-12 and worst_fish <= 0.5
    report(2, "level-set fixed point", ok,
           f"tabular max |W(p)| = {worst_tab:.3g} (tol 1e-12), "
           f"fishery max |W(p)| = {worst_fish:.3g} (tol 0.5)")
    assert worst_tab <= 1e-12
    assert worst_fish <= 0.5


def test_criterion_3_reconstruction_consistency(tab_suite, tab_fronts):
    """Front + lower cone agrees with the solver membership away from the front.

    Samples within one threshold-mesh cell of the front (|W| <= spacing) are
    excluded, as stated.
    """
    rng = np.random.default_rng(SUITE_SEED + 1)
    disagreements = 0
    compared = 0
    for (inst, _), front in zip(tab_suite, tab_fronts):
        hi = front.sources.max(axis=0)
        samples = rng.uniform([-6.5, -6.5], hi, size=(1000, 2))
        for c in samples:
            w = solve_w(inst, c)
            if abs(w) <= RAY_SPACING:
                continue
            compared += 1
            if front.contains(c) != (w >= 0):
                disagreements += 1
    ok = disagreements == 0
    report(3, "reconstruction consistency", ok,
           f"{compared} samples compared, {disagreements} disagreements")
    assert ok


def analytic_curve(params, n=5001):
    """Infinite-horizon robust boundary H(x) = max over s in [x, x_max] of
    min_w sigma_w(s), x_max = min(xi, K_a, K_b): the reverse running max of
    min(sigma_a, sigma_b) on the same abscissae."""
    xs = np.linspace(0.0, min(FISHERY_XI, min(params.K.values())), n)
    worst_surplus = np.minimum(params.surplus(xs, "a"), params.surplus(xs, "b"))
    heights = np.maximum.accumulate(worst_surplus[::-1])[::-1]
    return xs, heights


def test_criterion_4a_fishery_front_near_analytic_curve(fishery_defaults,
                                                        fishery_front):
    """One-sided Hausdorff from the computed front to the closed-form curve.

    The threshold set is a lower set (if c is sustainable, so is every
    c' <= c), so its boundary is nonincreasing in the stock floor x.  At
    infinite horizon it is H(x) = max over s in [x, x_max] of
    min_w sigma_w(s):

    - if the harvest floor h exceeds H(x), the adversary that picks the
      slower-growing scenario at each stock gives
      x_{k+1} - x_k <= min_w sigma_w(x_k) - h < 0 for every stock in
      [x, x_max], and above x_max (beyond K_b) the surplus is negative, so
      the stock drains below x in finitely many stages;
    - harvesting h = min_w sigma_w(s) from any stock y >= s keeps the next
      stock at or above growth_w(s) - h >= s, because growth is
      increasing; taking s at the argmax (about 37.8, where both
      scenarios grow alike) achieves H(x).

    Computed front points are windowed to the nonnegative orthant (the
    benchmark is only presented there; the sweeps deliberately run past it
    and produce valid front points with negative coordinates).
    """
    params, _, _ = fishery_defaults
    xs, heights = analytic_curve(params)
    pts = fishery_front.points
    window = pts[(pts[:, 0] >= -1e-9) & (pts[:, 1] >= -1e-9)]
    dists = np.asarray([np.min(np.hypot(xs - p[0], heights - p[1]))
                        for p in window])
    hausdorff = float(dists.max())
    ok = hausdorff <= 1.0
    worst = window[int(np.argmax(dists))]
    report(4, "front vs closed-form curve (one-sided Hausdorff)", ok,
           f"{len(window)} front points in the positive orthant, "
           f"distance {hausdorff:.3g} (tol 1.0), farthest at "
           f"({worst[0]:.2f}, {worst[1]:.2f})")
    assert ok, (
        f"front point ({worst[0]:.2f}, {worst[1]:.2f}) lies {hausdorff:.3g} "
        "from the robust boundary H(x) = max over s in [x, x_max] of "
        "min_w sigma_w(s): a harvest floor above H(x) drains the stock below x "
        "under the slow-growth adversary, and holding the stock at the argmax "
        "of min_w sigma_w achieves H(x)")


def test_criterion_4b_fishery_set_contains_shrunk_analytic_interior(
        fishery_defaults, fishery_front):
    """Analytic interior points shrunk by 1.0 unit lie in the computed set."""
    params, _, _ = fishery_defaults
    missing = 0
    total = 0
    for x in np.linspace(0.0, 49.0, 50):
        probe = np.linspace(x, x + 1.0, 11)
        h = float(np.min(np.minimum(params.surplus(probe, "a"),
                                    params.surplus(probe, "b")))) - 1.0
        total += 1
        if not fishery_front.contains([x, h]):
            missing += 1
    ok = missing == 0
    report(4, "computed set contains shrunk analytic interior", ok,
           f"{total} interior samples, {missing} missing")
    assert ok


def test_solver_validation_front_matches_capped_envelope(fishery_defaults,
                                                         fishery_front):
    """Supplementary check (not a numbered criterion): the computed front
    tracks the capped envelope, i.e. the surplus evaluated at the stock
    floor capped from below by the MSY stock, minimized over scenarios.
    This is min_w max over s >= x of sigma_w(s), an upper bound on the
    robust boundary H of criterion 4a (max over s of min_w sigma_w(s)):
    on the flat part it sits at the slow-growth MSY harvest 7.39 while H
    is 7.34.
    """
    params, _, _ = fishery_defaults

    def true_height(x):
        vals = []
        for w in ("a", "b"):
            x_hold = np.clip(params.msy_stock(w), x, min(FISHERY_XI, params.K[w]))
            vals.append(float(params.surplus(x_hold, w)))
        return min(vals)

    pts = fishery_front.points
    window = pts[(pts[:, 0] >= 1.0) & (pts[:, 0] <= 49.0)]
    assert len(window) > 50
    errs = np.asarray([p[1] - true_height(p[0]) for p in window])
    worst = float(np.max(np.abs(errs)))
    print(f"SOLVER VALIDATION (capped envelope): max |computed - envelope| = "
          f"{worst:.3g} over {len(window)} points (tol 1.0)")
    assert worst <= 1.0


def test_criterion_5_horizon_monotonicity(fishery_defaults):
    """Longer horizons only shrink the sustainable set."""
    params, grid, controls = fishery_defaults
    rng = np.random.default_rng(77)
    sample = np.column_stack([rng.uniform(0, 55, size=50),
                              rng.uniform(0, 16, size=50)])
    member = {}
    for horizon in (10, 25, 50):
        sys = build_fishery_system(params, horizon=horizon)
        compiled = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(FISHERY_XI, grid, sys, controls,
                                        compiled=compiled)
        member[horizon] = np.asarray([
            rt.membership(FISHERY_XI, c, sys, grid, controls,
                          compiled=compiled, reach=reach) for c in sample])
    violations = int(np.sum(member[50] & ~member[25])
                     + np.sum(member[25] & ~member[10]))
    ok = violations == 0
    report(5, "horizon monotonicity", ok,
           f"members at N=10/25/50: {int(member[10].sum())}/"
           f"{int(member[25].sum())}/{int(member[50].sum())}, "
           f"{violations} nesting violations")
    assert ok


def test_criterion_6_strong_front_scheme():
    """Sequential chains: monotone, value identities, undominated endpoints.

    An endpoint is undominated when no lattice point of constraint values
    above it is sustainable, checked by the open-loop admissibility search
    and by the closed-loop game tree, whose set (the solver's) is the
    larger of the two.
    """
    rng = np.random.default_rng(SUITE_SEED + 2)
    worst_mono = worst_ident = 0.0
    dominating = open_members = closed_members = 0
    for _ in range(20):
        inst = random_instance(rng, max_horizon=2)
        c0 = None
        for _ in range(20):
            cand = rng.uniform(-6.0, 2.0, size=2)
            if solve_w(inst, cand) >= 0:
                c0 = cand
                break
        if c0 is None:
            c0 = np.asarray([-10.0, -10.0])  # sustainable by construction
        for perm in ((0, 1), (1, 0)):
            chain = pareto.strong_pareto_point(
                inst.xi, c0, perm, inst.sys, inst.grid, inst.controls,
                compiled=inst.compiled, reach=inst.reach)
            worst_mono = max(worst_mono, chain.residual_monotone)
            for i in range(2):
                worst_ident = max(worst_ident, abs(
                    chain.values[i] - chain.endpoint[perm[i]]))
            cm = chain.endpoint
            vals = [np.unique(np.concatenate([
                inst.params.stage_values[..., j].ravel(),
                inst.params.terminal_values[:, j]])) for j in (0, 1)]
            for a in vals[0][vals[0] >= cm[0] - 1e-9]:
                for b in vals[1][vals[1] >= cm[1] - 1e-9]:
                    q = np.asarray([a, b])
                    if np.all(q >= cm - 1e-9) and np.any(q > cm + 1e-9):
                        dominating += 1
                        open_members += oracle.exhaustive_membership(
                            inst.xi, q, inst.sys, inst.controls)
                        closed_members += oracle.closedloop_maximin(
                            inst.xi, q, inst.sys, inst.controls) >= 0
    ok = (worst_mono <= 1e-12 and worst_ident <= 1e-12
          and open_members == 0 and closed_members == 0)
    report(6, "strong-front scheme", ok,
           f"max monotonicity residual {worst_mono:.3g}, "
           f"max value-identity residual {worst_ident:.3g}, "
           f"{dominating} dominating lattice points: {open_members} open-loop "
           f"and {closed_members} closed-loop members")
    assert ok


def test_criterion_7_robust_vs_deterministic(tab_suite, fishery_front,
                                             fishery_single_fronts):
    """Robust membership implies every constant-scenario membership, and the
    robust fishery front lies within 1.0 unit of the pointwise minimum of the
    two single-scenario fronts (point-to-curve distance; the fronts contain
    near-vertical drops, so a height-versus-x gap would be ill-defined)."""
    violations = 0
    for inst, thresholds in tab_suite:
        singles = [single_scenario_instance(inst, s) for s in (0, 1)]
        for c in thresholds:
            if solve_w(inst, c) < 0:
                continue
            for single in singles:
                if solve_w(single, c) < 0:
                    violations += 1
    xs, ha = front_polyline(fishery_single_fronts["a"], -0.5, 49.6)
    _, hb = front_polyline(fishery_single_fronts["b"], -0.5, 49.6)
    h_min = np.minimum(ha, hb)
    pts = fishery_front.points
    window = pts[(pts[:, 0] >= 0.0) & (pts[:, 0] <= 49.0) & (pts[:, 1] >= 0.0)]
    dists = np.asarray([float(np.min(np.hypot(xs - p[0], h_min - p[1])))
                        for p in window])
    worst_gap = float(dists.max())
    ok = violations == 0 and worst_gap <= 1.0
    report(7, "robust vs deterministic", ok,
           f"{violations} tabular implication violations; fishery front to "
           f"min of single-scenario fronts: max distance {worst_gap:.3g} "
           f"over {len(window)} points (tol 1.0)")
    assert violations == 0
    assert worst_gap <= 1.0


def test_criterion_8_information_ordering(tab_suite):
    """Open-loop never beats closed-loop; strict gaps are logged, not hidden."""
    strict_gaps = 0
    max_gap = 0.0
    violations = 0
    for inst, thresholds in tab_suite:
        for c in thresholds[:20]:
            ol = oracle.openloop_maximin(inst.xi, c, inst.sys, inst.controls)
            cl = oracle.closedloop_maximin(inst.xi, c, inst.sys, inst.controls)
            if ol > cl + 1e-12:
                violations += 1
            if cl > ol + 1e-12:
                strict_gaps += 1
                max_gap = max(max_gap, cl - ol)
    ok = violations == 0
    report(8, "information ordering", ok,
           f"{SUITE_SIZE * 20} pairs, {violations} ordering violations, "
           f"{strict_gaps} strict closed-loop advantages (largest "
           f"{max_gap:.3g}) - documenting, not resolving, the open/closed gap")
    assert ok
