import numpy as np
import pytest

import robust_thresholds as rt
from robust_thresholds import fishery as fm
from robust_thresholds.model import as_threshold


# closed-form threshold sets of the fishery at infinite horizon, against
# which the tests below check ``fishery.robust_boundary``


def infinite_horizon_membership(params: fm.FisheryParams, xi: float, w, c) -> bool:
    """Closed-form single-scenario threshold-set test at infinite horizon:
    stock floor at most min(xi, K_w) and harvest floor at most H(x) of
    scenario w alone, the best surplus over stocks in [x, min(xi, K_w)].
    """
    return _below_boundary(params, xi, c, (w,))


def infinite_horizon_membership_robust(params: fm.FisheryParams, xi: float, c) -> bool:
    """Closed-form robust threshold-set test at infinite horizon: stock
    floor at most min(xi, K_w over all scenarios) and harvest floor at most
    H(x), the best worst-case surplus over stocks in [x, x_max].
    """
    return _below_boundary(params, xi, c, params.scenarios)


def _below_boundary(params: fm.FisheryParams, xi: float, c, scenarios: tuple) -> bool:
    cv = as_threshold(c, 2)
    h = fm.robust_boundary(params, xi, float(cv[0]), scenarios)
    return not np.isnan(h) and float(cv[1]) <= h


@pytest.fixture(scope="module")
def params():
    return fm.FisheryParams.default()


class TestGrowthMap:
    def test_extinction_and_capacity_fixed_points(self, params):
        for w in ("a", "b"):
            assert params.growth(0.0, w) == 0.0
            assert params.growth(params.K[w], w) == pytest.approx(params.K[w],
                                                                  abs=1e-12)

    def test_hand_evaluated_growth(self, params):
        assert params.growth(25.0, "b") == pytest.approx(37.5, abs=1e-12)

    def test_negative_stock_rejected(self, params):
        with pytest.raises(ValueError, match="negative stock"):
            params.growth(-1.0, "b")

    def test_strictly_increasing_and_concave(self, params):
        xs = np.linspace(0.0, 120.0, 400)
        for w in ("a", "b"):
            f = params.growth(xs, w)
            assert np.all(np.diff(f) > 0)
            assert np.all(np.diff(f, 2) < 1e-9)


class TestSurplus:
    def test_vanishes_at_zero_and_capacity(self, params):
        for w in ("a", "b"):
            assert params.surplus(0.0, w) == 0.0
            assert params.surplus(params.K[w], w) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_surplus(self, params):
        assert params.surplus(25.0, "b") == pytest.approx(12.5, abs=1e-12)

    def test_nonnegative_below_capacity(self, params):
        for w in ("a", "b"):
            xs = np.linspace(0.0, params.K[w], 200)
            assert np.all(params.surplus(xs, w) >= -1e-12)


class TestMaximumSustainableYield:
    def test_closed_forms(self, params):
        assert params.msy_stock("b") == pytest.approx(50 / (1 + np.sqrt(3.0)),
                                                      abs=1e-12)
        assert params.msy_stock("b") == pytest.approx(18.301, abs=5e-4)
        assert params.msy_stock("a") == pytest.approx(41.30, abs=5e-3)
        assert params.msy_harvest("b") == pytest.approx(13.40, abs=5e-3)
        assert params.msy_harvest("a") == pytest.approx(7.39, abs=5e-3)

    def test_peak_harvest_equals_surplus_at_peak_stock(self, params):
        for w in ("a", "b"):
            assert params.msy_harvest(w) == pytest.approx(
                float(params.surplus(params.msy_stock(w), w)), abs=1e-10)

    def test_interior_argmax_by_grid_scan(self, params):
        for w in ("a", "b"):
            xs = np.linspace(0.0, params.K[w], 5001)
            scan = params.surplus(xs, w)
            x_star = params.msy_stock(w)
            assert abs(xs[np.argmax(scan)] - x_star) < params.K[w] / 5000 * 1.5
            eps = 0.5
            assert params.surplus(x_star + eps, w) <= params.msy_harvest(w)
            assert params.surplus(x_star - eps, w) <= params.msy_harvest(w)


class TestClosedFormSets:
    def test_origin_always_inside(self, params):
        for w in ("a", "b"):
            assert infinite_horizon_membership(params, 10.0, w, [0.0, 0.0])
        assert infinite_horizon_membership_robust(params, 10.0, [0.0, 0.0])

    def test_msy_corner_on_boundary(self, params):
        for w in ("a", "b"):
            x_star = params.msy_stock(w)
            peak = float(params.surplus(x_star, w))  # boundary height at the peak
            assert peak == pytest.approx(params.msy_harvest(w), abs=1e-10)
            assert infinite_horizon_membership(params, 60.0, w, [x_star, peak])
            assert not infinite_horizon_membership(
                params, 60.0, w, [x_star, peak + 1e-6])

    def test_capacity_cap(self, params):
        assert not infinite_horizon_membership(params, 200.0, "b", [51.0, 0.0])
        assert not infinite_horizon_membership_robust(params, 200.0, [60.0, 0.0])

    def test_initial_stock_cap(self, params):
        assert not infinite_horizon_membership(params, 30.0, "a", [31.0, 0.0])
        assert infinite_horizon_membership(params, 30.0, "a", [29.0, 0.0])

    def test_boundary_curve_membership(self, params):
        # min(sigma_a, sigma_b) rises (as sigma_a) up to the stock s_c where
        # the growth maps agree, (r_b - r_a) / ((1+r_a) r_b/K_b - (1+r_b) r_a/K_a)
        # ~ 37.79, and falls (as sigma_b, past its peak) after it, so H(x),
        # its best value over [x, 50], is its value at max(x, s_c)
        r, K = params.r, params.K
        s_c = (r["b"] - r["a"]) / ((1 + r["a"]) * r["b"] / K["b"]
                                   - (1 + r["b"]) * r["a"] / K["a"])
        xs = np.linspace(0.0, 50.0, 50001)
        sampled = np.maximum.accumulate(np.minimum(params.surplus(xs, "a"),
                                                   params.surplus(xs, "b"))[::-1])[::-1]
        for x in np.linspace(1.0, 49.0, 9):
            h = min(float(params.surplus(max(x, s_c), w)) for w in ("a", "b"))
            assert h == pytest.approx(np.interp(x, xs, sampled), abs=1e-4)
            assert fm.robust_boundary(params, 60.0, x) == h
            assert infinite_horizon_membership_robust(params, 60.0, [x, h])
            assert not infinite_horizon_membership_robust(
                params, 60.0, [x, h + 1e-9])

    def test_sustainable_below_the_rising_curve_peak(self, params):
        # (0, 5) lies under H but above min_w sigma_w(0) = 0
        assert infinite_horizon_membership_robust(params, 60.0, [0.0, 5.0])
        assert infinite_horizon_membership(params, 60.0, "b", [0.0, 13.0])
        assert not infinite_horizon_membership(params, 60.0, "b", [0.0, 13.5])


class TestBuiltSystem:
    def test_step_consistency_with_growth(self, params):
        sys = fm.build_fishery_system(params, horizon=2)
        assert sys.step(0, 50.0, 0.0, "b") == pytest.approx(50.0, abs=1e-12)
        assert sys.step(1, 30.0, 4.0, "a") == pytest.approx(
            float(params.growth(30.0, "a")) - 4.0, abs=1e-12)

    def test_equilibrium_harvest_holds_stock(self, params):
        sys = fm.build_fishery_system(params, horizon=1)
        for w in ("a", "b"):
            for x in (10.0, 25.0, 40.0):
                u = float(params.surplus(x, w))
                assert sys.step(0, x, u, w) == pytest.approx(x, abs=1e-12)

    def test_scenario_subset_variant(self, params):
        sys = fm.build_fishery_system(params, horizon=2, scenarios=("b",))
        assert sys.scenario_sets == (("b",),) * 3
        with pytest.raises(ValueError, match="unknown scenario"):
            fm.build_fishery_system(params, horizon=1, scenarios=("c",))

    def test_extinct_stock_stays_extinct(self, params):
        sys = fm.build_fishery_system(params, horizon=1)
        assert sys.step(0, -5.0, 0.0, "b") == 0.0

    def test_robust_membership_implies_each_deterministic(self, params):
        sys = fm.build_fishery_system(params, horizon=6)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 41)
        comp = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=comp)
        singles = {}
        for w in ("a", "b"):
            s = fm.build_fishery_system(params, horizon=6, scenarios=(w,))
            cs = rt.compile_system(s, grid, controls)
            singles[w] = (s, cs, rt.build_reachable_sets(60.0, grid, s, controls,
                                                         compiled=cs))
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(25):
            c = np.asarray([rng.uniform(0, 55), rng.uniform(0, 15)])
            if not rt.membership(60.0, c, sys, grid, controls,
                                 compiled=comp, reach=reach):
                continue
            hits += 1
            for w, (s, cs, rc) in singles.items():
                assert rt.membership(60.0, c, s, grid, controls,
                                     compiled=cs, reach=rc), (c, w)
        assert hits > 3
