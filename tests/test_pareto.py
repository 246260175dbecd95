import itertools

import numpy as np
import pytest

import robust_thresholds as rt
from robust_thresholds import dp, oracle, pareto
from robust_thresholds.mesh import ThresholdRayMesh

from tabular_tools import (PLANE_XI, bisect_level, full_grid_sets, plane_problem,
                           random_instance, solve_w, tree_constrained_value,
                           tree_policy_threshold)


@pytest.fixture(scope="module")
def tab():
    return random_instance(np.random.default_rng(20))


def points_mesh(points) -> ThresholdRayMesh:
    """A threshold mesh of the given points and no axis sweeps."""
    return ThresholdRayMesh(points=np.asarray(points, dtype=float), sweeps=())


class TestProjection:
    """``weak_front`` projects each unsustainable mesh point along the
    diagonal, p(c) = c + W(xi, c) * 1, and reports sustainable ones."""

    def test_projection_arithmetic(self, tab):
        mesh = [[10.0, 10.0], [7.0, 12.0]]
        front = pareto.weak_front(tab.xi, points_mesh(mesh), tab.sys, tab.grid,
                                  tab.controls, compiled=tab.compiled, reach=tab.reach)
        values = np.asarray([solve_w(tab, c) for c in mesh])
        assert np.all(values < 0)
        assert np.array_equal(front.sources, mesh)
        assert np.array_equal(front.values, values)
        assert np.array_equal(front.points, np.asarray(mesh) + values[:, None])

    def test_sustainable_point_reported_as_skipped(self, tab):
        mesh = [[-50.0, -50.0], [10.0, 10.0]]
        front = pareto.weak_front(tab.xi, points_mesh(mesh), tab.sys, tab.grid,
                                  tab.controls, compiled=tab.compiled, reach=tab.reach)
        assert np.array_equal(front.skipped_sources, [[-50.0, -50.0]])
        assert np.array_equal(front.skipped_values, [solve_w(tab, [-50.0, -50.0])])
        assert front.skipped_values[0] >= 0
        assert np.array_equal(front.sources, [[10.0, 10.0]])
        assert any("inside the sustainable set" in d for d in front.diagnostics)

    def test_projected_point_has_zero_value(self):
        rng = np.random.default_rng(21)
        projected = 0
        for _ in range(6):
            inst = random_instance(rng)
            front = pareto.weak_front(inst.xi, points_mesh([[7.0, 7.0]]), inst.sys,
                                      inst.grid, inst.controls, compiled=inst.compiled,
                                      reach=inst.reach)
            for p, w in zip(front.points, front.revalidated):
                assert w == solve_w(inst, p)
                assert abs(w) <= 1e-12
                projected += 1
        assert projected


@pytest.fixture(scope="module")
def tab_front(tab):
    hi = float(max(tab.params.stage_values.max(), tab.params.terminal_values.max()))
    mesh = rt.threshold_ray_mesh(0.5, 14, [hi + 1.0, hi + 1.0])
    front = pareto.weak_front(tab.xi, mesh, tab.sys, tab.grid, tab.controls,
                              compiled=tab.compiled, reach=tab.reach)
    return mesh, front


class TestWeakFront:
    def test_front_values_negative_and_revalidated(self, tab_front):
        _, front = tab_front
        assert np.all(front.values < 0)
        assert front.max_residual <= 1e-12

    def test_membership_predicate_agrees_with_solver(self, tab, tab_front):
        _, front = tab_front
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(200):
            c = rng.uniform(-6, 6, size=2)
            w = solve_w(tab, c)
            if abs(w) <= 0.5:  # skip anything within one mesh cell of the front
                continue
            assert front.contains(c) == (w >= 0), c
            checked += 1
        assert checked > 50

    def test_boundary_and_strict_domination(self, tab_front):
        _, front = tab_front
        for q in front.points[:5]:
            assert front.contains(q)
            assert not front.contains(q + 0.05)

    def test_empty_mesh_rejected(self, tab):
        with pytest.raises(ValueError, match="empty"):
            pareto.weak_front(tab.xi, points_mesh(np.zeros((0, 2))), tab.sys,
                              tab.grid, tab.controls, compiled=tab.compiled,
                              reach=tab.reach)

    def test_sustainable_mesh_points_skipped_with_warning(self, tab):
        mesh = points_mesh([[-10.0, -10.0], [7.0, 7.0]])
        front = pareto.weak_front(tab.xi, mesh, tab.sys, tab.grid, tab.controls,
                                  compiled=tab.compiled, reach=tab.reach)
        assert len(front.skipped_sources) == 1
        assert any("enlarge the anchors" in d for d in front.diagnostics)


class TestConstrainedMaximin:
    def test_single_component_value_at_least_threshold(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, m=1)
        c = np.asarray([-4.0])
        if solve_w(inst, c) < 0:
            pytest.skip("rare: instance infeasible at low threshold")
        value, _ = pareto.constrained_maximin_value(
            inst.xi, 0, c, compiled=inst.compiled, reach=inst.reach)
        assert value > dp.NEG_INF_CUTOFF
        assert value >= c[0] - 1e-12

    def test_matches_reference_tree_recursion(self):
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(8):
            inst = random_instance(rng)
            c = rng.uniform(-6, -2, size=2)
            if solve_w(inst, c) < 0:
                continue
            for comp in (0, 1):
                value, _ = pareto.constrained_maximin_value(
                    inst.xi, comp, c, compiled=inst.compiled, reach=inst.reach)
                want = tree_constrained_value(inst, comp, c)
                assert value == pytest.approx(want, abs=1e-12)
                checked += 1
        assert checked >= 6

    def test_infeasible_threshold_flagged(self, tab):
        value, _ = pareto.constrained_maximin_value(
            tab.xi, 0, [100.0, 100.0], compiled=tab.compiled, reach=tab.reach)
        assert value <= dp.NEG_INF_CUTOFF

    def test_interior_value_exceeds_component_and_pinned_value_equals_it(self):
        # two states; staying in state 1 yields g = (3, 1), state 0 pays (0, 9)
        params = rt.TabularParams(
            node_coords=np.asarray([0.0, 1.0]),
            transitions=np.asarray([[[0, 0], [1, 1]], [[0, 0], [1, 1]]]),
            stage_values=np.asarray([[[0.0, 9.0], [0.0, 9.0]],
                                     [[3.0, 1.0], [3.0, 1.0]]]),
            terminal_values=np.asarray([[0.0, 9.0], [3.0, 1.0]]),
        )
        sys = rt.build_tabular_system(params, horizon=2)
        grid = rt.StateGrid(lower=[0.0], upper=[1.0], counts=[2])
        controls = rt.ControlMesh((0, 1))
        compiled = rt.compile_system(sys, grid, controls, interp="nearest")
        full = full_grid_sets(grid, sys.horizon)
        # from state 1 with c deep inside, maximizing component 0 gives 3 > c_0
        value, _ = pareto.constrained_maximin_value(1.0, 0, [-1.0, -1.0],
                                                    compiled=compiled, reach=full)
        assert value == 3.0 > -1.0
        # pinning c_1 = 1 forces staying in state 1; component 1 value equals c_1
        value2, _ = pareto.constrained_maximin_value(1.0, 1, [-1.0, 1.0],
                                                     compiled=compiled, reach=full)
        assert value2 == 1.0


class TestThresholdOfPolicy:
    def test_policy_threshold_is_sustainable(self):
        rng = np.random.default_rng(25)
        for _ in range(6):
            inst = random_instance(rng)
            c = rng.uniform(-6, -3, size=2)
            if solve_w(inst, c) < 0:
                continue
            _, choices = pareto.constrained_maximin_value(
                inst.xi, 0, c, compiled=inst.compiled, reach=inst.reach)
            gamma = pareto.threshold_of_policy(inst.xi, choices,
                                               compiled=inst.compiled,
                                               reach=inst.reach)
            assert solve_w(inst, gamma) >= -1e-12

    def test_constant_constraints_rolled_up_exactly(self):
        params = rt.TabularParams(
            node_coords=np.asarray([0.0, 1.0]),
            transitions=np.asarray([[[1, 1], [0, 1]], [[0, 0], [1, 0]]]),
            stage_values=np.full((2, 2, 2), [2.5, -1.0]),
            terminal_values=np.full((2, 2), 100.0),
        )
        sys = rt.build_tabular_system(params, horizon=2)
        grid = rt.StateGrid(lower=[0.0], upper=[1.0], counts=[2])
        controls = rt.ControlMesh((0, 1))
        compiled = rt.compile_system(sys, grid, controls, interp="nearest")
        full = full_grid_sets(grid, sys.horizon)
        _, policy = dp.sweep_scores(compiled, full, *compiled.slack_scores(np.zeros(2)))
        gamma = pareto.threshold_of_policy(0.0, policy, compiled=compiled, reach=full)
        np.testing.assert_allclose(gamma, [2.5, -1.0])

    def test_matches_reference_tree_evaluation(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            inst = random_instance(rng)
            _, policy = dp.sweep_scores(inst.compiled, inst.reach,
                                        *inst.compiled.slack_scores(np.full(2, -3.0)))
            gamma = pareto.threshold_of_policy(inst.xi, policy, compiled=inst.compiled,
                                               reach=inst.reach)
            np.testing.assert_allclose(gamma, tree_policy_threshold(inst, policy),
                                       atol=1e-12)


class TestStrongChain:
    def test_chain_from_strong_maximum_is_constant(self):
        rng = np.random.default_rng(27)
        inst = random_instance(rng)
        first = pareto.strong_pareto_point(
            inst.xi, [-10.0, -10.0], (0, 1), inst.sys, inst.grid, inst.controls,
            compiled=inst.compiled, reach=inst.reach)
        again = pareto.strong_pareto_point(
            inst.xi, first.endpoint, (0, 1), inst.sys, inst.grid, inst.controls,
            compiled=inst.compiled, reach=inst.reach)
        np.testing.assert_allclose(again.chain, np.tile(first.endpoint, (3, 1)),
                                   atol=1e-12)

    def test_both_permutations_undominated_on_value_lattice(self):
        rng = np.random.default_rng(28)
        inst = random_instance(rng)
        for perm in ((0, 1), (1, 0)):
            chain = pareto.strong_pareto_point(
                inst.xi, [-10.0, -10.0], perm, inst.sys, inst.grid, inst.controls,
                compiled=inst.compiled, reach=inst.reach)
            assert chain.residual_monotone <= 1e-12
            assert chain.residual_identity <= 1e-12
            cm = chain.endpoint
            vals = [np.unique(np.concatenate([
                inst.params.stage_values[..., j].ravel(),
                inst.params.terminal_values[:, j]])) for j in (0, 1)]
            for a in vals[0][vals[0] >= cm[0] - 1e-9]:
                for b in vals[1][vals[1] >= cm[1] - 1e-9]:
                    q = np.asarray([a, b])
                    if np.all(q >= cm - 1e-9) and np.any(q > cm + 1e-9):
                        assert not oracle.exhaustive_membership(
                            inst.xi, q, inst.sys, inst.controls)

    def test_scalar_case_matches_line_search(self):
        rng = np.random.default_rng(29)
        inst = random_instance(rng, m=1)
        c0 = np.asarray([-10.0])
        chain = pareto.strong_pareto_point(
            inst.xi, c0, (0,), inst.sys, inst.grid, inst.controls,
            compiled=inst.compiled, reach=inst.reach)
        # scan a fine threshold line for the largest sustainable value
        best = -np.inf
        for c1 in np.arange(-10.0, 6.0, 0.01):
            if solve_w(inst, [c1]) >= 0:
                best = c1
        assert chain.endpoint[0] >= best - 1e-9
        assert solve_w(inst, chain.endpoint) >= -1e-12

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))),
                             ids=lambda p: "".join(map(str, p)))
    def test_plane_chains_clean_in_every_order(self, perm):
        # the masked step 1 of orders (2, 0, 1) and (2, 1, 0) blends the
        # sentinel into a finite value near -4.8e8 whose rolled-up threshold
        # W accepts; it must go to the W line search instead
        sys, grid, controls, compiled, reach = plane_problem()
        chain = pareto.strong_pareto_point(PLANE_XI, [0.5, 0.5, -0.5], perm, sys,
                                           grid, controls, compiled=compiled,
                                           reach=reach)
        assert chain.diagnostics == []
        for c in chain.chain:
            assert rt.solve_value(PLANE_XI, c, sys, grid, controls,
                                  compiled=compiled, reach=reach) >= 0.0

    def test_infeasible_start_rejected(self, tab):
        with pytest.raises(pareto.InfeasibleThresholdError, match="not sustainable"):
            pareto.strong_pareto_point(tab.xi, [50.0, 50.0], (0, 1), tab.sys,
                                       tab.grid, tab.controls,
                                       compiled=tab.compiled, reach=tab.reach)

    def test_bad_permutation_rejected(self, tab):
        with pytest.raises(ValueError, match="permutation"):
            pareto.strong_pareto_point(tab.xi, [-10.0, -10.0], (0, 0), tab.sys,
                                       tab.grid, tab.controls,
                                       compiled=tab.compiled, reach=tab.reach)


def _counted(solve):
    """solve wrapped with a call counter in ``.calls``."""
    def counted(c):
        counted.calls += 1
        return solve(c)
    counted.calls = 0
    return counted


def _assert_level_equals_bisection(solve, c, comp, tol, upper):
    """The level search returns bisection's level bit for bit, certified by
    an accepted level whose next float is rejected; returns the solves of
    (search, bisection)."""
    search, bisect = _counted(solve), _counted(solve)
    got = pareto._largest_accepted_level(search, c, comp, tol, upper)
    want = bisect_level(bisect, c, comp, tol, upper)
    where = f"start {c.tolist()}, component {comp}, upper {upper!r}"
    assert got.hex() == want.hex(), where
    above = np.nextafter(got, upper)
    if above < upper:
        trial = c.copy()
        trial[comp] = got
        assert solve(trial) >= -tol, where
        trial[comp] = above
        assert solve(trial) < -tol, where
    return search.calls, bisect.calls


class TestLevelSearch:
    def test_fishery_fallback_steps_equal_bisection(self, coarse_fishery, monkeypatch):
        sys, grid, controls, compiled, reach = coarse_fishery
        calls = []
        search = pareto._largest_accepted_level

        def record(solve, c, comp, tol, upper):
            calls.append((c.copy(), comp, tol, upper))
            return search(solve, c, comp, tol, upper)

        monkeypatch.setattr(pareto, "_largest_accepted_level", record)
        for start in ((0.0, 0.0), (10.0, 2.0), (5.0, 7.0)):
            for perm in ((0, 1), (1, 0)):
                pareto.strong_pareto_point(60.0, start, perm, sys, grid, controls,
                                           compiled=compiled, reach=reach)
        monkeypatch.undo()

        def solve(c):
            return rt.solve_value(60.0, c, sys, grid, controls, compiled=compiled,
                                  reach=reach)

        solves = np.asarray([_assert_level_equals_bisection(solve, *call)
                             for call in calls])
        # one step keeps its start level 0.0, which bisection certifies
        # only through the subnormals
        assert len(calls) == 11
        assert np.sum(solves[:, 0] == 1) == 3
        assert 3 * solves[:, 0].sum() < solves[:, 1].sum()

    def test_tabular_levels_equal_bisection(self):
        rng = np.random.default_rng(91)
        seen = {"negative": 0, "zero": 0, "one solve": 0, "adjacent": 0}
        for k in range(60):
            inst = random_instance(rng, integer_values=k % 2 == 1)

            def solve(c):
                return solve_w(inst, c)

            comp = k % 2
            tol = 1e-9 if k % 3 == 0 else 0.0
            upper = inst.compiled.stage(0).g_vals[..., comp].max() + tol + 1.0
            c = rng.uniform(-6.0, 6.0, size=2)
            c += min(0.0, solve(c))  # onto the front along the diagonal
            zero = c.copy()
            zero[[comp, 1 - comp]] = 0.0, -10.0
            for start in (c, zero):
                if solve(start) < -tol:
                    continue
                calls, _ = _assert_level_equals_bisection(solve, start, comp, tol,
                                                          upper)
                seen["negative"] += start[comp] < 0.0
                seen["zero"] += start[comp] == 0.0
                seen["one solve"] += calls == 1
                adjacent = float(np.nextafter(start[comp], np.inf))
                calls, _ = _assert_level_equals_bisection(solve, start, comp, tol,
                                                          adjacent)
                assert calls == 0
                seen["adjacent"] += 1
        assert all(n >= 5 for n in seen.values()), seen


class TestFisherySmoke:
    def test_weak_front_and_strong_chain_on_coarse_benchmark(self, coarse_fishery):
        sys, grid, controls, compiled, reach = coarse_fishery
        mesh = rt.threshold_ray_mesh(2.0, 40, [130.0, 60.0])
        front = pareto.weak_front(60.0, mesh, sys, grid, controls,
                                  compiled=compiled, reach=reach)
        assert len(front) == len(mesh)
        assert front.max_residual <= front.front_tol
        chain = pareto.strong_pareto_point(60.0, [0.0, 0.0], (1, 0), sys, grid,
                                           controls, compiled=compiled, reach=reach)
        assert np.all(np.diff(chain.chain, axis=0) >= -1e-9)
        assert rt.membership(60.0, chain.endpoint, sys, grid, controls, tol=1e-9,
                             compiled=compiled, reach=reach)

    def test_revalidation_residual_beyond_tolerance_is_diagnosed(self, coarse_fishery):
        # multilinear solves revalidate to about 1e-14, not to exact zero
        sys, grid, controls, compiled, reach = coarse_fishery
        mesh = rt.threshold_ray_mesh(25.0, 4, [130.0, 60.0])
        front = pareto.weak_front(60.0, mesh, sys, grid, controls, front_tol=0.0,
                                  compiled=compiled, reach=reach)
        assert len(front) == len(mesh)
        assert 0.0 < front.max_residual < 1e-12
        assert front.diagnostics == [
            f"front revalidation residual {front.max_residual:.6g} exceeds tolerance 0"]

    def test_decreasing_sweep_coordinate_is_diagnosed(self, coarse_fishery):
        sys, grid, controls, compiled, reach = coarse_fishery
        points = np.asarray([[0.0, 60.0], [50.0, 60.0], [100.0, 60.0]])
        # the projected stock floors rise with the source's; listed in
        # reverse, the sweep decreases
        for members, diagnosed in (((0, 1, 2), 0), ((2, 1, 0), 1)):
            mesh = ThresholdRayMesh(points=points, sweeps=((0, members),))
            front = pareto.weak_front(60.0, mesh, sys, grid, controls,
                                      compiled=compiled, reach=reach)
            assert len(front) == len(points)
            assert np.all(np.diff(front.points[:, 0]) > 0)
            assert len(front.diagnostics) == diagnosed
        assert "projected coordinate 0 decreases along its sweep" in front.diagnostics[0]

    def test_threaded_front_equals_serial_front(self, coarse_fishery):
        sys, grid, controls, compiled, reach = coarse_fishery
        mesh = rt.threshold_ray_mesh(10.0, 6, [130.0, 60.0])
        serial, threaded = (pareto.weak_front(60.0, mesh, sys, grid, controls,
                                              compiled=compiled, reach=reach, jobs=jobs)
                            for jobs in (1, 2))
        assert len(serial) == len(mesh)
        for name in ("points", "values", "revalidated"):
            a, b = getattr(serial, name), getattr(threaded, name)
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("perm", [(0, 1), (1, 0)])
    def test_strong_chains_certified_on_coarse_benchmark(self, perm, coarse_fishery):
        # on this coarse multilinear grid the masked steps blend their
        # sentinel across the cell at stock 0 or roll up thresholds that W
        # rejects; every chain member must still be W-sustainable
        sys, grid, controls, compiled, reach = coarse_fishery
        chain = pareto.strong_pareto_point(60.0, [0.0, 0.0], perm, sys, grid,
                                           controls, compiled=compiled, reach=reach)
        assert chain.line_search_steps
        assert chain.residual_monotone == 0.0
        assert chain.diagnostics == []
        for c in chain.chain:
            assert rt.solve_value(60.0, c, sys, grid, controls,
                                  compiled=compiled, reach=reach) >= 0.0
        # a crashed stock must not earn the harvest bound u_max = 40
        assert chain.endpoint[1] < 12.0
