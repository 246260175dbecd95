import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_thresholds as rt
from robust_thresholds import dp, oracle
from robust_thresholds.fishery import FisheryParams, build_fishery_system
from robust_thresholds.mesh import UnpopulatedNodeError, full_grid_sets

from tabular_tools import plane_problem, random_instance, solve_w


@pytest.fixture(scope="module")
def fishery3():
    sys = build_fishery_system(FisheryParams.default(), horizon=3)
    grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
    controls = rt.ControlMesh.uniform(0.0, 40.0, 41)
    compiled = rt.compile_system(sys, grid, controls)
    reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=compiled)
    return sys, grid, controls, compiled, reach


class TestSlacks:
    def test_stage_slack_hand_value(self, fishery3):
        sys = fishery3[0]
        assert dp.stage_slack(sys, 0, 30.0, 4.0, [20.0, 5.0]) == -1.0

    def test_zero_gap_when_threshold_equals_constraint(self, fishery3):
        sys = fishery3[0]
        assert dp.stage_slack(sys, 1, 30.0, 4.0, [30.0, 4.0]) == 0.0

    def test_single_component_reduces_to_difference(self):
        sys = rt.SystemSpec(
            horizon=0, state_dim=1, threshold_dim=1,
            dynamics=lambda k, x, u, w: x,
            stage_constraints=lambda k, x, u: np.asarray([x - u]),
            terminal_constraint=lambda x: np.asarray([x]),
            control_space=rt.IntervalControlSpace(0.0, 1.0),
            scenario_sets=((0,),),
        )
        assert dp.stage_slack(sys, 0, 5.0, 2.0, [1.0]) == 2.0

    def test_terminal_slack_hand_value(self, fishery3):
        sys = fishery3[0]
        assert dp.terminal_slack(sys, 12.0, [10.0, 3.0]) == 2.0
        assert dp.terminal_slack(sys, 12.0, [12.0, 1.0e6]) == 0.0

    def test_terminal_slack_nonnegative_below_constraint(self, fishery3):
        sys = fishery3[0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 100)
            th = sys.terminal(x)
            c = th - rng.uniform(0, 5, size=2)
            assert dp.terminal_slack(sys, x, c) >= 0


class TestBackwardRecursion:
    def test_single_stage_matches_direct_enumeration(self):
        params = FisheryParams.default()
        sys = build_fishery_system(params, horizon=0)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 21)
        c = np.asarray([10.0, 5.0])
        tables, _ = rt.backward_recursion(sys, grid, controls, None, c)
        # brute force at a grid node, exact dynamics, clamped interpolation
        x = 60.0
        best = -np.inf
        for u in controls.values:
            worst = min(
                rt.interpolate(tables[1], sys.step(0, x, u, w))
                for w in ("a", "b"))
            best = max(best, min(worst, dp.stage_slack(sys, 0, x, u, c)))
        assert rt.robust_value(x, tables) == pytest.approx(best, abs=1e-12)

    def test_tabular_equals_game_tree_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            inst = random_instance(rng)
            for _ in range(10):
                c = rng.uniform(-6, 6, size=2)
                got = solve_w(inst, c)
                want = oracle.closedloop_maximin(inst.xi, c, inst.sys, inst.controls)
                assert got == pytest.approx(want, abs=1e-12)

    def test_uniform_threshold_shift_shifts_values(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng)
        c = np.asarray([0.5, -1.25])
        for t in (0.5, -2.0, 1.75):
            base, _ = rt.backward_recursion(inst.sys, inst.grid, inst.controls,
                                            inst.reach, c, compiled=inst.compiled)
            shifted, _ = rt.backward_recursion(inst.sys, inst.grid, inst.controls,
                                               inst.reach, c + t, compiled=inst.compiled)
            for tb, ts in zip(base, shifted):
                rows = np.flatnonzero(tb.populated)
                np.testing.assert_allclose(ts.values[rows], tb.values[rows] - t,
                                           atol=1e-12)

    def test_antitone_in_threshold(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = rng.uniform(0, 30, size=2)
            bump = rng.uniform(0, 5, size=2)
            lo, _ = rt.backward_recursion(sys, grid, controls, reach, c,
                                          compiled=compiled)
            hi, _ = rt.backward_recursion(sys, grid, controls, reach, c + bump,
                                          compiled=compiled)
            for tl, th in zip(lo, hi):
                rows = np.flatnonzero(tl.populated)
                assert np.all(th.values[rows] <= tl.values[rows] + 1e-12)

    def test_stage_value_bounded_by_best_stage_slack(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([10.0, 5.0])
        tables, _ = rt.backward_recursion(sys, grid, controls, reach, c,
                                          compiled=compiled)
        coords = grid.node_coordinates()[:, 0]
        for n in range(sys.horizon + 1):
            rows = np.flatnonzero(tables[n].populated)
            for i in rows[:: max(1, len(rows) // 17)]:
                cap = max(dp.stage_slack(sys, n, coords[i], u, c)
                          for u in controls.values)
                assert tables[n].values[i] <= cap + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-10.0, 130.0), st.floats(-10.0, 60.0))
    def test_policy_replay_reproduces_values(self, coarse_fishery, c1, c2):
        # replaying the argmax policy repeats the optimizing sweep's float
        # operations on the chosen control, so the tables agree bit for bit
        sys, grid, controls, compiled, reach = coarse_fishery
        c = np.asarray([c1, c2])
        tables, policy = rt.backward_recursion(sys, grid, controls, reach, c,
                                               compiled=compiled)
        replayed = dp.sweep_policy(compiled, reach, policy, *compiled.slack_scores(c))
        for tv, tr in zip(tables, replayed):
            # populated on the same nodes, equal bit for bit there
            assert np.array_equal(tr.values, tv.values, equal_nan=True)

    def test_bitwise_deterministic_across_runs(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([12.0, 6.0])
        t1, p1 = rt.backward_recursion(sys, grid, controls, reach, c,
                                       compiled=compiled)
        t2, p2 = rt.backward_recursion(sys, grid, controls, reach, c,
                                       compiled=compiled)
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(p1.choices, p2.choices)

    def test_reachable_and_full_grid_agree_on_reachable_nodes(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([8.0, 3.0])
        part, _ = rt.backward_recursion(sys, grid, controls, reach, c,
                                        compiled=compiled)
        full, _ = rt.backward_recursion(sys, grid, controls, None, c,
                                        compiled=compiled)
        for tp, tf in zip(part, full):
            rows = np.flatnonzero(tp.populated)
            np.testing.assert_array_equal(tp.values[rows], tf.values[rows])


def _reference_stage(V, ci, cw, scores):
    """Plain fancy-indexed gathers summed corner by corner, then the
    scenario minimum as a reduction and the minimum with the scores."""
    acc = V[ci[0]] * cw[0]
    for j in range(1, len(ci)):
        acc += V[ci[j]] * cw[j]
    return np.minimum(acc.min(axis=-1), scores)


def _rows(reach, n, n_nodes):
    return np.arange(n_nodes) if reach.full else reach.indices(n)


def _reference_sweep(compiled, reach, stage_scores, terminal_score):
    """Value tables V_0..V_{N+1} and argmax choices of the optimizing sweep."""
    horizon, n_nodes = compiled.sys.horizon, compiled.grid.n_nodes
    V = np.full(n_nodes, np.nan)
    rows = _rows(reach, horizon + 1, n_nodes)
    V[rows] = terminal_score[rows]
    values = [V]
    choices = np.full((horizon + 1, n_nodes), -1, dtype=np.int32)
    for n in range(horizon, -1, -1):
        rows, sa = _rows(reach, n, n_nodes), compiled.stage(n)
        q = _reference_stage(V, sa.corner_idx[:, rows], sa.corner_w[:, rows],
                             stage_scores[n][rows])
        V = np.full(n_nodes, np.nan)
        V[rows] = q.max(axis=-1)
        choices[n, rows] = q.argmax(axis=-1)
        values.append(V)
    return values[::-1], choices


def _reference_policy_sweep(compiled, reach, choices, stage_scores, terminal_score):
    """Value tables V_0..V_{N+1} of the fixed policy ``choices``."""
    horizon, n_nodes = compiled.sys.horizon, compiled.grid.n_nodes
    V = np.full(n_nodes, np.nan)
    rows = _rows(reach, horizon + 1, n_nodes)
    V[rows] = terminal_score[rows]
    values = [V]
    for n in range(horizon, -1, -1):
        rows, sa = _rows(reach, n, n_nodes), compiled.stage(n)
        p = choices[n, rows]
        q = _reference_stage(V, sa.corner_idx[:, rows, p], sa.corner_w[:, rows, p],
                             stage_scores[n][rows, p])
        V = np.full(n_nodes, np.nan)
        V[rows] = q
        values.append(V)
    return values[::-1]


class TestStageKernelPinned:
    """The sweeps equal a plain reference recursion bit for bit: same float
    operations, same order, only the reductions are taken slice-wise."""

    @staticmethod
    def assert_pinned(compiled, reach, stage_scores, terminal):
        tables, policy = dp.sweep_scores(compiled, reach, stage_scores, terminal)
        values, choices = _reference_sweep(compiled, reach, stage_scores, terminal)
        for t, v in zip(tables, values):
            assert np.array_equal(t.values, v, equal_nan=True)
        assert np.array_equal(policy.choices, choices)
        replayed = dp.sweep_policy(compiled, reach, policy, stage_scores, terminal)
        ref = _reference_policy_sweep(compiled, reach, choices, stage_scores, terminal)
        for t, v in zip(replayed, ref):
            assert np.array_equal(t.values, v, equal_nan=True)

    def all_scores(self, compiled, c):
        c = np.asarray(c, dtype=float)
        yield compiled.slack_scores(c)
        for comp in range(len(c)):
            yield compiled.masked_component_scores(c, comp)
            yield compiled.component_scores(comp)

    @pytest.mark.parametrize("full_grid", [False, True])
    def test_fishery(self, fishery3, full_grid):
        sys, grid, controls, compiled, reach = fishery3
        if full_grid:
            reach = full_grid_sets(grid, sys.horizon)
        else:
            # the reachable rows are contiguous: the slice path
            assert isinstance(reach.selectors[1], slice)
        for c in ([10.0, 5.0], [0.0, 0.0], [30.0, 7.0], [130.0, 60.0]):
            for scores, terminal in self.all_scores(compiled, c):
                self.assert_pinned(compiled, reach, scores, terminal)

    def test_seeded_tabular_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            inst = random_instance(rng)
            for reach in (inst.reach, full_grid_sets(inst.grid, inst.sys.horizon)):
                for c in rng.uniform(-6, 6, size=(3, 2)):
                    for scores, terminal in self.all_scores(inst.compiled, c):
                        self.assert_pinned(inst.compiled, reach, scores, terminal)

    def test_plane_system(self):
        sys, grid, controls, compiled, reach = plane_problem()
        assert compiled.stage(0).corner_idx.shape == (4, 81, 5, 3)
        # rows of a 2-D reachable set are not one node range
        assert not isinstance(reach.selectors[1], slice)
        for r in (reach, full_grid_sets(grid, sys.horizon)):
            for c in ([1.0, 0.5, -0.3], [0.0, 0.0, 0.0]):
                for scores, terminal in self.all_scores(compiled, c):
                    self.assert_pinned(compiled, r, scores, terminal)


class TestThresholdTranslation:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 50.0), st.floats(0.0, 15.0), st.floats(-5.0, 5.0))
    def test_diagonal_shift_lowers_w_by_the_shift(self, coarse_fishery, c1, c2, t):
        # W(c + t*1) = W(c) - t: every score is min_i (g_i - c_i)
        sys, grid, controls, compiled, reach = coarse_fishery
        c = np.asarray([c1, c2])
        w0 = rt.solve_value(60.0, c, sys, grid, controls, compiled=compiled, reach=reach)
        w1 = rt.solve_value(60.0, c + t, sys, grid, controls, compiled=compiled,
                            reach=reach)
        assert abs(w1 - (w0 - t)) <= 1e-9


class TestOutOfBoxReads:
    """Images that leave the grid box are read through the clamped table and
    capped by the next stage's best constraint slack at the exact image."""

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_fishery_matches_closed_loop_oracle(self, horizon):
        # harvests that overshoot the stock drive it below zero; a clamped
        # read alone would credit such a stock with the value of stock 0
        sys = build_fishery_system(FisheryParams.default(), horizon=horizon)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 5)
        compiled = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=compiled)
        for c in ([0.0, 40.0], [1.0, 30.0], [0.0, 20.0], [1.0, 20.0], [20.0, 60.0]):
            got = rt.solve_value(60.0, c, sys, grid, controls,
                                 compiled=compiled, reach=reach)
            want = oracle.closedloop_maximin(60.0, c, sys, controls)
            assert got == pytest.approx(want, abs=0.01), c

    def test_recorded_reads_are_exactly_the_images_leaving_the_box(self, fishery3):
        sys, grid, controls, compiled, _ = fishery3
        sa = compiled.stage(0)
        coords = grid.node_coordinates()[:, 0]
        expected = []
        for i, x in enumerate(coords):
            for j, u in enumerate(controls.values):
                for w in sys.scenario_sets[0]:
                    y = sys.step(0, x, u, w)
                    if not 0.0 <= y <= 120.0:
                        expected.append((i, j, y))
        assert expected
        got = zip(sa.out_node.tolist(), sa.out_u.tolist(), sa.out_pts[:, 0].tolist())
        assert sorted(got) == sorted(expected)

    @staticmethod
    def reference_vectors(sys, grid, controls, n):
        """Per (node, control) of stage n, from the system callables alone:
        the raw constraint vector and the cap vector of every image outside
        the box (theta(y) before the terminal stage, else the componentwise
        max over the mesh of g_{n+1}(y, .))."""
        rows = []
        for node in grid.node_coordinates():
            x = float(node[0]) if grid.dim == 1 else node
            for u in controls.values:
                caps = []
                for w in sys.scenario_sets[n]:
                    y = sys.step(n, x, u, w)
                    ya = np.atleast_1d(y)
                    if np.any(ya < grid.lower) or np.any(ya > grid.upper):
                        caps.append(sys.terminal(y) if n == sys.horizon else np.max(
                            [sys.stage_constraint(n + 1, y, v) for v in controls.values],
                            axis=0))
                rows.append((sys.stage_constraint(n, x, u), caps))
        return rows

    @classmethod
    def assert_caps_folded(cls, sys, grid, controls, compiled, n, thresholds):
        rows = cls.reference_vectors(sys, grid, controls, n)
        shape = (grid.n_nodes, len(controls))
        assert sum(len(caps) for _, caps in rows) > 0
        for c in map(np.asarray, thresholds):
            forms = [(compiled.slack_scores(c), lambda g: float(np.min(g - c)))]
            for k in range(len(c)):
                forms.append((compiled.masked_component_scores(c, k),
                              lambda g, k=k: g[k] if np.all(g >= c) else dp.NEG_INF))
                forms.append((compiled.component_scores(k), lambda g, k=k: g[k]))
            for (stage_scores, _), score in forms:
                want = [min([score(g)] + [score(cap) for cap in caps])
                        for g, caps in rows]
                np.testing.assert_array_equal(stage_scores[n],
                                              np.reshape(want, shape))

    def test_caps_fold_next_stage_constraints_into_stage_scores(self, fishery3):
        # the default fishery shares one capped constraint table across all
        # stages: its terminal caps equal the caps of the other stages
        sys, _, _, compiled, _ = fishery3
        assert len({id(compiled.stage(n).g_vals) for n in range(sys.horizon + 1)}) == 1
        sys = build_fishery_system(FisheryParams.default(), horizon=3)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 5)
        compiled = rt.compile_system(sys, grid, controls)
        for n in (0, sys.horizon):
            self.assert_caps_folded(sys, grid, controls, compiled, n,
                                    ([3.0, 5.0], [20.0, 2.0], [0.0, 0.0]))

    def test_caps_fold_on_every_stage_of_the_plane_system(self):
        sys, grid, controls, compiled, _ = plane_problem()
        for n in range(sys.horizon + 1):
            self.assert_caps_folded(sys, grid, controls, compiled, n,
                                    ([1.0, 0.5, -0.3], [0.5, 0.5, -0.5]))

    def test_node_closed_tabular_systems_have_no_out_of_box_reads(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            inst = random_instance(rng)
            for n in range(inst.sys.horizon + 1):
                assert len(inst.compiled.stage(n).out_node) == 0


class TestRobustValueAndMembership:
    def test_value_on_node_is_node_value(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([0.0, 0.0])
        tables, _ = rt.backward_recursion(sys, grid, controls, None, c,
                                          compiled=compiled)
        assert rt.robust_value(60.0, tables) == tables[0].values[120]

    def test_zero_thresholds_sustainable_from_capacity(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        w = rt.solve_value(60.0, [0.0, 0.0], sys, grid, controls,
                           compiled=compiled, reach=reach)
        assert w >= 0
        assert rt.membership(60.0, [0.0, 0.0], sys, grid, controls,
                             compiled=compiled, reach=reach)

    def test_huge_anchors_strictly_negative(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        w = rt.solve_value(60.0, [130.0, 60.0], sys, grid, controls,
                           compiled=compiled, reach=reach)
        assert w < 0
        # cross-check membership against the open-loop oracle on a tiny twin
        tiny_sys = build_fishery_system(FisheryParams.default(), horizon=1)
        tiny_controls = rt.ControlMesh.uniform(0.0, 40.0, 3)
        assert oracle.openloop_maximin(60.0, [130.0, 60.0], tiny_sys,
                                       tiny_controls) < 0

    def test_membership_uses_exact_zero_boundary(self):
        rng = np.random.default_rng(8)
        inst = random_instance(rng, integer_values=True)
        # integer tables and integer thresholds make W an exact integer
        for c1 in range(-5, 6):
            c = np.asarray([float(c1), -5.0])
            w = solve_w(inst, c)
            assert w == int(w)
            member = rt.membership(inst.xi, c, inst.sys, inst.grid, inst.controls,
                                   compiled=inst.compiled, reach=inst.reach)
            assert member == (w >= 0)

    def test_membership_agrees_with_exhaustive_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            inst = random_instance(rng)
            for _ in range(8):
                c = rng.uniform(-6, 6, size=2)
                got = rt.membership(inst.xi, c, inst.sys, inst.grid, inst.controls,
                                    compiled=inst.compiled, reach=inst.reach)
                want = oracle.exhaustive_membership(inst.xi, c, inst.sys,
                                                    inst.controls)
                # closed loop can only beat open loop
                assert got or not want

    def test_inputs_other_than_the_compiled_ones_rejected(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        coarse = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
        with pytest.raises(ValueError, match="grid passed differs"):
            rt.solve_value(60.0, [0.0, 0.0], sys, coarse, controls,
                           compiled=compiled, reach=reach)
        with pytest.raises(ValueError, match="control mesh passed differs"):
            rt.backward_recursion(sys, grid, rt.ControlMesh.uniform(0.0, 40.0, 5),
                                  reach, [0.0, 0.0], compiled=compiled)

    def test_negative_tolerance_rejected(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        with pytest.raises(ValueError, match="tolerance"):
            rt.membership(60.0, [0.0, 0.0], sys, grid, controls, tol=-1.0,
                          compiled=compiled, reach=reach)


class TestUnpopulatedDetection:
    def test_querying_outside_reachable_tube_raises(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        tables, _ = rt.backward_recursion(sys, grid, controls, reach,
                                          [0.0, 0.0], compiled=compiled)
        assert not tables[0].populated[0]
        with pytest.raises(UnpopulatedNodeError):
            rt.interpolate(tables[0], 0.0)

    def test_sweep_detects_missing_next_stage_nodes(self, fishery3):
        sys, grid, controls, compiled, _ = fishery3
        # reachable sets claiming everything at stage 0 but only one node later
        masks = np.zeros((sys.horizon + 2, grid.n_nodes), dtype=bool)
        masks[0] = True
        masks[1:, 0] = True
        broken = rt.ReachableSets(grid=grid, masks=masks)
        with pytest.raises(UnpopulatedNodeError):
            rt.backward_recursion(sys, grid, controls, broken, [0.0, 0.0],
                                  compiled=compiled)
