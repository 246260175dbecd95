import ctypes
import os
import platform
import subprocess
import sys as sys_module
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_thresholds as rt
from robust_thresholds import dp, oracle, pareto
from robust_thresholds.fishery import FisheryParams, build_fishery_system
from robust_thresholds.mesh import UnpopulatedNodeError

from kernel_reference import control_max, slack, stage_kernel
from tabular_tools import (full_grid_sets, plane_problem, product_problem,
                           random_instance, solve_w, stage_slack, terminal_slack)


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
        assert stage_slack(sys, 0, 30.0, 4.0, [20.0, 5.0]) == -1.0

    def test_zero_gap_when_threshold_equals_constraint(self, fishery3):
        sys = fishery3[0]
        assert stage_slack(sys, 1, 30.0, 4.0, [30.0, 4.0]) == 0.0

    def test_single_component_reduces_to_difference(self):
        sys = rt.SystemSpec(
            horizon=0, state_dim=1, threshold_dim=1,
            dynamics=lambda k, x, u, w: x,
            stage_constraints=lambda k, x, u: np.asarray([x - u]),
            terminal_constraint=lambda x: np.asarray([x]),
            control_space=rt.IntervalControlSpace(0.0, 1.0),
            scenario_sets=((0,),),
        )
        assert stage_slack(sys, 0, 5.0, 2.0, [1.0]) == 2.0

    def test_terminal_slack_hand_value(self, fishery3):
        sys = fishery3[0]
        assert terminal_slack(sys, 12.0, [10.0, 3.0]) == 2.0
        assert terminal_slack(sys, 12.0, [12.0, 1.0e6]) == 0.0

    def test_terminal_slack_nonnegative_below_constraint(self, fishery3):
        sys = fishery3[0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 100)
            th = sys.terminal(x)
            c = th - rng.uniform(0, 5, size=2)
            assert terminal_slack(sys, x, c) >= 0


class TestBackwardRecursion:
    def test_single_stage_matches_direct_enumeration(self):
        params = FisheryParams.default()
        sys = build_fishery_system(params, horizon=0)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 21)
        c = np.asarray([10.0, 5.0])
        compiled = rt.compile_system(sys, grid, controls)
        tables = rt.backward_recursion(compiled, full_grid_sets(grid, 0), c)
        # brute force at a grid node, exact dynamics, clamped interpolation
        x = 60.0
        best = -np.inf
        for u in controls.values:
            worst = min(
                rt.interpolate(tables[1], sys.step(0, x, u, w))
                for w in ("a", "b"))
            best = max(best, min(worst, stage_slack(sys, 0, x, u, c)))
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
            base = rt.backward_recursion(inst.compiled, inst.reach, c)
            shifted = rt.backward_recursion(inst.compiled, inst.reach, c + t)
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
            lo = rt.backward_recursion(compiled, reach, c)
            hi = rt.backward_recursion(compiled, reach, c + bump)
            for tl, th in zip(lo, hi):
                rows = np.flatnonzero(tl.populated)
                assert np.all(th.values[rows] <= tl.values[rows] + 1e-12)

    def test_stage_value_bounded_by_best_stage_slack(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([10.0, 5.0])
        tables = rt.backward_recursion(compiled, reach, c)
        coords = grid.node_coordinates()[:, 0]
        for n in range(sys.horizon + 1):
            rows = np.flatnonzero(tables[n].populated)
            for i in rows[:: max(1, len(rows) // 17)]:
                cap = max(stage_slack(sys, n, coords[i], u, c)
                          for u in controls.values)
                assert tables[n].values[i] <= cap + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.floats(0.0, 4.0))
    def test_antitone_in_each_component_on_tabular_systems(self, seed, comp, step):
        # rounding is monotone, and so are min and max: raising one
        # threshold component never raises a table entry, bit for bit
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, integer_values=seed % 2 == 1)
        c = rng.uniform(-6.0, 6.0, size=2)
        raised = c.copy()
        raised[comp] += step
        lo = rt.backward_recursion(inst.compiled, inst.reach, c)
        hi = rt.backward_recursion(inst.compiled, inst.reach, raised)
        for tl, th in zip(lo, hi):
            rows = np.flatnonzero(tl.populated)
            assert np.all(th.values[rows] <= tl.values[rows])
        assert solve_w(inst, raised) <= solve_w(inst, c)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10.0, 130.0), st.floats(-10.0, 60.0), st.integers(0, 1),
           st.floats(0.0, 20.0))
    def test_antitone_along_each_component_on_coarse_fishery(self, coarse_fishery,
                                                             c1, c2, comp, step):
        # the strong chains' level search needs W(c + t e_i) nonincreasing
        # in t bit for bit on multilinear grids too, where the sums carry
        # nonnegative weights and out-of-box reads are capped; a step of 0
        # stands for the adjacent float
        sys, grid, controls, compiled, reach = coarse_fishery
        assert compiled.stage(0).out_pts.size
        c = np.asarray([c1, c2])
        raised = c.copy()
        raised[comp] = max(c[comp] + step, np.nextafter(c[comp], np.inf))
        for sets in (reach, full_grid_sets(grid, sys.horizon)):
            lo = rt.backward_recursion(compiled, sets, c)
            hi = rt.backward_recursion(compiled, sets, raised)
            for tl, th in zip(lo, hi):
                rows = np.flatnonzero(tl.populated)
                assert np.all(th.values[rows] <= tl.values[rows])
            assert rt.robust_value(60.0, hi) <= rt.robust_value(60.0, lo)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-10.0, 130.0), st.floats(-10.0, 60.0))
    def test_policy_replay_reproduces_values(self, coarse_fishery, c1, c2):
        # replaying the argmax policy repeats the optimizing sweep's float
        # operations on the chosen control, so the tables agree bit for bit
        sys, grid, controls, compiled, reach = coarse_fishery
        c = np.asarray([c1, c2])
        tables, policy = dp.sweep_scores(compiled, reach, *compiled.slack_scores(c))
        replayed = dp.sweep_policy(compiled, reach, policy, *compiled.slack_scores(c))
        for tv, tr in zip(tables, replayed):
            # populated on the same nodes, equal bit for bit there
            assert np.array_equal(tr.values, tv.values, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.floats(0.0, 2.0),
           st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    def test_horizon_nesting_on_dominated_systems(self, seed, horizon, margin, c1, c2):
        # a terminal vector at least every stage vector of its node makes
        # V^{N+1}_{N+1} <= theta - c = V^N_{N+1}, and one monotone stage
        # operator carries that down to W, exactly; margin 0 is the tight case
        rng = np.random.default_rng(seed)
        n_states, n_controls = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        stage_values = rng.uniform(-5.0, 5.0, size=(n_states, n_controls, 2))
        if seed % 2:
            stage_values = np.round(stage_values)
        terminal = stage_values.max(axis=1) + margin * rng.uniform(size=(n_states, 2))
        params = rt.TabularParams(
            node_coords=np.arange(n_states, dtype=float),
            transitions=rng.integers(0, n_states, size=(n_states, n_controls, 2)),
            stage_values=stage_values, terminal_values=terminal)
        grid = rt.StateGrid(lower=[0.0], upper=[n_states - 1.0], counts=[n_states])
        controls = rt.ControlMesh(tuple(range(n_controls)))
        xi = float(rng.integers(0, n_states))
        w = []
        for n in (horizon, horizon + 1):
            sys = rt.build_tabular_system(params, horizon=n)
            compiled = rt.compile_system(sys, grid, controls, interp="nearest")
            reach = rt.build_reachable_sets(xi, grid, sys, controls, compiled=compiled)
            w.append(rt.solve_value(xi, [c1, c2], sys, grid, controls,
                                    compiled=compiled, reach=reach))
        assert w[1] <= w[0]

    def test_bitwise_deterministic_across_runs(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([12.0, 6.0])
        t1, p1 = dp.sweep_scores(compiled, reach, *compiled.slack_scores(c))
        t2, p2 = dp.sweep_scores(compiled, reach, *compiled.slack_scores(c))
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(p1, p2)

    def test_reachable_and_full_grid_agree_on_reachable_nodes(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([8.0, 3.0])
        part = rt.backward_recursion(compiled, reach, c)
        full = rt.backward_recursion(compiled, full_grid_sets(grid, sys.horizon), c)
        for tp, tf in zip(part, full):
            rows = np.flatnonzero(tp.populated)
            np.testing.assert_array_equal(tp.values[rows], tf.values[rows])


def _reference_stage(V, ci, cw, scores):
    """Plain fancy-indexed gathers summed corner by corner, then the
    minimum over scenarios in scenario order and with the scores, each an
    ``np.minimum``."""
    acc = V[ci[0]] * cw[0]
    for j in range(1, len(ci)):
        acc += V[ci[j]] * cw[j]
    q = acc[..., 0]
    for s in range(1, acc.shape[-1]):
        q = np.minimum(q, acc[..., s])
    return np.minimum(q, scores)


def _rows(reach, n, n_nodes):
    return np.arange(n_nodes) if reach.full else reach.indices(n)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: unlike ``np.array_equal``, this tells
    -0.0 from 0.0 and one NaN pattern from another."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        cw = np.moveaxis(sa.corner_w, -1, 0)
        q = _reference_stage(V, sa.corner_idx[:, rows], cw[:, rows],
                             stage_scores[n][rows])
        V = np.full(n_nodes, np.nan)
        V[rows], choices[n, rows] = control_max(q)
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
        cw = np.moveaxis(sa.corner_w, -1, 0)
        q = _reference_stage(V, sa.corner_idx[:, rows, p], cw[:, rows, p],
                             stage_scores[n][rows, p])
        V = np.full(n_nodes, np.nan)
        V[rows] = q
        values.append(V)
    return values[::-1]


class TestStageKernelPinned:
    """The sweeps equal a plain reference recursion bit for bit: same float
    operations, same order, with the minima and the control maximum of the
    kernel's stated rules."""

    @staticmethod
    def assert_pinned(compiled, reach, stage_scores, terminal):
        tables, policy = dp.sweep_scores(compiled, reach, stage_scores, terminal)
        values, choices = _reference_sweep(compiled, reach, stage_scores, terminal)
        for t, v in zip(tables, values):
            assert _same_bytes(t.values, v)
        assert _same_bytes(policy, choices)
        replayed = dp.sweep_policy(compiled, reach, policy, stage_scores, terminal)
        ref = _reference_policy_sweep(compiled, reach, choices, stage_scores, terminal)
        for t, v in zip(replayed, ref):
            assert _same_bytes(t.values, v)

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

    @pytest.mark.parametrize("counts", [(2,), (2, 2)])
    def test_two_node_grids(self, counts):
        # the smallest grids, where base + offsets[-1] is the last node
        if len(counts) == 1:
            sys = build_fishery_system(FisheryParams.default(), horizon=3)
            grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=counts)
            controls = rt.ControlMesh.uniform(0.0, 40.0, 5)
            compiled = rt.compile_system(sys, grid, controls)
            reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=compiled)
            thresholds = ([10.0, 5.0], [0.0, 0.0], [30.0, 7.0])
        else:
            sys, grid, controls, compiled, reach = plane_problem(counts)
            thresholds = ([1.0, 0.5, -0.3], [0.0, 0.0, 0.0])
        nodes = grid.node_coordinates()
        for k in range(sys.horizon + 1):
            sa = compiled.stage(k)
            assert sa.base.max() + sa.offsets[-1] == grid.n_nodes - 1
            # base, offsets and weights give the corners of StateGrid.locate
            for j, u in enumerate(controls.values):
                for s, w in enumerate(sys.scenario_sets[k]):
                    images = [sys.step(k, x[0] if grid.dim == 1 else x, u, w)
                              for x in nodes]
                    idx, wts = grid.locate(np.asarray(images, dtype=float),
                                           "multilinear")
                    assert np.array_equal(sa.corner_idx[:, :, j, s], idx.T)
                    assert np.array_equal(sa.corner_w[:, j, s], wts)
        for r in (reach, full_grid_sets(grid, sys.horizon)):
            for c in thresholds:
                for scores, terminal in self.all_scores(compiled, c):
                    self.assert_pinned(compiled, r, scores, terminal)


class TestFixedPointExit:
    """An optimizing sweep over one shared stage operator stops at the first
    stage n >= 1 with V_n == V_{n+1} bit for bit on R_n, and fills every
    lower stage from V_n; only when the reachable sets are nested and
    closed under the compiled system.  The exit is the empty case of the
    row window (``TestRowWindow``): no node of R_n changed, so no row of
    any lower stage has a changed node in its support.  The tables and
    policies are those of the stage-by-stage loop."""

    @staticmethod
    def kernel_calls(monkeypatch) -> list:
        calls = []
        kernel = dp._stage_kernel

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(dp, "_stage_kernel", counted)
        return calls

    @staticmethod
    def assert_reference(compiled, reach, scores, terminal, tables, policy):
        values, choices = _reference_sweep(compiled, reach, scores, terminal)
        for n, (t, v) in enumerate(zip(tables, values)):
            assert _same_bytes(t.values, v)
            assert np.array_equal(t.populated, reach.masks[n])
        assert policy.dtype == np.int32
        assert _same_bytes(policy, choices)

    @staticmethod
    def tabular(stage_values, terminal_values, transitions, horizon):
        params = rt.TabularParams(node_coords=np.arange(len(terminal_values), dtype=float),
                                  transitions=transitions, stage_values=stage_values,
                                  terminal_values=terminal_values)
        sys = rt.build_tabular_system(params, horizon=horizon)
        grid = rt.StateGrid(lower=[0.0], upper=[len(terminal_values) - 1.0],
                            counts=[len(terminal_values)])
        controls = rt.ControlMesh(tuple(range(stage_values.shape[-2])))
        return sys, grid, controls, rt.compile_system(sys, grid, controls, interp="nearest")

    def test_default_fishery_stops_early(self, monkeypatch):
        params = FisheryParams.default()
        sys = build_fishery_system(params, horizon=50)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[600])
        controls = rt.ControlMesh.uniform(0.0, params.u_max, 200)
        compiled = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=compiled)
        scores, terminal = compiled.slack_scores(np.asarray([0.0, 60.0]))
        calls = self.kernel_calls(monkeypatch)
        tables, policy = dp.sweep_scores(compiled, reach, scores, terminal)
        assert len(calls) < sys.horizon + 1
        self.assert_reference(compiled, reach, scores, terminal, tables, policy)

    @pytest.mark.parametrize("full_grid", [False, True])
    def test_time_varying_system_runs_every_stage(self, monkeypatch, full_grid):
        # stage N maps every node to itself and no stage score binds, so
        # V_N == V_{N+1}; stage N-1 moves nodes through its own table
        rng = np.random.default_rng(31)
        n_states, n_controls, horizon = 6, 3, 4
        transitions = rng.integers(0, n_states,
                                   size=(horizon + 1, n_states, n_controls, 2))
        transitions[horizon] = np.arange(n_states)[:, None, None]
        sys, grid, controls, compiled = self.tabular(
            np.full((n_states, n_controls, 2), 10.0),
            rng.uniform(-5.0, 5.0, size=(n_states, 2)), transitions, horizon)
        assert compiled.stage(0) is not compiled.stage(1)
        reach = (full_grid_sets(grid, horizon) if full_grid else
                 rt.build_reachable_sets(0.0, grid, sys, controls, compiled=compiled))
        scores, terminal = compiled.slack_scores(np.zeros(2))
        # one score array for every stage: only the stage tables differ
        for stage_scores in (scores, [scores[0]] * (horizon + 1)):
            calls = self.kernel_calls(monkeypatch)
            tables, policy = dp.sweep_scores(compiled, reach, stage_scores, terminal)
            assert len(calls) == horizon + 1
            rows = reach.masks[horizon]
            assert np.array_equal(tables[horizon].values[rows],
                                  tables[horizon + 1].values[rows])
            self.assert_reference(compiled, reach, stage_scores, terminal, tables, policy)

    def test_hand_built_sets_that_are_not_closed_still_raise(self, monkeypatch):
        # every node steps to the next one and V is 1 at every stage, so a
        # sweep on the full grid stops at stage N
        n_states, horizon = 5, 3
        transitions = np.broadcast_to(
            ((np.arange(n_states) + 1) % n_states)[:, None, None], (n_states, 2, 2))
        sys, grid, controls, compiled = self.tabular(
            np.full((n_states, 2, 2), 2.0), np.ones((n_states, 2)), transitions, horizon)
        calls = self.kernel_calls(monkeypatch)
        rt.backward_recursion(compiled, full_grid_sets(grid, horizon), [0.0, 0.0])
        assert len(calls) == 1
        # nested, but stage 1 reads node 1 from R_2 = {0}
        masks = np.ones((horizon + 2, n_states), dtype=bool)
        masks[:horizon, 1:] = False
        hand_built = rt.ReachableSets(grid=grid, masks=masks)
        assert hand_built.nested == horizon + 2
        with pytest.raises(UnpopulatedNodeError):
            rt.backward_recursion(compiled, hand_built, [0.0, 0.0])

    def test_hand_built_full_sets_take_the_exit(self, coarse_fishery, monkeypatch):
        # sets marking every node are closed under any compiled system, so
        # sets built by hand stop early too
        sys, grid, controls, compiled, _ = coarse_fishery
        masks = np.ones((sys.horizon + 2, grid.n_nodes), dtype=bool)
        full = rt.ReachableSets(grid=grid, masks=masks)
        assert full.closed_under is None
        scores, terminal = compiled.slack_scores(np.asarray([0.0, 60.0]))
        calls = self.kernel_calls(monkeypatch)
        tables, policy = dp.sweep_scores(compiled, full, scores, terminal)
        assert len(calls) < sys.horizon + 1
        self.assert_reference(compiled, full, scores, terminal, tables, policy)


def _banded_tabular(rng, interp):
    """A time-invariant node-closed system whose images lie at most a few
    nodes from their node, with small integer tables rich in zeros of both
    signs, compiled with ``interp``: multilinear puts a corner of weight
    exactly 0 beside every image."""
    def signed(rng, shape):
        # 0 * -1.0 is -0.0
        return rng.integers(-2, 3, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    n_states, n_controls = int(rng.integers(2, 31)), int(rng.integers(1, 4))
    band = int(rng.integers(1, 4))
    steps = rng.integers(-band, band + 1, size=(n_states, n_controls, 2))
    params = rt.TabularParams(
        node_coords=np.arange(n_states, dtype=float),
        transitions=np.clip(np.arange(n_states)[:, None, None] + steps, 0, n_states - 1),
        stage_values=signed(rng, (n_states, n_controls, 2)),
        terminal_values=signed(rng, (n_states, 2)))
    sys = rt.build_tabular_system(params, horizon=int(rng.integers(1, 9)))
    grid = rt.StateGrid(lower=[0.0], upper=[n_states - 1.0], counts=[n_states])
    controls = rt.ControlMesh(tuple(range(n_controls)))
    compiled = rt.compile_system(sys, grid, controls, interp=interp)
    reach = rt.build_reachable_sets(float(rng.integers(0, n_states)), grid, sys,
                                    controls, compiled=compiled)
    return sys, grid, compiled, reach


def _zero_weight_corner_system():
    """The pinned system of ``TestRowWindow``: node 0 maps to itself, read
    multilinearly as 1 * V(0) + 0 * V(1), with terminal values -0.0, -1,
    -1, 1 and stage values 5 on nodes 0..3; (compiled, reach) from 0."""
    terminal = np.repeat([[-0.0], [-1.0], [-1.0], [1.0]], 2, axis=1)
    params = rt.TabularParams(
        node_coords=np.arange(4.0),
        transitions=np.repeat([[[0]], [[2]], [[3]], [[3]]], 2, axis=2),
        stage_values=np.full((4, 1, 2), 5.0), terminal_values=terminal)
    sys = rt.build_tabular_system(params, horizon=3)
    grid = rt.StateGrid(lower=[0.0], upper=[3.0], counts=[4])
    controls = rt.ControlMesh((0,))
    compiled = rt.compile_system(sys, grid, controls)
    return compiled, rt.build_reachable_sets(0.0, grid, sys, controls, compiled=compiled)


def _rows_swept(monkeypatch) -> list:
    """The rows of each later ``dp._stage_kernel`` call, appended in order."""
    swept = []
    kernel = dp._stage_kernel

    def counted(stage, n):
        swept.append(stage.r1 - stage.r0)
        return kernel(stage, n)

    monkeypatch.setattr(dp, "_stage_kernel", counted)
    return swept


class TestRowWindow:
    """A stage that repeats stage n+1's operator runs the kernel only on
    the hull of the rows whose support holds a node where V_{n+1} differs
    from V_{n+2}; every other row copies stage n+1.  Tables (signs of zero
    included), populated nodes and policies stay those of the
    stage-by-stage reference."""

    @staticmethod
    def assert_bitwise_reference(compiled, reach, scores, terminal):
        tables, policy = dp.sweep_scores(compiled, reach, scores, terminal)
        values, choices = _reference_sweep(compiled, reach, scores, terminal)
        for n, (t, v) in enumerate(zip(tables, values)):
            assert _same_bytes(t.values, v)
            assert np.array_equal(t.populated, reach.masks[n])
        assert np.array_equal(policy, choices)

    def assert_every_score(self, compiled, sets, c):
        for scores in [compiled.slack_scores(c)] + [
                compiled.masked_component_scores(c, comp) for comp in range(len(c))]:
            self.assert_bitwise_reference(compiled, sets, *scores)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["nearest", "multilinear"]),
           st.lists(st.integers(-2, 2), min_size=2, max_size=2))
    def test_banded_tabular_systems_match_the_reference(self, seed, interp, c):
        sys, grid, compiled, reach = _banded_tabular(np.random.default_rng(seed), interp)
        for sets in (reach, full_grid_sets(grid, sys.horizon)):
            self.assert_every_score(compiled, sets, np.asarray(c, dtype=float))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-10.0, 130.0), st.floats(-10.0, 60.0))
    def test_coarse_fishery_matches_the_reference(self, coarse_fishery, c1, c2):
        sys, grid, controls, compiled, reach = coarse_fishery
        for sets in (reach, full_grid_sets(grid, sys.horizon)):
            self.assert_every_score(compiled, sets, np.asarray([c1, c2]))

    @pytest.fixture(scope="class")
    def default_fishery(self):
        params = FisheryParams.default()
        sys = build_fishery_system(params, horizon=50)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[600])
        controls = rt.ControlMesh.uniform(0.0, params.u_max, 200)
        compiled = rt.compile_system(sys, grid, controls)
        return sys, compiled, rt.build_reachable_sets(60.0, grid, sys, controls,
                                                      compiled=compiled)

    def test_default_fishery_sweeps_a_sub_slice(self, default_fishery, monkeypatch):
        sys, compiled, reach = default_fishery
        scores, terminal = compiled.slack_scores(np.asarray([60.0, 60.0]))
        swept = _rows_swept(monkeypatch)
        self.assert_bitwise_reference(compiled, reach, scores, terminal)
        # one call per stage from N down, none of them empty
        reachable = reach.masks[::-1][1:len(swept) + 1].sum(axis=1)
        assert 0 < min(swept) and np.all(swept <= reachable)
        assert np.any(swept < reachable)

    def test_hand_built_full_sets_sweep_a_window(self, coarse_fishery, monkeypatch):
        # an all-true set built by hand counts as closed: on the coarse
        # fishery and on a banded tabular system its sweep equals the
        # reference bit for bit, on fewer kernel rows than a full loop
        swept = _rows_swept(monkeypatch)
        fishery = tuple(coarse_fishery[i] for i in (0, 1, 3))
        banded = _banded_tabular(np.random.default_rng(0), "multilinear")[:3]
        for (sys, grid, compiled), c in ((fishery, [30.0, 7.0]), (banded, [0.0, 0.0])):
            masks = np.ones((sys.horizon + 2, grid.n_nodes), dtype=bool)
            full = rt.ReachableSets(grid=grid, masks=masks)
            swept.clear()
            self.assert_bitwise_reference(compiled, full,
                                          *compiled.slack_scores(np.asarray(c)))
            assert 0 < sum(swept) < (sys.horizon + 1) * grid.n_nodes

    def test_a_zero_weight_corner_is_in_the_support(self):
        # node 0 maps to itself, a multilinear read 1 * V(0) + 0 * V(1);
        # V(0) is -0.0 and V(1) goes -1, -1, 1 from stage 4 down, so stage
        # 1 reads a changed node only through the weight-0 corner, and
        # -0.0 + 0 * 1 is 0.0 where stage 2 had -0.0 + 0 * -1 = -0.0
        compiled, reach = _zero_weight_corner_system()
        scores, terminal_score = compiled.slack_scores(np.zeros(2))
        tables, _ = dp.sweep_scores(compiled, reach, scores, terminal_score)
        assert [float(t.values[0]) for t in tables[1:]] == [0.0, -0.0, -0.0, -0.0]
        assert [np.signbit(t.values[0]) for t in tables[1:]] == [False, True, True, True]
        self.assert_bitwise_reference(compiled, reach, scores, terminal_score)

    def test_empty_window_without_the_exit(self, default_fishery, monkeypatch):
        # stages 0 and 1 get score arrays of their own, equal to the rest:
        # once nothing changes, the stages above them copy their rows and
        # skip the kernel, but the loop cannot stop there
        sys, compiled, reach = default_fishery
        scores, terminal = compiled.slack_scores(np.asarray([0.0, 60.0]))
        scores = [scores[0].copy(), scores[1].copy()] + scores[2:]
        calls = TestFixedPointExit.kernel_calls(monkeypatch)
        self.assert_bitwise_reference(compiled, reach, scores, terminal)
        assert len(calls) < sys.horizon - 1


class TestThresholdSequence:
    """``dp.solve_batch`` solves a run of thresholds K lanes per sweep, as
    ``weak_front`` solves its ray mesh.  Every lane equals its own
    ``backward_recursion`` byte for byte, signs of zero and NaN patterns
    included, and ``dp.batch_values`` reads each lane's W as
    ``robust_value`` does."""

    @staticmethod
    def assert_sequence(compiled, runs, xi=None, sizes=(1, 2, 3, 4, 5, 7, 9)):
        """Solve each (reach, thresholds) run of ``runs`` in consecutive
        batches of every size in ``sizes``; each lane against an
        independent ``backward_recursion``, and its W at ``xi`` if given."""
        for reach, thresholds in runs:
            thresholds = np.asarray(thresholds, dtype=float)
            reference = [rt.backward_recursion(compiled, reach, c) for c in thresholds]
            for size in sizes:
                for i in range(0, len(thresholds), size):
                    T = dp.solve_batch(compiled, reach, thresholds[i:i + size])
                    assert T.shape == (compiled.sys.horizon + 2, compiled.grid.n_nodes,
                                       len(thresholds[i:i + size]))
                    for k, tables in enumerate(reference[i:i + size]):
                        assert len(tables) == len(T)
                        for n, t in enumerate(tables):
                            assert _same_bytes(T[n, :, k].copy(), t.values), (
                                thresholds[i + k], n)
                    if xi is not None:
                        got = dp.batch_values(xi, compiled, T)
                        want = [rt.robust_value(xi, t) for t in reference[i:i + size]]
                        assert _same_bytes(got, np.asarray(want))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["nearest", "multilinear"]),
           st.lists(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                             min_size=2, max_size=2), min_size=2, max_size=6))
    def test_banded_tabular_systems(self, seed, interp, thresholds):
        sys, grid, compiled, reach = _banded_tabular(np.random.default_rng(seed), interp)
        # on the reachable sets, then on sets marking every node
        self.assert_sequence(compiled, [(reach, thresholds),
                                        (full_grid_sets(grid, sys.horizon), thresholds)],
                             sizes=(len(thresholds), 4))

    def test_coarse_fishery_along_both_axis_sweeps(self, coarse_fishery):
        sys, grid, controls, compiled, reach = coarse_fishery
        mesh = rt.threshold_ray_mesh(2.5, 24, [130.0, 60.0])
        for sets in (reach, full_grid_sets(grid, sys.horizon)):
            values = np.asarray([rt.robust_value(60.0, rt.backward_recursion(
                compiled, sets, c)) for c in mesh.points])
            assert np.all(values < 0)
            # each axis sweep, then the revalidation points of both, in order
            self.assert_sequence(compiled, [(sets, mesh.points[list(members)])
                                            for _, members in mesh.sweeps], xi=60.0,
                                 sizes=(4, 9))
            self.assert_sequence(compiled, [(sets, mesh.points + values[:, None])],
                                 xi=60.0, sizes=(4,))

    def test_sweeps_fewer_rows_than_independent_solves(self, coarse_fishery, monkeypatch):
        # a batch makes one kernel call per swept stage, whatever its K, so
        # it makes fewer calls than its lanes solved one by one
        sys, grid, controls, compiled, reach = coarse_fishery
        thresholds = rt.threshold_ray_mesh(2.5, 24, [130.0, 60.0]).points
        calls = TestFixedPointExit.kernel_calls(monkeypatch)
        for c in thresholds:
            rt.backward_recursion(compiled, reach, c)
        independent, calls[:] = len(calls), []
        batched = 0
        for i in range(0, len(thresholds), 4):
            dp.solve_batch(compiled, reach, thresholds[i:i + 4])
            assert 0 < len(calls) <= sys.horizon + 1
            batched, calls[:] = batched + len(calls), []
        assert 0 < batched < independent

    def test_the_pinned_zero_weight_corner_system(self):
        # stage 1 of node 0 reads V(1) only through a weight-0 corner, so a
        # change of V(1)'s sign between thresholds flips its sign of zero
        compiled, reach = _zero_weight_corner_system()
        thresholds = [[0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [2.0, 0.0], [0.0, 0.0],
                      [-1.0, 1.0], [1.0, 1.0], [-0.0, 0.0], [0.0, 0.0]]
        self.assert_sequence(compiled, [(reach, thresholds)], xi=0.0)

    def test_a_solve_after_one_that_raised_is_exact(self):
        # every node steps to the next one; stage slacks min(10 - c1, 2 - c2)
        # and terminal slacks min(5 - c1, 100 - c2): c2 moves the stage
        # scores only.  On sets that are not closed a batch raises at stage
        # 1; it leaves nothing behind that a later batch could read.
        n_states, horizon = 5, 3
        transitions = np.broadcast_to(
            ((np.arange(n_states) + 1) % n_states)[:, None, None], (n_states, 2, 2))
        stage_values = np.broadcast_to([10.0, 2.0], (n_states, 2, 2)).copy()
        terminal_values = np.broadcast_to([5.0, 100.0], (n_states, 2)).copy()
        sys, grid, controls, compiled = TestFixedPointExit.tabular(
            stage_values, terminal_values, transitions, horizon)
        masks = np.ones((horizon + 2, n_states), dtype=bool)
        masks[:horizon, 1:] = False
        not_closed = rt.ReachableSets(grid=grid, masks=masks)
        full = full_grid_sets(grid, horizon)
        self.assert_sequence(compiled, [(full, [[0.0, 0.0]])])
        for thresholds in ([[0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 2.0]]):
            with pytest.raises(UnpopulatedNodeError):
                dp.solve_batch(compiled, not_closed, thresholds)
        self.assert_sequence(compiled, [(full, [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])])


class TestProductSystem:
    """A 2-D node-to-node system under nearest-node interpolation: the
    one-corner gather on a 2-D grid, with no discretization error."""

    def test_matches_closed_loop_oracle_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            sys, grid, controls, compiled, reach, xi = product_problem(rng)
            assert compiled.stage(0).corner_w.shape[-1] == 1
            full = full_grid_sets(grid, sys.horizon)
            for c in rng.uniform(-6, 6, size=(4, 2)):
                w = rt.solve_value(xi, c, sys, grid, controls, compiled=compiled,
                                   reach=reach)
                assert w - oracle.closedloop_maximin(xi, c, sys, controls) == 0.0
                assert rt.solve_value(xi, c, sys, grid, controls, compiled=compiled,
                                      reach=full) == w
                TestStageKernelPinned.assert_pinned(compiled, reach,
                                                    *compiled.slack_scores(c))


class TestKernelScratch:
    """The compiled kernel keeps no state between calls: a sweep's results
    do not depend on the sweeps run before it, on any thread, and threads
    solving on one compiled system at once, the kernel running without the
    interpreter lock, get the tables of serial solves."""

    @staticmethod
    def fishery():
        sys = build_fishery_system(FisheryParams.default(), horizon=8)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 41)
        compiled = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=compiled)
        return sys, grid, controls, compiled, reach

    def test_policy_sweep_then_w_sweep_grows_the_buffer(self):
        # a one-control policy sweep, then a full W sweep and a batch, on a
        # fresh compiled system, against the same sweeps on another one
        sys, grid, controls, ref, reach = self.fishery()
        scores, terminal = ref.slack_scores(np.asarray([10.0, 5.0]))
        want, policy = dp.sweep_scores(ref, reach, scores, terminal)
        want_replay = dp.sweep_policy(ref, reach, policy, scores, terminal)
        compiled = rt.compile_system(sys, grid, controls)
        replay = dp.sweep_policy(compiled, reach, policy, scores, terminal)
        got, got_policy = dp.sweep_scores(compiled, reach, scores, terminal)
        batch = dp.solve_batch(compiled, reach, [[10.0, 5.0], [0.0, 0.0]])
        again = dp.sweep_policy(compiled, reach, policy, scores, terminal)
        assert _same_bytes(got_policy, policy)
        for tables, ref_tables in ((got, want), (replay, want_replay),
                                   (again, want_replay)):
            for t, r in zip(tables, ref_tables):
                assert _same_bytes(t.values, r.values)
        for n, t in enumerate(want):
            assert _same_bytes(batch[n, :, 0].copy(), t.values)

    def test_threads_on_one_compiled_system(self):
        # more threads than cores, switching often: state kept between
        # kernel calls would mix the threads' stages
        sys, grid, controls, compiled, reach = self.fishery()
        thresholds = [np.asarray([a, b]) for a in (0.0, 10.0, 25.0, 40.0)
                      for b in (1.0, 6.0)]
        serial_compiled = rt.compile_system(sys, grid, controls)
        want = [dp.sweep_scores(serial_compiled, reach, *serial_compiled.slack_scores(c))
                for c in thresholds]
        n_threads = 4
        barrier = threading.Barrier(n_threads, timeout=60)

        def solve_all(cs):
            barrier.wait()
            out = [dp.sweep_scores(compiled, reach, *compiled.slack_scores(c))
                   for c in cs]
            return out, dp.solve_batch(compiled, reach, cs)

        interval = sys_module.getswitchinterval()
        sys_module.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=n_threads) as ex:
                parts = list(ex.map(solve_all, (thresholds[i::n_threads]
                                                for i in range(n_threads)),
                                    timeout=120))
        finally:
            sys_module.setswitchinterval(interval)
        got, batches = [None] * len(thresholds), [None] * len(thresholds)
        for i, (out, batch) in enumerate(parts):
            got[i::n_threads] = out
            batches[i::n_threads] = [batch[:, :, k] for k in range(batch.shape[2])]
        for (tables, policy), (ref_tables, ref_policy), lane in zip(got, want, batches):
            assert _same_bytes(policy, ref_policy)
            for n, (t, r) in enumerate(zip(tables, ref_tables)):
                assert _same_bytes(t.values, r.values)
                assert _same_bytes(lane[n].copy(), r.values)


class TestCompiledKernel:
    """``dp._stage_kernel`` equals the numpy reference of
    ``kernel_reference`` byte for byte on random stages: lane counts that
    fill the four-lane vector and tail counts that run lane by lane,
    nearest and multilinear corners, signed zeros and control ties, shared
    scores and per-lane slacks, policy rows, slices and index arrays of
    rows.  A touched NaN node raises ``UnpopulatedNodeError``."""

    VALUES = (-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0)

    @staticmethod
    def run_kernel(V, base, cw, offsets, scores, g, c, fixed, rows, want_choices):
        """(values, choices) the kernel writes into arrays prefilled with 7.0
        and -1; the arrays passed stay referenced until it returns."""
        n_nodes, K = V.shape
        out = np.full((n_nodes, K), 7.0)
        choices = np.full((n_nodes, K), -1, dtype=np.int32) if want_choices else None
        keep = [a for a in (V, base, cw, offsets, scores, g, c, fixed, rows, out, choices)
                if a is not None]
        stage = dp._Stage(
            V=V.ctypes.data, out=out.ctypes.data, base=base.ctypes.data,
            offsets=offsets.ctypes.data, n_u=base.shape[1], n_w=base.shape[2],
            C=len(offsets), K=K, m=g.shape[-1])
        for name, a in (("choices", choices), ("cw", cw), ("scores", scores), ("g", g),
                        ("c", c), ("fixed", fixed)):
            if a is not None:
                setattr(stage, name, a.ctypes.data)
        if isinstance(rows, slice):
            stage.r0, stage.r1 = rows.start, rows.stop
        else:
            stage.rows, stage.r0, stage.r1 = rows.ctypes.data, 0, len(rows)
        try:
            dp._stage_kernel(stage, 0)
        finally:
            del keep
        return out, choices

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4, 5, 7, 9]),
           st.sampled_from(["nearest", "multilinear", "bilinear"]), st.booleans(),
           st.booleans(), st.booleans(), st.booleans())
    def test_equals_the_numpy_reference(self, seed, K, interp, shared, policy, sliced, nan):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 5))
        offsets = {"nearest": [0], "multilinear": [0, 1],
                   "bilinear": [0, 1, width, width + 1]}[interp]
        offsets = np.asarray(offsets, dtype=np.intp)
        n_nodes = int(rng.integers(offsets[-1] + 1, offsets[-1] + 12))
        n_u, n_w, m = (int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                       int(rng.integers(1, 4)))

        def signed(*shape):
            return rng.choice(self.VALUES, size=shape)

        V = signed(n_nodes, K)
        if nan:
            V[rng.integers(n_nodes), rng.integers(K)] = np.nan
        base = rng.integers(0, n_nodes - offsets[-1], size=(n_nodes, n_u, n_w)).astype(np.intp)
        cw = (rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_nodes, n_u, n_w, len(offsets)))
              if len(offsets) > 1 else None)
        g, c = signed(n_nodes, n_u, m), np.ascontiguousarray(signed(m, K))
        scores = signed(n_nodes, n_u) if shared else None
        fixed = rng.integers(0, n_u, size=n_nodes).astype(np.int32) if policy else None
        r0 = int(rng.integers(0, n_nodes))
        r1 = int(rng.integers(r0, n_nodes + 1))
        rows = (slice(r0, r1) if sliced else np.sort(rng.choice(
            n_nodes, size=int(rng.integers(0, n_nodes + 1)), replace=False)).astype(np.intp))
        idx = np.arange(n_nodes)[rows]

        want = np.full((n_nodes, K), 7.0)
        want_choices = np.full((n_nodes, K), -1, dtype=np.int32)
        cells = (idx,) if fixed is None else (idx[:, None], fixed[idx][:, None])
        for k in range(K):
            lane_scores = scores[cells] if shared else slack(g[cells], c[:, k])
            q = stage_kernel(V[:, k].copy(), base[cells], None if cw is None else cw[cells],
                             offsets, lane_scores)
            want[idx, k], arg = control_max(q)
            want_choices[idx, k] = arg if fixed is None else fixed[idx]
        if np.isnan(want).any():
            with pytest.raises(UnpopulatedNodeError, match="unpopulated"):
                self.run_kernel(V, base, cw, offsets, scores, g, c, fixed, rows, True)
            return
        got, got_choices = self.run_kernel(V, base, cw, offsets, scores, g, c, fixed, rows,
                                           True)
        assert _same_bytes(got, want)
        assert _same_bytes(got_choices, want_choices)

    def test_a_policy_gap_raises(self):
        V = np.zeros((3, 1))
        base = np.zeros((3, 2, 1), dtype=np.intp)
        fixed = np.asarray([0, -1, 2], dtype=np.int32)
        args = (V, base, None, np.zeros(1, dtype=np.intp), np.zeros((3, 2)),
                np.zeros((3, 2, 1)), np.zeros((1, 1)))
        for rows in (slice(1, 2), slice(2, 3), np.asarray([0, 2], dtype=np.intp)):
            with pytest.raises(UnpopulatedNodeError, match="policy gap"):
                self.run_kernel(*args, fixed, rows, False)
        got, _ = self.run_kernel(*args, fixed, slice(0, 1), False)
        assert got.tolist() == [[0.0], [7.0], [7.0]]


class TestKernelBuild:
    """The kernel is compiled on first import into a cache keyed by its
    source, compiler command and machine, and loaded from there after."""

    def test_a_clean_cache_builds_the_library(self, tmp_path):
        cache = tmp_path / "cache"
        path = dp._build_kernel(cache)
        assert path.parent == cache and path.suffix == ".so"
        assert os.listdir(cache) == [path.name]  # no temporary file is left
        fn = dp._load_kernel(cache)
        assert fn.restype is ctypes.c_int

    def test_a_second_import_reuses_the_cached_library(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        path = dp._build_kernel(cache)
        mtime = path.stat().st_mtime_ns

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a cache hit")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert dp._build_kernel(cache) == path
        dp._load_kernel(cache)
        assert path.stat().st_mtime_ns == mtime
        # the package's own cache is warm here: importing it in a fresh
        # interpreter loads the library without importing subprocess
        monkeypatch.undo()
        src = str(Path(dp.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys_module.executable, "-c",
             "import sys, robust_thresholds; print('subprocess' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize("compiler", ["no-such-compiler-for-the-kernel", "false"])
    def test_a_failing_or_missing_compiler_raises_import_error(self, tmp_path,
                                                               monkeypatch, compiler):
        # a missing program, and one that runs and fails
        monkeypatch.setattr(dp, "CC", compiler)
        cache = tmp_path / "cache"
        with pytest.raises(ImportError, match=f"^building the stage kernel failed: "
                                              f"{compiler} -O3 "):
            dp._build_kernel(cache)
        assert os.listdir(cache) == []

    def test_the_flags_keep_ieee_semantics(self):
        assert "-ffp-contract=off" in dp.CFLAGS
        assert not {"-ffast-math", "-Ofast", "-march=native"} & set(dp.CFLAGS)

    def test_target_clones_only_on_x86_64(self):
        # without its #include lines: the system headers of another
        # machine are not installed here
        source = "".join(line for line in dp._SOURCE.read_text().splitlines(True)
                         if not line.startswith("#include"))

        def preprocessed(*flags):
            proc = subprocess.run([dp.CC, "-E", "-P", *flags, "-x", "c", "-"], input=source,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        assert "target_clones" not in preprocessed("-U__x86_64__")
        assert "__builtin_cpu_supports" not in preprocessed("-U__x86_64__")
        if platform.machine() == "x86_64":
            assert "target_clones" in preprocessed()


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
        # sorted by node; the (node, control) pairing is checked by
        # ``assert_caps_folded``
        assert sa.out_pts[:, 0].tolist() == [y for _, _, y in expected]

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
    def assert_caps_folded(cls, sys, grid, controls, compiled, n, thresholds,
                           capped=True):
        rows = cls.reference_vectors(sys, grid, controls, n)
        shape = (grid.n_nodes, len(controls))
        assert (sum(len(caps) for _, caps in rows) > 0) == capped
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
                assert len(inst.compiled.stage(n).out_pts) == 0
            # with no caps the scores are the definitional ones; thresholds
            # equal to constraint values make components tie with c
            g, theta = inst.params.stage_values, inst.params.terminal_values
            i, u = rng.integers(len(theta)), rng.integers(g.shape[1])
            thresholds = (g[i, u], theta[i], [g[i, u, 0], theta[-1 - i, 1]])
            for n in (0, inst.sys.horizon):
                self.assert_caps_folded(inst.sys, inst.grid, inst.controls,
                                        inst.compiled, n, thresholds, capped=False)


class TestRobustValueAndMembership:
    def test_value_on_node_is_node_value(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        c = np.asarray([0.0, 0.0])
        tables = rt.backward_recursion(compiled, full_grid_sets(grid, sys.horizon), c)
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
        # every entry point that takes (sys, grid, controls) besides the
        # compiled system checks them on its first solve;
        # build_reachable_sets is covered in test_mesh.py
        sys, grid, controls, compiled, reach = fishery3
        coarse = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
        few = rt.ControlMesh.uniform(0.0, 40.0, 5)
        mesh = rt.threshold_ray_mesh(10.0, 2, [130.0, 60.0])
        built = {"compiled": compiled, "reach": reach}
        cases = [
            ("grid", lambda: rt.solve_value(60.0, [0.0, 0.0], sys, coarse, controls,
                                            **built)),
            ("control mesh", lambda: rt.membership(60.0, [0.0, 0.0], sys, grid, few,
                                                   **built)),
            ("grid", lambda: pareto.weak_front(60.0, mesh, sys, coarse, controls,
                                               jobs=1, **built)),
            ("control mesh", lambda: pareto.weak_front(60.0, mesh, sys, grid, few,
                                                       jobs=2, **built)),
            ("grid", lambda: pareto.strong_pareto_point(60.0, [0.0, 0.0], (0, 1), sys,
                                                        coarse, controls, **built)),
        ]
        for name, call in cases:
            with pytest.raises(ValueError,
                               match=f"^the {name} passed differs from the compiled one$"):
                call()

    def test_negative_tolerance_rejected(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        with pytest.raises(ValueError, match="tolerance"):
            rt.membership(60.0, [0.0, 0.0], sys, grid, controls, tol=-1.0,
                          compiled=compiled, reach=reach)


class TestUnpopulatedDetection:
    def test_querying_outside_reachable_tube_raises(self, fishery3):
        sys, grid, controls, compiled, reach = fishery3
        tables = rt.backward_recursion(compiled, reach, [0.0, 0.0])
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
            rt.backward_recursion(compiled, broken, [0.0, 0.0])
