import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_thresholds as rt
from robust_thresholds.dp import ValueTable
from robust_thresholds.fishery import FisheryParams, build_fishery_system
from robust_thresholds.mesh import UnpopulatedNodeError

from tabular_tools import exact_reachable_nodes, full_grid_sets, random_instance


def table_1d(grid, values, interp="multilinear"):
    return ValueTable(stage=0, grid=grid, values=np.asarray(values, dtype=float),
                      interp=interp)


class TestInterpolate:
    def setup_method(self):
        self.grid = rt.StateGrid(lower=[0.0], upper=[4.0], counts=[5])

    def test_node_identity(self):
        t = table_1d(self.grid, [3.0, 1.0, 4.0, 1.0, 5.0])
        for i, v in enumerate([3.0, 1.0, 4.0, 1.0, 5.0]):
            assert rt.interpolate(t, float(i)) == v

    def test_midpoint_linear(self):
        t = table_1d(self.grid, [0.0, 1.0, 0.0, 0.0, 0.0])
        assert rt.interpolate(t, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_outside_box_clamps(self):
        t = table_1d(self.grid, [7.0, 1.0, 2.0, 3.0, 9.0])
        assert rt.interpolate(t, -10.0) == 7.0
        assert rt.interpolate(t, 100.0) == 9.0

    def test_nearest_mode(self):
        t = table_1d(self.grid, [7.0, 1.0, 2.0, 3.0, 9.0], interp="nearest")
        assert rt.interpolate(t, 0.4) == 7.0
        assert rt.interpolate(t, 0.6) == 1.0
        assert rt.interpolate(t, 0.5) == 1.0  # midpoint goes to the upper node

    def test_unpopulated_query_raises(self):
        t = table_1d(self.grid, [1.0, 1.0, np.nan, 1.0, 1.0])
        with pytest.raises(UnpopulatedNodeError):
            rt.interpolate(t, 1.5)
        assert rt.interpolate(t, 0.5) == 1.0

    def test_two_dimensional_bilinear(self):
        grid = rt.StateGrid(lower=[0.0, 0.0], upper=[1.0, 1.0], counts=[2, 2])
        t = ValueTable(stage=0, grid=grid,
                       values=np.asarray([0.0, 1.0, 2.0, 3.0]))
        assert rt.interpolate(t, [0.5, 0.5]) == pytest.approx(1.5, abs=1e-15)
        assert rt.interpolate(t, [0.0, 1.0]) == 1.0
        assert rt.interpolate(t, [1.0, 0.0]) == 2.0

    @settings(max_examples=60, deadline=None)
    @given(
        vals=st.lists(st.floats(-10, 10), min_size=5, max_size=5),
        bumps=st.lists(st.floats(0, 5), min_size=5, max_size=5),
        x=st.floats(-1.0, 5.0),
    )
    def test_monotone_in_table_and_bounded_by_node_range(self, vals, bumps, x):
        grid = rt.StateGrid(lower=[0.0], upper=[4.0], counts=[5])
        lo_t = table_1d(grid, vals)
        hi_t = table_1d(grid, np.asarray(vals) + np.asarray(bumps))
        a, b = rt.interpolate(lo_t, x), rt.interpolate(hi_t, x)
        assert a <= b + 1e-12
        assert min(vals) - 1e-12 <= a <= max(vals) + 1e-12


class TestThresholdRayMesh:
    def test_enumeration_matches_definition(self):
        mesh = rt.threshold_ray_mesh(1.0, 2, [10.0, 10.0])
        got = {tuple(p) for p in mesh.points}
        assert got == {(0.0, 10.0), (1.0, 10.0), (2.0, 10.0),
                       (10.0, 0.0), (10.0, 1.0), (10.0, 2.0)}

    def test_zero_count_keeps_origin_points(self):
        mesh = rt.threshold_ray_mesh(0.5, 0, [3.0, 7.0])
        got = {tuple(p) for p in mesh.points}
        assert got == {(0.0, 7.0), (3.0, 0.0)}

    def test_cardinality_minus_duplicates(self):
        # sweeping through the anchor value creates one exact duplicate per axis
        mesh = rt.threshold_ray_mesh(1.0, 3, [2.0, 2.0])
        assert len(mesh) == 2 * 4 - 1  # (2,2) generated once

    def test_three_axis_generalization(self):
        mesh = rt.threshold_ray_mesh(1.0, 1, [5.0, 6.0, 7.0])
        assert len(mesh) == 6
        assert (5.0, 6.0, 0.0) in {tuple(p) for p in mesh.points}

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            rt.threshold_ray_mesh(0.0, 3, [1.0, 1.0])
        with pytest.raises(ValueError, match="anchors"):
            rt.threshold_ray_mesh(1.0, 3, [1.0, -1.0])


class TestReachableSets:
    def test_base_case_is_cell_corners(self):
        sys = build_fishery_system(FisheryParams.default(), horizon=0)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
        controls = rt.ControlMesh.uniform(0.0, 40.0, 5)
        compiled = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(60.5, grid, sys, controls, compiled=compiled)
        np.testing.assert_array_equal(reach.indices(0), [60, 61])

    def test_tabular_matches_breadth_first_search(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng)
            exact = exact_reachable_nodes(inst)
            for stage, want in enumerate(exact):
                got = set(int(i) for i in inst.reach.indices(stage))
                assert got == want, f"stage {stage}"

    def test_fishery_fixed_point_stays_in_one_cell(self):
        params = FisheryParams.default()
        sys = build_fishery_system(params, horizon=6, scenarios=("b",))
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[601])
        controls = rt.ControlMesh((0.0,))  # no harvest
        compiled = rt.compile_system(sys, grid, controls)
        reach = rt.build_reachable_sets(50.0, grid, sys, controls, compiled=compiled)
        for stage in range(8):
            assert set(reach.indices(stage)) <= {250, 251}

    def test_initial_state_outside_box_rejected(self):
        sys = build_fishery_system(FisheryParams.default(), horizon=1)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[13])
        controls = rt.ControlMesh((0.0,))
        compiled = rt.compile_system(sys, grid, controls)
        with pytest.raises(ValueError, match="outside"):
            rt.build_reachable_sets(130.0, grid, sys, controls, compiled=compiled)

    def test_inputs_other_than_the_compiled_ones_rejected(self):
        sys = build_fishery_system(FisheryParams.default(), horizon=1)
        grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
        controls = rt.ControlMesh((0.0, 10.0))
        compiled = rt.compile_system(sys, grid, controls)
        finer = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[241])
        with pytest.raises(ValueError, match="grid passed differs"):
            rt.build_reachable_sets(60.0, finer, sys, controls, compiled=compiled)
        with pytest.raises(ValueError, match="control mesh passed differs"):
            rt.build_reachable_sets(60.0, grid, sys, rt.ControlMesh((0.0,)),
                                    compiled=compiled)
        longer = build_fishery_system(FisheryParams.default(), horizon=2)
        with pytest.raises(ValueError, match="system passed differs"):
            rt.build_reachable_sets(60.0, grid, longer, controls, compiled=compiled)
        # equal but distinct inputs are accepted
        same = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
        reach = rt.build_reachable_sets(60.0, same, sys, rt.ControlMesh((0.0, 10.0)),
                                        compiled=compiled)
        assert reach.masks.shape == (3, 121)

    def test_full_grid_mode_marks_everything(self):
        grid = rt.StateGrid(lower=[0.0], upper=[1.0], counts=[5])
        reach = full_grid_sets(grid, horizon=2)
        assert reach.full and reach.masks.all() and reach.masks.shape == (4, 5)

    def test_multilinear_sets_cover_nearest_sets(self):
        # whole-cell over-approximation never loses the exactly reachable nodes
        rng = np.random.default_rng(11)
        for _ in range(5):
            inst = random_instance(rng)
            comp_ml = rt.compile_system(inst.sys, inst.grid, inst.controls,
                                        interp="multilinear")
            reach_ml = rt.build_reachable_sets(inst.xi, inst.grid, inst.sys,
                                               inst.controls, compiled=comp_ml)
            for stage in range(inst.sys.horizon + 2):
                assert set(inst.reach.indices(stage)) <= set(reach_ml.indices(stage))

    def test_csv_rows_enumerate_coordinates(self):
        grid = rt.StateGrid(lower=[0.0], upper=[1.0], counts=[3])
        reach = full_grid_sets(grid, horizon=0)
        rows = reach.to_rows()
        assert rows[0] == (0, 0, 0.0) and rows[-1] == (1, 2, 1.0)


class TestStateGrid:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower < upper"):
            rt.StateGrid(lower=[1.0], upper=[1.0], counts=[4])
        with pytest.raises(ValueError, match="2 nodes"):
            rt.StateGrid(lower=[0.0], upper=[1.0], counts=[1])

    def test_equality_is_arraywise(self):
        grid = rt.StateGrid(lower=[0.0, 10.0], upper=[1.0, 12.0], counts=[2, 3])
        assert grid == rt.StateGrid(lower=[0.0, 10.0], upper=[1.0, 12.0],
                                    counts=[2, 3])
        assert grid != rt.StateGrid(lower=[0.0, 10.0], upper=[1.0, 12.0],
                                    counts=[2, 4])
        assert grid != rt.StateGrid(lower=[0.0], upper=[1.0], counts=[2])
        assert grid != "grid"

    def test_node_coordinates_c_order(self):
        grid = rt.StateGrid(lower=[0.0, 10.0], upper=[1.0, 12.0], counts=[2, 3])
        np.testing.assert_allclose(
            grid.node_coordinates(),
            [[0, 10], [0, 11], [0, 12], [1, 10], [1, 11], [1, 12]])
