import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import robust_thresholds as rt
from robust_thresholds.fishery import FisheryParams, build_fishery_system
from robust_thresholds.model import (IntervalControlSpace, _node_index, _NodeLookup,
                                     as_threshold)

from tabular_tools import check_admissible, simulate


@pytest.fixture
def fishery():
    return build_fishery_system(FisheryParams.default(), horizon=3)


def synthetic_system(horizon=2):
    """1-D system with g(x, u) = x - u, theta(x) = -x, one scenario."""
    return rt.SystemSpec(
        horizon=horizon, state_dim=1, threshold_dim=1,
        dynamics=lambda k, x, u, w: 0.5 * x + u,
        stage_constraints=lambda k, x, u: np.asarray([x - u]),
        terminal_constraint=lambda x: np.asarray([-x]),
        control_space=IntervalControlSpace(0.0, 1.0),
        scenario_sets=tuple((0,) for _ in range(horizon + 1)),
    )


class TestStep:
    def test_carrying_capacity_fixed_point(self, fishery):
        assert fishery.step(0, 50.0, 0.0, "b") == pytest.approx(50.0, abs=1e-12)

    def test_extinction_fixed_point(self, fishery):
        for w in ("a", "b"):
            assert fishery.step(1, 0.0, 0.0, w) == 0.0

    def test_hand_evaluated_transition(self, fishery):
        # 3*25/(1 + 25/25) - 5 = 37.5 - 5
        assert fishery.step(0, 25.0, 5.0, "b") == pytest.approx(32.5, abs=1e-12)

    def test_stage_out_of_range(self, fishery):
        with pytest.raises(ValueError, match="stage"):
            fishery.step(4, 10.0, 0.0, "b")
        with pytest.raises(ValueError, match="stage"):
            fishery.step(-1, 10.0, 0.0, "b")

    def test_unknown_scenario_element(self, fishery):
        with pytest.raises(ValueError, match="scenario"):
            fishery.step(0, 10.0, 0.0, "c")


class TestConstraints:
    def test_fishery_stage_constraint_is_state_and_control(self, fishery):
        np.testing.assert_allclose(fishery.stage_constraint(0, 30.0, 4.0), [30.0, 4.0])
        np.testing.assert_allclose(fishery.stage_constraint(2, 0.0, 0.0), [0.0, 0.0])

    def test_synthetic_stage_constraint(self):
        sys = synthetic_system()
        np.testing.assert_allclose(sys.stage_constraint(0, 5.0, 2.0), [3.0])

    def test_fishery_terminal_uses_big_constant(self, fishery):
        th = fishery.terminal(12.0)
        assert th[0] == 12.0 and th[1] == 1.0e6

    def test_duplicate_terminal(self):
        sys = rt.SystemSpec(
            horizon=0, state_dim=1, threshold_dim=2,
            dynamics=lambda k, x, u, w: x,
            stage_constraints=lambda k, x, u: np.asarray([x, x]),
            terminal_constraint=lambda x: np.asarray([x, x]),
            control_space=IntervalControlSpace(0.0, 1.0),
            scenario_sets=((0,),),
        )
        np.testing.assert_allclose(sys.terminal(0.0), [0.0, 0.0])

    def test_synthetic_negated_terminal(self):
        np.testing.assert_allclose(synthetic_system().terminal(3.0), [-3.0])


class TestSimulate:
    def test_fixed_point_at_capacity(self, fishery):
        sys = build_fishery_system(FisheryParams.default(), horizon=0)
        traj = simulate(sys, 50.0, [0.0], ["b"])
        assert traj == [50.0, 50.0]

    def test_hand_chained_two_steps(self):
        sys = build_fishery_system(FisheryParams.default(), horizon=1)
        traj = simulate(sys, 25.0, [5.0, 0.0], ["b", "b"])
        f_32_5 = 3 * 32.5 / (1 + 32.5 / 25)
        np.testing.assert_allclose(traj, [25.0, 32.5, f_32_5], atol=1e-12)

    def test_replaying_through_step_reproduces(self, fishery):
        controls = [3.0, 1.0, 0.0, 2.0]
        scen = ["a", "b", "a", "a"]
        traj = simulate(fishery, 40.0, controls, scen)
        for k in range(4):
            assert fishery.step(k, traj[k], controls[k], scen[k]) == traj[k + 1]

    def test_length_mismatch(self, fishery):
        with pytest.raises(ValueError, match="control path"):
            simulate(fishery, 40.0, [0.0], ["a", "a", "a", "a"])
        with pytest.raises(ValueError, match="scenario path"):
            simulate(fishery, 40.0, [0.0] * 4, ["a"])


class TestAdmissibility:
    def test_zero_thresholds_admit_no_harvest(self, fishery):
        for scen in (["a"] * 4, ["b"] * 4, ["a", "b", "a", "b"]):
            assert check_admissible(fishery, 50.0, [0.0] * 4, scen, [0.0, 0.0])

    def test_huge_threshold_component_fails(self, fishery):
        assert not check_admissible(fishery, 50.0, [0.0] * 4, ["a"] * 4,
                                       [1e12, 0.0])

    def test_negative_thresholds_admit_any_rollout(self, fishery):
        rng = np.random.default_rng(7)
        for _ in range(10):
            controls = rng.uniform(0, 40, size=4)
            scen = rng.choice(["a", "b"], size=4)
            traj = simulate(fishery, 60.0, controls, scen)
            if min(traj) < -1.0:  # harvesting may overshoot the stock
                continue
            assert check_admissible(fishery, 60.0, controls, scen, [-1.0, -1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        c1=st.floats(-5, 60, allow_nan=False),
        c2=st.floats(-5, 40, allow_nan=False),
        drop=st.floats(0.0, 10.0, allow_nan=False),
        pick=st.integers(0, 1),
    )
    def test_admissibility_antitone_in_thresholds(self, c1, c2, drop, pick):
        sys = build_fishery_system(FisheryParams.default(), horizon=3)
        controls, scen = [5.0, 5.0, 5.0, 5.0], ["b", "a", "b", "a"]
        upper = np.asarray([c1, c2])
        lower = upper.copy()
        lower[pick] -= drop
        if check_admissible(sys, 50.0, controls, scen, upper):
            assert check_admissible(sys, 50.0, controls, scen, lower)


class TestTabular:
    def test_transitions_land_on_nodes(self):
        params = rt.TabularParams(
            node_coords=np.arange(4.0),
            transitions=np.zeros((4, 2, 2), dtype=int),
            stage_values=np.zeros((4, 2, 2)),
            terminal_values=np.zeros((4, 2)),
        )
        sys = rt.build_tabular_system(params, horizon=1)
        assert sys.step(0, 3.0, 1, 0) == 0.0
        assert sys.time_invariant

    def test_bad_transition_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            rt.TabularParams(
                node_coords=np.arange(3.0),
                transitions=np.full((3, 2, 2), 5),
                stage_values=np.zeros((3, 2, 2)),
                terminal_values=np.zeros((3, 2)),
            )

    @pytest.mark.parametrize("transitions, stage_values, terminal_values, names", [
        # states: both tables must cover the three nodes
        ((2, 2, 2), (3, 2, 2), (3, 2), "transitions .* and stage_values"),
        ((3, 2, 2), (2, 2, 2), (3, 2), "transitions .* and stage_values"),
        # controls
        ((3, 2, 2), (3, 3, 2), (3, 2), "transitions .* and stage_values .* controls"),
        # stages, where both tables are per stage
        ((2, 3, 2, 2), (3, 3, 2, 2), (3, 2), "transitions .* and stage_values .* stages"),
        # constraint components
        ((3, 2, 2), (3, 2, 3), (3, 2), "stage_values .* and terminal_values"),
    ])
    def test_mismatched_tables_rejected(self, transitions, stage_values,
                                        terminal_values, names):
        with pytest.raises(ValueError, match=names):
            rt.TabularParams(node_coords=np.arange(3.0),
                             transitions=np.zeros(transitions, dtype=int),
                             stage_values=np.zeros(stage_values),
                             terminal_values=np.zeros(terminal_values))

    def test_per_stage_tables_mark_time_varying(self):
        params = rt.TabularParams(
            node_coords=np.arange(3.0),
            transitions=np.zeros((2, 3, 2, 2), dtype=int),
            stage_values=np.zeros((2, 3, 2, 2)),
            terminal_values=np.zeros((3, 2)),
        )
        sys = rt.build_tabular_system(params, horizon=1)
        assert not sys.time_invariant

    @settings(max_examples=200, deadline=None)
    @given(
        coords=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                        max_size=12, unique=True).map(sorted),
        data=st.data(),
    )
    def test_node_lookup_equals_searchsorted(self, coords, data):
        coords = np.asarray(coords, dtype=float)
        lookup = _NodeLookup(coords)
        node = st.sampled_from(coords.tolist())
        outside = st.one_of(st.floats(-1e3, coords[0], exclude_max=True),
                            st.floats(coords[-1], 1e3, exclude_min=True))
        one = st.one_of(
            node, node.map(np.float64), node.map(lambda v: v + 1e-10),
            node.map(lambda v: v - 1e-10), outside, st.just(float("nan")))
        x = data.draw(st.one_of(one, st.lists(one, min_size=1, max_size=5).map(
            lambda v: np.asarray(v, dtype=float))))
        assert np.array_equal(lookup(x), _node_index(coords, x))

    def test_callables_share_one_node_lookup(self):
        params = rt.TabularParams(
            node_coords=np.arange(3.0),
            transitions=np.zeros((3, 2, 2), dtype=int),
            stage_values=np.zeros((3, 2, 2)),
            terminal_values=np.zeros((3, 2)),
        )
        sys = rt.build_tabular_system(params, horizon=1)
        assert (sys.dynamics.node is sys.stage_constraints.node
                is sys.terminal_constraint.node)


class TestSpecValidation:
    def test_empty_scenario_set_rejected(self):
        with pytest.raises(ValueError, match="scenario set"):
            rt.SystemSpec(
                horizon=0, state_dim=1, threshold_dim=1,
                dynamics=lambda k, x, u, w: x,
                stage_constraints=lambda k, x, u: np.asarray([x]),
                terminal_constraint=lambda x: np.asarray([x]),
                control_space=IntervalControlSpace(0.0, 1.0),
                scenario_sets=((),),
            )

    def test_threshold_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_threshold([np.inf, 0.0], 2)

    def test_wrong_constraint_dimension_caught(self):
        sys = rt.SystemSpec(
            horizon=0, state_dim=1, threshold_dim=2,
            dynamics=lambda k, x, u, w: x,
            stage_constraints=lambda k, x, u: np.asarray([x]),  # wrong length
            terminal_constraint=lambda x: np.asarray([x, x]),
            control_space=IntervalControlSpace(0.0, 1.0),
            scenario_sets=((0,),),
        )
        with pytest.raises(ValueError, match="shape"):
            sys.stage_constraint(0, 1.0, 0.0)
