import numpy as np
import pytest

import robust_thresholds as rt
from robust_thresholds import oracle
from robust_thresholds.fishery import FisheryParams, build_fishery_system

from tabular_tools import (product_exhaustive_membership, product_openloop_maximin,
                           product_problem, random_instance, simulate)


@pytest.fixture(scope="module")
def tiny_fishery():
    sys = build_fishery_system(FisheryParams.default(), horizon=1)
    controls = rt.ControlMesh((0.0, 10.0, 20.0))
    return sys, controls


class TestClosedLoop:
    def test_single_stage_matches_enumeration(self, tiny_fishery):
        sys0 = build_fishery_system(FisheryParams.default(), horizon=0)
        controls = rt.ControlMesh((0.0, 5.0, 15.0))
        c = np.asarray([10.0, 2.0])
        want = max(
            min(min(float(np.min(sys0.terminal(sys0.step(0, 30.0, u, w)) - c))
                    for w in ("a", "b")),
                float(np.min(sys0.stage_constraint(0, 30.0, u) - c)))
            for u in controls.values)
        got = oracle.closedloop_maximin(30.0, c, sys0, controls)
        assert got == pytest.approx(want, abs=1e-14)

    def test_degenerate_game_is_trajectory_minimum(self):
        sys = build_fishery_system(FisheryParams.default(), horizon=2,
                                   scenarios=("b",))
        controls = rt.ControlMesh((5.0,))
        c = np.asarray([3.0, 4.0])
        traj = simulate(sys, 40.0, [5.0] * 3, ["b"] * 3)
        want = min(min(float(np.min(sys.stage_constraint(k, traj[k], 5.0) - c))
                       for k in range(3)),
                   float(np.min(sys.terminal(traj[-1]) - c)))
        assert oracle.closedloop_maximin(40.0, c, sys, controls) == pytest.approx(
            want, abs=1e-12)

    def test_expansions_on_tabular_systems_pinned(self):
        # one expansion per (stage, state) node the memo has not seen; the
        # total moves if the memo key merges or splits subtrees
        rng = np.random.default_rng(21)
        used = 0
        for i in range(12):
            inst = random_instance(rng, integer_values=bool(i % 2))
            for c in rng.uniform(-6, 6, size=(8, 2)):
                budget = oracle.OracleBudget()
                oracle.closedloop_maximin(inst.xi, c, inst.sys, inst.controls,
                                          budget=budget)
                used += budget.used
        rng = np.random.default_rng(22)
        for _ in range(4):
            sys, _, controls, _, _, xi = product_problem(rng)
            for c in rng.uniform(-6, 6, size=(4, 2)):
                budget = oracle.OracleBudget()
                oracle.closedloop_maximin(xi, c, sys, controls, budget=budget)
                used += budget.used
        assert used == 2168

    def test_budget_exceeded_raises(self, tiny_fishery):
        sys, controls = tiny_fishery
        with pytest.raises(oracle.BudgetExceededError):
            oracle.closedloop_maximin(40.0, [0.0, 0.0], sys, controls,
                                      budget=oracle.OracleBudget(5))


class TestOpenLoop:
    def test_single_scenario_equals_closed_loop(self):
        sys = build_fishery_system(FisheryParams.default(), horizon=2,
                                   scenarios=("a",))
        controls = rt.ControlMesh((0.0, 8.0, 16.0))
        for c in ([0.0, 0.0], [20.0, 5.0], [40.0, 10.0]):
            assert oracle.openloop_maximin(55.0, c, sys, controls) == pytest.approx(
                oracle.closedloop_maximin(55.0, c, sys, controls), abs=1e-12)

    def test_horizon_zero_equals_closed_loop(self, tiny_fishery):
        sys0 = build_fishery_system(FisheryParams.default(), horizon=0)
        controls = rt.ControlMesh((0.0, 10.0, 20.0))
        for c in ([5.0, 5.0], [45.0, 15.0]):
            assert oracle.openloop_maximin(35.0, c, sys0, controls) == pytest.approx(
                oracle.closedloop_maximin(35.0, c, sys0, controls), abs=1e-12)

    def test_information_ordering_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            inst = random_instance(rng)
            for _ in range(6):
                c = rng.uniform(-6, 6, size=2)
                ol = oracle.openloop_maximin(inst.xi, c, inst.sys, inst.controls)
                cl = oracle.closedloop_maximin(inst.xi, c, inst.sys, inst.controls)
                assert ol <= cl + 1e-12


class TestExhaustiveMembership:
    def test_vacuous_and_impossible_thresholds(self, tiny_fishery):
        sys, controls = tiny_fishery
        assert oracle.exhaustive_membership(50.0, [-1e6, -1e6], sys, controls)
        assert not oracle.exhaustive_membership(50.0, [1e6, 1e6], sys, controls)

    def test_equivalent_to_sign_of_openloop_value(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            inst = random_instance(rng)
            for _ in range(6):
                c = rng.uniform(-6, 6, size=2)
                member = oracle.exhaustive_membership(inst.xi, c, inst.sys,
                                                      inst.controls)
                value = oracle.openloop_maximin(inst.xi, c, inst.sys, inst.controls)
                assert member == (value >= 0)


class TestPathSearch:
    """The prefix-sharing search against the product enumerations it
    replaced (``tabular_tools``), bit for bit."""

    def test_equals_product_enumeration_on_random_instances(self):
        rng = np.random.default_rng(13)
        members = 0
        for i in range(16):
            # integer tables make ties between paths and between slacks
            inst = random_instance(rng, integer_values=bool(i % 2))
            for c in rng.uniform(-6, 6, size=(6, 2)):
                got = oracle.openloop_maximin(inst.xi, c, inst.sys, inst.controls)
                want = product_openloop_maximin(inst.xi, c, inst.sys, inst.controls)
                assert type(got) is float and got.hex() == want.hex()
                member = oracle.exhaustive_membership(inst.xi, c, inst.sys,
                                                      inst.controls)
                assert member == product_exhaustive_membership(
                    inst.xi, c, inst.sys, inst.controls)
                members += member
        assert members > 0

    def test_equals_product_enumeration_on_two_dimensional_states(self):
        rng = np.random.default_rng(14)
        for _ in range(4):
            sys, _, controls, _, _, xi = product_problem(rng)
            for c in rng.uniform(-6, 6, size=(4, 2)):
                got = oracle.openloop_maximin(xi, c, sys, controls)
                assert got.hex() == product_openloop_maximin(xi, c, sys, controls).hex()
                assert (oracle.exhaustive_membership(xi, c, sys, controls)
                        == product_exhaustive_membership(xi, c, sys, controls))

    def test_equals_product_enumeration_on_the_fishery(self, tiny_fishery):
        sys, controls = tiny_fishery
        for c in ([0.0, 0.0], [20.0, 5.0], [30.0, 10.0], [45.0, 15.0]):
            got = oracle.openloop_maximin(50.0, c, sys, controls)
            assert got.hex() == product_openloop_maximin(50.0, c, sys, controls).hex()
            assert (oracle.exhaustive_membership(50.0, c, sys, controls)
                    == product_exhaustive_membership(50.0, c, sys, controls))

    def test_budget_exceeded_raises(self, tiny_fishery):
        sys, controls = tiny_fishery
        for fn in (oracle.openloop_maximin, oracle.exhaustive_membership):
            with pytest.raises(oracle.BudgetExceededError):
                fn(50.0, [0.0, 0.0], sys, controls, budget=oracle.OracleBudget(3))


class TestSharedProperties:
    def test_antitone_and_shift_equivariant(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng)
        c = np.asarray([0.0, 0.0])
        for fn in (oracle.openloop_maximin, oracle.closedloop_maximin):
            base = fn(inst.xi, c, inst.sys, inst.controls)
            assert fn(inst.xi, c + 0.75, inst.sys, inst.controls) <= base + 1e-12
            assert fn(inst.xi, c + 1.5, inst.sys, inst.controls) == pytest.approx(
                base - 1.5, abs=1e-12)

    def test_budget_is_validated(self):
        with pytest.raises(ValueError, match="positive"):
            oracle.OracleBudget(0)
