"""Fixtures shared by several test modules."""

import pytest

import robust_thresholds as rt
from robust_thresholds.fishery import FisheryParams, build_fishery_system


@pytest.fixture(scope="module")
def coarse_fishery():
    """The coarse benchmark fishery: N = 8, 121 nodes, 41 controls, xi = 60."""
    sys = build_fishery_system(FisheryParams.default(), horizon=8)
    grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[121])
    controls = rt.ControlMesh.uniform(0.0, 40.0, 41)
    compiled = rt.compile_system(sys, grid, controls)
    reach = rt.build_reachable_sets(60.0, grid, sys, controls, compiled=compiled)
    return sys, grid, controls, compiled, reach
