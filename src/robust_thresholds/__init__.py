"""Robust sustainable threshold sets for uncertain discrete-time control systems.

Given a controlled system with per-stage scenario uncertainty, mixed
state-control constraints and an end-point constraint, this package decides
which constraint-threshold vectors some control policy can honor under
every scenario path, traces the weak Pareto front of that set with a
level-set maximin dynamic program, and walks to strong Pareto maxima with a
sequential constrained-maximin scheme.  Brute-force oracles and a
Beverton-Holt harvesting benchmark with closed-form comparison sets are
included.
"""

from .dp import (ValueTable, backward_recursion, compile_system, membership,
                 robust_value, solve_value)
from .fishery import FisheryParams, build_fishery_system
from .mesh import (ControlMesh, ReachableSets, StateGrid, ThresholdRayMesh,
                   build_reachable_sets, interpolate, threshold_ray_mesh)
from .model import (FiniteControlSpace, IntervalControlSpace, SystemSpec,
                    TabularParams, build_tabular_system)
from .oracle import (OracleBudget, closedloop_maximin, exhaustive_membership,
                     openloop_maximin)
from .pareto import (FrontResult, StrongChain, constrained_maximin_value,
                     strong_pareto_point, threshold_of_policy, weak_front)

__version__ = "0.1.0"

__all__ = [
    "SystemSpec", "TabularParams", "build_tabular_system",
    "IntervalControlSpace", "FiniteControlSpace",
    "StateGrid", "ControlMesh", "ThresholdRayMesh", "threshold_ray_mesh",
    "ReachableSets", "build_reachable_sets", "interpolate",
    "ValueTable", "compile_system", "backward_recursion",
    "robust_value", "solve_value", "membership",
    "OracleBudget", "closedloop_maximin", "openloop_maximin",
    "exhaustive_membership",
    "FrontResult", "StrongChain", "weak_front",
    "constrained_maximin_value", "threshold_of_policy",
    "strong_pareto_point",
    "FisheryParams", "build_fishery_system",
]
