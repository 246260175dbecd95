"""Run configuration: a strict nested key/value document (YAML).

Unknown keys are rejected (never ignored) with their full path; every
omitted key takes the documented default.  The exact grammar is documented
in the README; ``serialize`` emits a document that parses back to an
equivalent configuration, and resolved configurations are embedded verbatim
in every output file header for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import yaml

from .fishery import FisheryParams, build_fishery_system
from .mesh import (INTERP_MODES, ControlMesh, StateGrid, ThresholdRayMesh,
                   threshold_ray_mesh)
from .model import SystemSpec, TabularParams, build_tabular_system

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize", "build_problem"]

MODEL_KINDS = ("fishery-beverton-holt", "tabular")


class ConfigError(ValueError):
    """Malformed or invalid run configuration; messages carry the key path."""


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _section(raw: dict, path: str, allowed: tuple) -> dict:
    _require(isinstance(raw, dict), path, "expected a mapping")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}.{key}" if path else
                              f"unknown key: {key}")
    return raw


def _number(raw: Any, path: str) -> float:
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool),
             path, f"expected a number, got {raw!r}")
    return float(raw)


def _integer(raw: Any, path: str) -> int:
    _require(isinstance(raw, int) and not isinstance(raw, bool),
             path, f"expected an integer, got {raw!r}")
    return int(raw)


def _vector(raw: Any, path: str) -> tuple:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return (float(raw),)
    _require(isinstance(raw, (list, tuple)), path, "expected a number or list")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


@dataclass(frozen=True)
class RunConfig:
    model_kind: str
    fishery: FisheryParams | None
    tabular: TabularParams | None
    horizon: int
    initial_state: tuple
    grid_lower: tuple
    grid_upper: tuple
    grid_nodes: tuple
    control_count: int | None
    control_values: tuple | None
    ray_spacing: float
    ray_count: int
    ray_anchors: tuple
    membership_tol: float
    front_tol: float | None
    interpolation: str
    full_grid: bool
    oracle: bool
    jobs: int
    oracle_budget: int
    output_dir: str


_TOP_KEYS = ("model", "horizon", "initial_state", "state_grid", "control_mesh",
             "ray_mesh", "tolerances", "options", "output_dir")
_MODEL_KEYS = ("kind", "r_a", "r_b", "K_a", "K_b", "u_max", "m_big", "scenarios",
               "transitions", "stage_values", "terminal_values")
_GRID_KEYS = ("lower", "upper", "nodes")
_CONTROL_KEYS = ("count", "values")
_RAY_KEYS = ("spacing", "count", "anchors")
_TOL_KEYS = ("membership", "front")
_OPTION_KEYS = ("interpolation", "full_grid", "oracle", "jobs", "oracle_budget")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not a valid config document: {exc}") from exc
    if raw is None:
        raw = {}
    raw = _section(raw, "", _TOP_KEYS)

    model = _section(raw.get("model", {}), "model", _MODEL_KEYS)
    _require("kind" in model, "model.kind", "a model kind is required")
    kind = model["kind"]
    _require(kind in MODEL_KINDS, "model.kind",
             f"must be one of {list(MODEL_KINDS)}, got {kind!r}")

    fishery_params = tabular_params = None
    if kind == "fishery-beverton-holt":
        for key in ("transitions", "stage_values", "terminal_values"):
            _require(key not in model, f"model.{key}", "only valid for tabular models")
        scen_raw = model.get("scenarios", ["a", "b"])
        _require(isinstance(scen_raw, (list, tuple)) and len(scen_raw) >= 1,
                 "model.scenarios", "expected a nonempty list")
        scenarios = tuple(str(s) for s in scen_raw)
        for s in scenarios:
            _require(s in ("a", "b"), "model.scenarios", f"unknown scenario {s!r}")
        try:
            fishery_params = FisheryParams.default(
                r_a=_number(model.get("r_a", 0.39), "model.r_a"),
                r_b=_number(model.get("r_b", 2.0), "model.r_b"),
                K_a=_number(model.get("K_a", 90.0), "model.K_a"),
                K_b=_number(model.get("K_b", 50.0), "model.K_b"),
                u_max=_number(model.get("u_max", 40.0), "model.u_max"),
                m_big=_number(model.get("m_big", 1.0e6), "model.m_big"),
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        if scenarios != ("a", "b"):
            fishery_params = FisheryParams(r=fishery_params.r, K=fishery_params.K,
                                           u_max=fishery_params.u_max,
                                           m_big=fishery_params.m_big,
                                           scenarios=scenarios)
    else:
        for key in ("r_a", "r_b", "K_a", "K_b", "u_max", "m_big", "scenarios"):
            _require(key not in model, f"model.{key}",
                     "only valid for fishery models")
        for key in ("transitions", "stage_values", "terminal_values"):
            _require(key in model, f"model.{key}", "required for tabular models")
        try:
            transitions = np.asarray(model["transitions"], dtype=int)
            stage_values = np.asarray(model["stage_values"], dtype=float)
            terminal_values = np.asarray(model["terminal_values"], dtype=float)
            n_states = terminal_values.shape[0]
            tabular_params = TabularParams(
                node_coords=np.arange(n_states, dtype=float),
                transitions=transitions, stage_values=stage_values,
                terminal_values=terminal_values)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"model: {exc}") from exc

    _require("horizon" in raw, "horizon", "required")
    horizon = _integer(raw["horizon"], "horizon")
    _require(horizon >= 0, "horizon", "must be >= 0")

    _require("initial_state" in raw, "initial_state", "required")
    initial_state = _vector(raw["initial_state"], "initial_state")

    grid = _section(raw.get("state_grid", {}), "state_grid", _GRID_KEYS)
    if kind == "tabular":
        n_states = tabular_params.terminal_values.shape[0]
        default_grid = ((0.0,), (float(max(n_states - 1, 1)),), (max(n_states, 2),))
    else:
        default_grid = ((0.0,), (120.0,), (600,))
    grid_lower = _vector(grid.get("lower", list(default_grid[0])), "state_grid.lower")
    grid_upper = _vector(grid.get("upper", list(default_grid[1])), "state_grid.upper")
    nodes_raw = grid.get("nodes", list(default_grid[2]))
    if isinstance(nodes_raw, int):
        nodes_raw = [nodes_raw]
    _require(isinstance(nodes_raw, (list, tuple)), "state_grid.nodes",
             "expected an integer or list")
    grid_nodes = tuple(_integer(n, f"state_grid.nodes[{i}]")
                       for i, n in enumerate(nodes_raw))
    _require(len(grid_lower) == len(grid_upper) == len(grid_nodes),
             "state_grid", "lower, upper and nodes must have the same length")
    for i, (lo, up, n) in enumerate(zip(grid_lower, grid_upper, grid_nodes)):
        _require(lo < up, f"state_grid.upper[{i}]", "must exceed the lower bound")
        _require(n >= 2, f"state_grid.nodes[{i}]", "needs at least 2 nodes")

    control = _section(raw.get("control_mesh", {}), "control_mesh", _CONTROL_KEYS)
    _require(not ("count" in control and "values" in control), "control_mesh",
             "give either count or values, not both")
    control_count = control_values = None
    if "values" in control:
        control_values = _vector(control["values"], "control_mesh.values")
        _require(len(control_values) >= 1, "control_mesh.values", "must be nonempty")
    else:
        default_count = 200 if kind == "fishery-beverton-holt" else None
        if "count" in control:
            control_count = _integer(control["count"], "control_mesh.count")
            _require(control_count >= 1, "control_mesh.count", "must be >= 1")
        else:
            control_count = default_count  # None: tabular uses every control

    ray = _section(raw.get("ray_mesh", {}), "ray_mesh", _RAY_KEYS)
    ray_spacing = _number(ray.get("spacing", 0.5), "ray_mesh.spacing")
    _require(ray_spacing > 0, "ray_mesh.spacing", "must be > 0")
    ray_count = _integer(ray.get("count", 200), "ray_mesh.count")
    _require(ray_count >= 0, "ray_mesh.count", "must be >= 0")
    if "anchors" in ray:
        ray_anchors = _vector(ray["anchors"], "ray_mesh.anchors")
    elif kind == "fishery-beverton-holt":
        ray_anchors = (float(grid_upper[0]) + 10.0, fishery_params.u_max + 20.0)
    else:
        hi = float(max(tabular_params.stage_values.max(),
                       tabular_params.terminal_values.max()))
        m = tabular_params.terminal_values.shape[1]
        ray_anchors = tuple(hi + 1.0 for _ in range(m))
    for i, a in enumerate(ray_anchors):
        _require(a > 0, f"ray_mesh.anchors[{i}]", "must be strictly positive")

    tol = _section(raw.get("tolerances", {}), "tolerances", _TOL_KEYS)
    membership_tol = _number(tol.get("membership", 0.0), "tolerances.membership")
    _require(membership_tol >= 0, "tolerances.membership", "must be >= 0")
    front_tol = tol.get("front", None)
    if front_tol is not None:
        front_tol = _number(front_tol, "tolerances.front")
        _require(front_tol >= 0, "tolerances.front", "must be >= 0")

    options = _section(raw.get("options", {}), "options", _OPTION_KEYS)
    interpolation = options.get("interpolation", "multilinear")
    _require(interpolation in INTERP_MODES, "options.interpolation",
             f"must be one of {list(INTERP_MODES)}")
    full_grid = options.get("full_grid", False)
    _require(isinstance(full_grid, bool), "options.full_grid", "expected a boolean")
    oracle = options.get("oracle", False)
    _require(isinstance(oracle, bool), "options.oracle", "expected a boolean")
    jobs = _integer(options.get("jobs", 1), "options.jobs")
    _require(jobs >= 1, "options.jobs", "must be >= 1")
    oracle_budget = _integer(options.get("oracle_budget", 10_000_000),
                             "options.oracle_budget")
    _require(oracle_budget > 0, "options.oracle_budget", "must be > 0")

    output_dir = raw.get("output_dir", "runs")
    _require(isinstance(output_dir, str) and output_dir, "output_dir",
             "expected a nonempty string")

    return RunConfig(
        model_kind=kind, fishery=fishery_params, tabular=tabular_params,
        horizon=horizon, initial_state=initial_state, grid_lower=grid_lower,
        grid_upper=grid_upper, grid_nodes=grid_nodes, control_count=control_count,
        control_values=control_values, ray_spacing=ray_spacing, ray_count=ray_count,
        ray_anchors=ray_anchors, membership_tol=membership_tol, front_tol=front_tol,
        interpolation=interpolation, full_grid=full_grid, oracle=oracle, jobs=jobs,
        oracle_budget=oracle_budget, output_dir=output_dir)


def resolved_dict(cfg: RunConfig) -> dict:
    """Plain nested dict of the fully resolved configuration."""
    model: dict[str, Any] = {"kind": cfg.model_kind}
    if cfg.fishery is not None:
        model.update(r_a=cfg.fishery.r["a"], r_b=cfg.fishery.r["b"],
                     K_a=cfg.fishery.K["a"], K_b=cfg.fishery.K["b"],
                     u_max=cfg.fishery.u_max, m_big=cfg.fishery.m_big,
                     scenarios=list(cfg.fishery.scenarios))
    if cfg.tabular is not None:
        model.update(transitions=cfg.tabular.transitions.tolist(),
                     stage_values=cfg.tabular.stage_values.tolist(),
                     terminal_values=cfg.tabular.terminal_values.tolist())
    control: dict[str, Any] = {}
    if cfg.control_values is not None:
        control["values"] = list(cfg.control_values)
    elif cfg.control_count is not None:
        control["count"] = cfg.control_count
    return {
        "model": model,
        "horizon": cfg.horizon,
        "initial_state": (cfg.initial_state[0] if len(cfg.initial_state) == 1
                          else list(cfg.initial_state)),
        "state_grid": {"lower": list(cfg.grid_lower), "upper": list(cfg.grid_upper),
                       "nodes": list(cfg.grid_nodes)},
        "control_mesh": control,
        "ray_mesh": {"spacing": cfg.ray_spacing, "count": cfg.ray_count,
                     "anchors": list(cfg.ray_anchors)},
        "tolerances": {"membership": cfg.membership_tol, "front": cfg.front_tol},
        "options": {"interpolation": cfg.interpolation, "full_grid": cfg.full_grid,
                    "oracle": cfg.oracle, "jobs": cfg.jobs,
                    "oracle_budget": cfg.oracle_budget},
        "output_dir": cfg.output_dir,
    }


def serialize(cfg: RunConfig) -> str:
    """Emit a document that parses back to an equivalent configuration."""
    return yaml.safe_dump(resolved_dict(cfg), sort_keys=False)


@dataclass
class Problem:
    """Everything a command needs, assembled from a RunConfig."""

    config: RunConfig
    sys: SystemSpec
    grid: StateGrid
    controls: ControlMesh
    xi: Any
    ray_mesh: ThresholdRayMesh


def build_problem(cfg: RunConfig) -> Problem:
    if cfg.model_kind == "fishery-beverton-holt":
        sys = build_fishery_system(cfg.fishery, cfg.horizon)
        if cfg.control_values is not None:
            controls = ControlMesh(cfg.control_values)
        else:
            controls = ControlMesh.uniform(0.0, cfg.fishery.u_max,
                                           cfg.control_count or 200)
    else:
        sys = build_tabular_system(cfg.tabular, cfg.horizon)
        if cfg.control_values is not None:
            controls = ControlMesh(tuple(int(v) for v in cfg.control_values))
        elif cfg.control_count is not None:
            controls = ControlMesh(tuple(range(min(cfg.control_count,
                                                   cfg.tabular.n_controls))))
        else:
            controls = ControlMesh(tuple(range(cfg.tabular.n_controls)))
    grid = StateGrid(lower=np.asarray(cfg.grid_lower),
                     upper=np.asarray(cfg.grid_upper),
                     counts=np.asarray(cfg.grid_nodes))
    controls.validate_against(sys)
    xi = cfg.initial_state[0] if len(cfg.initial_state) == 1 else np.asarray(
        cfg.initial_state)
    if not grid.contains(xi):
        raise ConfigError("initial_state: outside the state grid box")
    mesh = threshold_ray_mesh(cfg.ray_spacing, cfg.ray_count, cfg.ray_anchors)
    if len(cfg.ray_anchors) != sys.threshold_dim:
        raise ConfigError("ray_mesh.anchors: length must equal the threshold dimension")
    return Problem(config=cfg, sys=sys, grid=grid, controls=controls, xi=xi,
                   ray_mesh=mesh)
