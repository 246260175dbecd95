"""Run configuration: a strict nested key/value document (YAML).

Unknown keys are rejected (never ignored) with their full path; every
omitted key takes the documented default.  The exact grammar is documented
in the README.  ``parse_config`` returns the resolved document: a nested
dict holding every key in canonical order, with every check passed.  It is
the only form a configuration takes: ``serialize`` dumps it as it is (so it
parses back to an equal document), every output file header embeds it for
provenance, and ``build_problem`` and the commands read it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

import numpy as np
import yaml

from .fishery import FisheryParams, build_fishery_system
from .mesh import (INTERP_MODES, ControlMesh, StateGrid, ThresholdRayMesh,
                   threshold_ray_mesh)
from .model import SystemSpec, TabularParams, build_tabular_system

__all__ = ["ConfigError", "parse_config", "serialize", "build_problem"]

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


def _vector(raw: Any, path: str) -> list:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return [float(raw)]
    _require(isinstance(raw, (list, tuple)), path, "expected a number or list")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(raw)]


# the fishery's model keys and their defaults, in document order
_FISHERY_DEFAULTS = {name: p.default for name, p in
                     inspect.signature(FisheryParams.default).parameters.items()}
_TABULAR_KEYS = ("transitions", "stage_values", "terminal_values")
_TOP_KEYS = ("model", "horizon", "initial_state", "state_grid", "control_mesh",
             "ray_mesh", "tolerances", "options", "output_dir")
_MODEL_KEYS = ("kind", *_FISHERY_DEFAULTS, *_TABULAR_KEYS)
_GRID_KEYS = ("lower", "upper", "nodes")
_CONTROL_KEYS = ("count", "values")
_RAY_KEYS = ("spacing", "count", "anchors")
_TOL_KEYS = ("membership", "front")
_OPTION_KEYS = ("interpolation", "oracle", "jobs", "oracle_budget")


def _model_params(model: dict) -> FisheryParams | TabularParams:
    """The parameters a resolved model section describes."""
    if model["kind"] == "tabular":
        steps, *values = (np.asarray(model[key], dtype=float) for key in _TABULAR_KEYS)
        bad = steps[~(np.isfinite(steps) & (steps == np.round(steps)))]
        if bad.size:
            raise ConfigError(f"model.transitions: expected integer node indices, "
                              f"got {float(bad[0])!r}")
        return TabularParams(np.arange(values[-1].shape[0], dtype=float),
                             steps.astype(int), *values)
    return FisheryParams.default(**{key: model[key] for key in _FISHERY_DEFAULTS}
                                 | {"scenarios": tuple(model["scenarios"])})


def _parse_model(raw: Any) -> tuple[dict, FisheryParams | TabularParams]:
    """The resolved model section of a raw one, and its parameters."""
    model = _section(raw, "model", _MODEL_KEYS)
    _require("kind" in model, "model.kind", "a model kind is required")
    kind = model["kind"]
    _require(kind in MODEL_KINDS, "model.kind",
             f"must be one of {list(MODEL_KINDS)}, got {kind!r}")
    if kind == "tabular":
        for key in _FISHERY_DEFAULTS:
            _require(key not in model, f"model.{key}", "only valid for fishery models")
        for key in _TABULAR_KEYS:
            _require(key in model, f"model.{key}", "required for tabular models")
        resolved = {"kind": kind, **{key: model[key] for key in _TABULAR_KEYS}}
    else:
        for key in _TABULAR_KEYS:
            _require(key not in model, f"model.{key}", "only valid for tabular models")
        scenarios = model.get("scenarios", list(_FISHERY_DEFAULTS["scenarios"]))
        _require(isinstance(scenarios, (list, tuple)) and len(scenarios) >= 1,
                 "model.scenarios", "expected a nonempty list")
        scenarios = [str(s) for s in scenarios]
        for i, s in enumerate(scenarios):
            _require(s in ("a", "b"), "model.scenarios", f"unknown scenario {s!r}")
            _require(s not in scenarios[:i], "model.scenarios", f"duplicate scenario {s!r}")
        resolved = {"kind": kind, **{
            key: _number(model.get(key, default), f"model.{key}")
            for key, default in _FISHERY_DEFAULTS.items() if key != "scenarios"},
            "scenarios": scenarios}
    try:
        params = _model_params(resolved)
    except ConfigError:
        raise
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    if kind == "tabular":
        resolved.update({key: getattr(params, key).tolist() for key in _TABULAR_KEYS})
    return resolved, params


def parse_config(text: str, overrides: dict | None = None) -> dict:
    """Parse, complete and validate a configuration document.

    ``overrides`` maps dotted key paths (``"options.jobs"``, ``"output_dir"``)
    to values that replace the document's own before any check runs, so a
    value passes the same checks whether a flag or the document sets it.
    Returns the resolved document."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not a valid config document: {exc}") from exc
    if raw is None:
        raw = {}
    raw = _section(raw, "", _TOP_KEYS)
    for path, value in (overrides or {}).items():
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section.setdefault(name, {})
        if isinstance(section, dict):  # else its own check rejects it below
            section[key] = value

    model, params = _parse_model(raw.get("model", {}))
    tabular = model["kind"] == "tabular"

    _require("horizon" in raw, "horizon", "required")
    horizon = _integer(raw["horizon"], "horizon")
    _require(horizon >= 0, "horizon", "must be >= 0")
    for key in ("transitions", "stage_values") if tabular else ():
        table = getattr(params, key)
        _require(table.ndim == 3 or len(table) == horizon + 1, f"model.{key}",
                 f"a per-stage table needs horizon + 1 = {horizon + 1} stages, "
                 f"got {len(table)}")

    _require("initial_state" in raw, "initial_state", "required")
    initial_state = _vector(raw["initial_state"], "initial_state")

    grid = _section(raw.get("state_grid", {}), "state_grid", _GRID_KEYS)
    if tabular:
        n_states = len(model["terminal_values"])
        default_grid = ([0.0], [float(max(n_states - 1, 1))], [max(n_states, 2)])
    else:
        default_grid = ([0.0], [120.0], [600])
    lower = _vector(grid.get("lower", default_grid[0]), "state_grid.lower")
    upper = _vector(grid.get("upper", default_grid[1]), "state_grid.upper")
    nodes = grid.get("nodes", default_grid[2])
    if isinstance(nodes, int):
        nodes = [nodes]
    _require(isinstance(nodes, (list, tuple)), "state_grid.nodes",
             "expected an integer or list")
    nodes = [_integer(n, f"state_grid.nodes[{i}]") for i, n in enumerate(nodes)]
    _require(len(lower) == len(upper) == len(nodes),
             "state_grid", "lower, upper and nodes must have the same length")
    for i, (lo, up, n) in enumerate(zip(lower, upper, nodes)):
        _require(lo < up, f"state_grid.upper[{i}]", "must exceed the lower bound")
        _require(n >= 2, f"state_grid.nodes[{i}]", "needs at least 2 nodes")
    _require(len(initial_state) == len(nodes), "initial_state",
             f"expected {len(nodes)} coordinate(s), one per state grid dimension")
    _require(StateGrid(lower, upper, nodes).contains(initial_state), "initial_state",
             "outside the state grid box")

    control = _section(raw.get("control_mesh", {}), "control_mesh", _CONTROL_KEYS)
    _require(not ("count" in control and "values" in control), "control_mesh",
             "give either count or values, not both")
    if "values" in control:
        values = _vector(control["values"], "control_mesh.values")
        _require(len(values) >= 1, "control_mesh.values", "must be nonempty")
        for i, v in enumerate(values if tabular else ()):
            _require(v.is_integer() and 0 <= v < params.n_controls,
                     f"control_mesh.values[{i}]", f"expected a control index "
                     f"from 0 to {params.n_controls - 1}, got {v!r}")
        control = {"values": values}
    elif "count" in control or not tabular:
        count = _integer(control.get("count", 200), "control_mesh.count")
        _require(count >= 1, "control_mesh.count", "must be >= 1")
        control = {"count": count}
    # else {}: a tabular model uses every control

    ray = _section(raw.get("ray_mesh", {}), "ray_mesh", _RAY_KEYS)
    spacing = _number(ray.get("spacing", 0.5), "ray_mesh.spacing")
    _require(spacing > 0, "ray_mesh.spacing", "must be > 0")
    ray_count = _integer(ray.get("count", 200), "ray_mesh.count")
    _require(ray_count >= 0, "ray_mesh.count", "must be >= 0")
    if tabular:
        # one above every constraint value, or 1.0 where that is not positive
        hi = float(max(params.stage_values.max(), params.terminal_values.max())) + 1.0
        default_anchors = [hi if hi > 0 else 1.0] * params.terminal_values.shape[1]
    else:
        default_anchors = [upper[0] + 10.0, params.u_max + 20.0]
    anchors = _vector(ray.get("anchors", default_anchors), "ray_mesh.anchors")
    for i, a in enumerate(anchors):
        _require(a > 0, f"ray_mesh.anchors[{i}]", "must be strictly positive")
    # the default anchors have one coordinate per threshold component
    _require(len(anchors) == len(default_anchors), "ray_mesh.anchors",
             "length must equal the threshold dimension")

    tol = _section(raw.get("tolerances", {}), "tolerances", _TOL_KEYS)
    membership = _number(tol.get("membership", 0.0), "tolerances.membership")
    _require(membership >= 0, "tolerances.membership", "must be >= 0")
    front = tol.get("front")
    if front is not None:
        front = _number(front, "tolerances.front")
        _require(front >= 0, "tolerances.front", "must be >= 0")

    options = _section(raw.get("options", {}), "options", _OPTION_KEYS)
    interpolation = options.get("interpolation", "multilinear")
    _require(interpolation in INTERP_MODES, "options.interpolation",
             f"must be one of {list(INTERP_MODES)}")
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

    return {
        "model": model,
        "horizon": horizon,
        "initial_state": initial_state[0] if len(initial_state) == 1 else initial_state,
        "state_grid": {"lower": lower, "upper": upper, "nodes": nodes},
        "control_mesh": control,
        "ray_mesh": {"spacing": spacing, "count": ray_count, "anchors": anchors},
        "tolerances": {"membership": membership, "front": front},
        "options": {"interpolation": interpolation, "oracle": oracle, "jobs": jobs,
                    "oracle_budget": oracle_budget},
        "output_dir": output_dir,
    }


def serialize(cfg: dict) -> str:
    """Dump a resolved document; it parses back to an equal one."""
    return yaml.safe_dump(cfg, sort_keys=False)


@dataclass
class Problem:
    """Everything a command needs, built from a resolved document."""

    config: dict
    params: FisheryParams | TabularParams
    sys: SystemSpec
    grid: StateGrid
    controls: ControlMesh
    xi: Any
    ray_mesh: ThresholdRayMesh


def build_problem(cfg: dict) -> Problem:
    """Construct the objects of a document that ``parse_config`` resolved."""
    params = _model_params(cfg["model"])
    mesh = cfg["control_mesh"]
    if isinstance(params, TabularParams):
        sys = build_tabular_system(params, cfg["horizon"])
        n = params.n_controls
        values = mesh.get("values", range(min(mesh.get("count", n), n)))
        controls = ControlMesh(tuple(int(v) for v in values))
    else:
        sys = build_fishery_system(params, cfg["horizon"])
        controls = (ControlMesh(tuple(mesh["values"])) if "values" in mesh else
                    ControlMesh.uniform(0.0, params.u_max, mesh["count"]))
    controls.validate_against(sys)
    grid, ray, xi = cfg["state_grid"], cfg["ray_mesh"], cfg["initial_state"]
    return Problem(config=cfg, params=params, sys=sys,
                   grid=StateGrid(grid["lower"], grid["upper"], grid["nodes"]),
                   controls=controls,
                   xi=np.asarray(xi) if isinstance(xi, list) else xi,
                   ray_mesh=threshold_ray_mesh(ray["spacing"], ray["count"],
                                               ray["anchors"]))
