"""The benchmark workloads: inputs made from the seed, set-up, rounds, checks.

Every workload is driven the same way by ``run.py``: ``setup`` compiles the
system and builds its reachable sets, ``run_round`` performs one fixed
batch of the workload's operations and returns (attempted, failed), and
``check`` verifies the outputs of every round against independent
computations or properties the method must have.  The program is called
only through its public API.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import numpy as np

import robust_thresholds as rt
from robust_thresholds import oracle, pareto

XI = 60.0                      # initial stock of every fishery workload
ANCHORS = (130.0, 60.0)        # anchors of the default ray mesh
IDENTITY_TOL = 1e-9            # chain monotonicity/identities, W translation
ORACLE_TOL = 1e-12             # tabular W against the closed-loop oracle
UNDOMINATED_DELTA = 1e-6       # raise of one endpoint component that W rejects

# Strong-chain starts: the README quick start (10, 2), the origin, and three
# more sustainable thresholds spread over the front's two branches.
STRONG_STARTS = ((10.0, 2.0), (0.0, 0.0), (20.0, 5.0), (30.0, 1.0), (5.0, 7.0))

# every shape the acceptance suite draws from: 2..12 states, 2..4
# controls, horizon 1..3 (two scenarios, two constraint components)
TABULAR_SHAPES = tuple((x, u, n) for x in range(2, 13) for u in range(2, 5)
                       for n in range(1, 4))

SIZES = {
    # nodes, controls and horizon of the fishery grids; the ray-mesh subset
    # as (spacing, count); tabular systems and thresholds per system
    "full": {"front_grid": (600, 200, 50), "subset": (25.0, 4),
             "front_error_max": 1.0, "level_samples": 5, "translations": 2,
             "strong_grid": (121, 41, 8), "strong_starts": STRONG_STARTS,
             "tabular_shapes": TABULAR_SHAPES, "tabular_thresholds": 10,
             "setup_repeats": 5, "setup_seconds": 1.0},
    "tiny": {"front_grid": (121, 41, 8), "subset": (50.0, 2),
             "front_error_max": 3.0, "level_samples": 1, "translations": 1,
             "strong_grid": (61, 21, 4), "strong_starts": STRONG_STARTS[:2],
             "tabular_shapes": TABULAR_SHAPES[::20], "tabular_thresholds": 2,
             "setup_repeats": 2, "setup_seconds": 0.0},
}

# exceptions the library raises for an operation that cannot complete
PROGRAM_ERRORS = (ValueError, RuntimeError)


def _failed_op() -> None:
    traceback.print_exc(file=sys.stderr)


def compiled_bytes(compiled) -> int:
    """Computed size of the distinct per-stage arrays, the terminal table and
    the out-of-box caps (one constraint vector per out-of-box entry)."""
    sys_ = compiled.sys
    stages = {id(compiled.stage(n)): compiled.stage(n) for n in range(sys_.horizon + 1)}
    total = compiled.theta_vals.nbytes + sum(
        a.nbytes for sa in stages.values() for a in vars(sa).values()
        if isinstance(a, np.ndarray))
    # a time-invariant system shares one stage table, and keeps one cap
    # table for the stages before the last and one for the last
    if sys_.time_invariant:
        cap_rows = len(compiled.stage(0).out_pts) * min(2, sys_.horizon + 1)
    else:
        cap_rows = sum(len(sa.out_pts) for sa in stages.values())
    return total + cap_rows * sys_.threshold_dim * 8


def sweep_cost(compiled, reach) -> tuple[int, int]:
    """(cell updates, computed bytes read) of one ``dp.sweep_scores`` call.

    A cell is one (row, control, scenario) triple of a swept stage.  Each
    cell reads a corner index, a weight and a value per interpolation
    corner; each (row, control) pair reads one stage score.
    """
    sys_, grid = compiled.sys, compiled.grid
    n_u = len(compiled.controls)
    cells = nbytes = 0
    for n in range(sys_.horizon + 1):
        rows = grid.n_nodes if reach.full else len(reach.indices(n))
        sa = compiled.stage(n)
        corners, n_w = sa.corner_idx.shape[0], sa.corner_idx.shape[-1]
        per_corner = sa.corner_idx.itemsize + sa.corner_w.itemsize + 8
        cells += rows * n_u * n_w
        nbytes += rows * n_u * (n_w * corners * per_corner + 8)
    return cells, nbytes


def robust_boundary(params, x_max: float, n: int = 5001):
    """H(x) = max over s in [x, x_max] of min_w sigma_w(s), sigma_w the
    Beverton-Holt surplus (1+r)s/(1+(r/K)s) - s, sampled on [0, x_max]."""
    xs = np.linspace(0.0, x_max, n)
    sig = [(1.0 + r) * xs / (1.0 + (r / K) * xs) - xs
           for r, K in ((params.r[w], params.K[w]) for w in params.scenarios)]
    worst = np.min(sig, axis=0)
    return xs, np.maximum.accumulate(worst[::-1])[::-1]


def one_sided_hausdorff(points: np.ndarray, xs: np.ndarray, hs: np.ndarray) -> float:
    """Largest distance from a front point in the nonnegative orthant to the
    sampled curve (xs, hs)."""
    window = points[(points[:, 0] >= -1e-9) & (points[:, 1] >= -1e-9)]
    if not len(window):
        return float("inf")
    return float(max(np.min(np.hypot(xs - p[0], hs - p[1])) for p in window))


def _fishery(size_key: str, grid_key: str):
    nodes, n_u, horizon = SIZES[size_key][grid_key]
    params = rt.FisheryParams.default()
    sys_ = rt.build_fishery_system(params, horizon=horizon)
    grid = rt.StateGrid(lower=[0.0], upper=[120.0], counts=[nodes])
    controls = rt.ControlMesh.uniform(0.0, params.u_max, n_u)
    config = {"model": {"kind": "fishery-beverton-holt"}, "horizon": horizon,
              "initial_state": XI,
              "state_grid": {"lower": [0.0], "upper": [120.0], "nodes": [nodes]},
              "control_mesh": {"count": n_u}}
    return params, sys_, grid, controls, config


def _write_config(out_dir: Path, config: dict) -> str:
    # YAML is a superset of JSON, so the CLI reads this as written
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.yaml"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return str(path)


class Workload:
    """Shared bookkeeping; subclasses fill in the inputs and operations."""

    ops_per_round: int
    interp = "multilinear"

    def __init__(self, size: str):
        self.size = SIZES[size]
        self.setup_repeats = self.size["setup_repeats"]
        self.setup_seconds = self.size["setup_seconds"]
        self.report: list[str] = []
        self.problems: list[str] = []

    def systems(self):
        """(sys, grid, controls, xi) of every system the workload solves."""
        raise NotImplementedError

    def setup(self) -> None:
        self.prepared = []
        for s, grid, controls, xi in self.systems():
            comp = rt.compile_system(s, grid, controls, interp=self.interp)
            reach = rt.build_reachable_sets(xi, grid, s, controls, compiled=comp)
            self.prepared.append((comp, reach))

    def callables(self):
        return [f for s, *_ in self.systems()
                for f in (s.dynamics, s.stage_constraints, s.terminal_constraint)]

    def solve(self, i: int, c) -> float:
        """W(xi, c) of system i."""
        s, grid, controls, xi = self.systems()[i]
        comp, reach = self.prepared[i]
        return rt.solve_value(xi, c, s, grid, controls, compiled=comp, reach=reach)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # per-setup / per-round quantities computed from the program's outputs
    def reachable_nodes(self) -> int:
        return sum(int(reach.masks.sum()) for _, reach in self.prepared)

    def compiled_bytes(self) -> int:
        return sum(compiled_bytes(comp) for comp, _ in self.prepared)

    def round_counts(self) -> dict:
        return {}


class FisheryFront(Workload):
    """weak_front over an evenly spaced subset of the default ray mesh."""

    def __init__(self, seed: int, size: str):
        super().__init__(size)
        self.params, self.sys, self.grid, self.controls, self.config = _fishery(
            size, "front_grid")
        spacing, count = self.size["subset"]
        # every (spacing / 0.5)-th point of each axis sweep of the default
        # 0.5-spaced, 200-count mesh
        self.mesh = rt.threshold_ray_mesh(spacing, count, ANCHORS)
        self.config["ray_mesh"] = {"spacing": spacing, "count": count,
                                   "anchors": list(ANCHORS)}
        self.ops_per_round = len(self.mesh)
        rng = np.random.default_rng(seed)
        self.level_idx = rng.choice(len(self.mesh), self.size["level_samples"],
                                    replace=False)
        self.translations = [(rng.uniform([0.0, 0.0], [50.0, 15.0]),
                              float(rng.uniform(-5.0, 5.0)))
                             for _ in range(self.size["translations"])]
        self.fronts = []

    def systems(self):
        return [(self.sys, self.grid, self.controls, XI)]

    def run_round(self):
        comp, reach = self.prepared[0]
        try:
            front = pareto.weak_front(XI, self.mesh, self.sys, self.grid, self.controls,
                                      compiled=comp, reach=reach)
        except PROGRAM_ERRORS:
            _failed_op()
            return self.ops_per_round, self.ops_per_round
        self.fronts.append(front)
        return self.ops_per_round, 0

    def round_counts(self) -> dict:
        f = self.fronts[-1]
        return {"front_points": len(f), "skipped_points": len(f.skipped_sources)}

    def cli_argv(self, out_dir: Path) -> list:
        return ["weak-front", "--config", _write_config(out_dir, self.config),
                "--out", str(out_dir)]

    def check(self) -> None:
        if not self.fronts:
            self.require(False, "no front was computed")
            return
        f = self.fronts[0]
        for g in self.fronts[1:]:
            self.require(_same_front(f, g), "fronts of two rounds differ")
        self.require(len(f.skipped_sources) == 0 and len(f) == len(self.mesh),
                     f"{len(f.skipped_sources)} mesh points skipped")
        self.require(not f.diagnostics, f"front diagnostics: {f.diagnostics}")
        self.require(f.max_residual <= f.front_tol,
                     f"revalidation residual {f.max_residual} > {f.front_tol}")
        x_max = min(XI, *(self.params.K[w] for w in self.params.scenarios))
        err = one_sided_hausdorff(f.points, *robust_boundary(self.params, x_max))
        self.report.append(f"front_error {err:.6g} threshold units "
                           f"(one-sided Hausdorff to H, limit {self.size['front_error_max']})")
        self.require(err <= self.size["front_error_max"],
                     f"front_error {err} > {self.size['front_error_max']}")
        for i in self.level_idx:
            p = f.points[i]
            w = self.solve(0, p)
            self.require(abs(w) <= f.front_tol,
                         f"W at projected point {p.tolist()} is {w}, not within "
                         f"{f.front_tol} of 0")
        for c, t in self.translations:
            w0, w1 = self.solve(0, c), self.solve(0, c + t)
            self.require(abs(w1 - (w0 - t)) <= IDENTITY_TOL,
                         f"W(c + t*1) - (W(c) - t) = {w1 - (w0 - t)} at "
                         f"c = {c.tolist()}, t = {t}")


def _same_front(a, b) -> bool:
    return all(np.array_equal(x, y, equal_nan=True) for x, y in (
        (a.points, b.points), (a.sources, b.sources), (a.values, b.values),
        (a.revalidated, b.revalidated)))


class FisheryStrong(Workload):
    """strong_pareto_point over both permutations from a fixed start set."""

    def __init__(self, seed: int, size: str):
        super().__init__(size)
        self.params, self.sys, self.grid, self.controls, self.config = _fishery(
            size, "strong_grid")
        pairs = [(np.asarray(s), perm) for s in self.size["strong_starts"]
                 for perm in ((0, 1), (1, 0))]
        # the seed only orders the chains: chain cost varies fivefold with
        # the start, so the start set itself stays fixed
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        self.ops_per_round = len(self.pairs)
        self.rounds = []

    def systems(self):
        return [(self.sys, self.grid, self.controls, XI)]

    def run_round(self):
        comp, reach = self.prepared[0]
        chains, failed = [], 0
        for start, perm in self.pairs:
            try:
                chains.append(pareto.strong_pareto_point(
                    XI, start, perm, self.sys, self.grid, self.controls,
                    compiled=comp, reach=reach))
            except PROGRAM_ERRORS:
                _failed_op()
                chains.append(None)
                failed += 1
        self.rounds.append(chains)
        return len(self.pairs), failed

    def round_counts(self) -> dict:
        chains = [c for c in self.rounds[-1] if c is not None]
        return {"fallback_steps": sum(len(c.line_search_steps) for c in chains),
                "steps_walked": sum(len(c.permutation) for c in chains)}

    def cli_argv(self, out_dir: Path) -> list:
        return ["strong-front", "--config", _write_config(out_dir, self.config),
                "--start", "10,2", "--perm", "all", "--out", str(out_dir)]

    def check(self) -> None:
        first = self.rounds[0] if self.rounds else []
        for later in self.rounds[1:]:
            self.require(all(_same_chain(a, b) for a, b in zip(first, later)),
                         "chains of two rounds differ")
        for (start, perm), chain in zip(self.pairs, first):
            if chain is None:
                continue
            where = f"chain from {start.tolist()} perm {perm}"
            self.require(not chain.diagnostics, f"{where}: {chain.diagnostics}")
            steps = np.diff(chain.chain, axis=0)
            self.require(steps.min() >= -IDENTITY_TOL,
                         f"{where}: not monotone (step {steps.min()})")
            for i in range(len(perm)):
                for j in range(i + 1, len(perm) + 1):
                    gap = abs(chain.values[i] - chain.chain[j, perm[i]])
                    self.require(gap <= IDENTITY_TOL,
                                 f"{where}: value identity {i},{j} off by {gap}")
            for c in chain.chain:
                w = self.solve(0, c)
                self.require(w >= 0.0, f"{where}: member {c.tolist()} has W = {w}")
            for i in range(len(perm)):
                raised = chain.endpoint.copy()
                raised[i] += UNDOMINATED_DELTA
                w = self.solve(0, raised)
                self.require(w < 0.0, f"{where}: endpoint {chain.endpoint.tolist()} "
                             f"is dominated along component {i} (W = {w})")
        counts = self.round_counts() if self.rounds else {}
        if counts:
            self.report.append(
                f"chains {self.ops_per_round}, fallback steps "
                f"{counts['fallback_steps']} of {counts['steps_walked']} steps walked")


def _same_chain(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (np.array_equal(a.chain, b.chain) and np.array_equal(a.values, b.values)
            and a.line_search_steps == b.line_search_steps)


class TabularSuite(Workload):
    """Seeded random node-closed tabular systems, W against the closed-loop
    oracle.  ``op`` is the timed operation: "solve" (W) or "oracle"."""

    interp = "nearest"

    def __init__(self, seed: int, size: str, op: str):
        super().__init__(size)
        self.op = op
        rng = np.random.default_rng(seed)
        per_system = self.size["tabular_thresholds"]
        self.suite = []
        # one system of every shape, so the work of a round hardly depends
        # on the seed, which draws the tables, initial states and thresholds
        for n_states, n_u, horizon in self.size["tabular_shapes"]:
            params = rt.TabularParams(
                node_coords=np.arange(n_states, dtype=float),
                transitions=rng.integers(0, n_states, size=(n_states, n_u, 2)),
                stage_values=rng.uniform(-5, 5, size=(n_states, n_u, 2)),
                terminal_values=rng.uniform(-5, 5, size=(n_states, 2)))
            system = (rt.build_tabular_system(params, horizon=horizon),
                      rt.StateGrid(lower=[0.0], upper=[float(n_states - 1)],
                                   counts=[n_states]),
                      rt.ControlMesh(tuple(range(n_u))),
                      float(rng.integers(0, n_states)))
            self.suite.append((system, params,
                               rng.uniform(-6.0, 6.0, size=(per_system, 2))))
        self._systems = [s for s, _, _ in self.suite]
        self.ops_per_round = len(self.suite) * per_system
        self.rounds = []

    def systems(self):
        return self._systems

    def _oracle(self, i: int, c) -> tuple[float, int]:
        s, _, controls, xi = self._systems[i]
        budget = oracle.OracleBudget()
        return oracle.closedloop_maximin(xi, c, s, controls, budget=budget), budget.used

    def _values(self, op: str):
        """Values of one operation over the suite, expansions, failures."""
        vals, expansions, failed = [], 0, 0
        for i, (_, _, thresholds) in enumerate(self.suite):
            for c in thresholds:
                try:
                    if op == "solve":
                        v = self.solve(i, c)
                    else:
                        v, used = self._oracle(i, c)
                        expansions += used
                except PROGRAM_ERRORS:
                    _failed_op()
                    failed += 1
                    v = float("nan")
                vals.append(v)
        return np.asarray(vals), expansions, failed

    def run_round(self):
        vals, expansions, failed = self._values(self.op)
        self.rounds.append((vals, expansions))
        return self.ops_per_round, failed

    def round_counts(self) -> dict:
        return {"expansions": self.rounds[-1][1]}

    def cli_argv(self, out_dir: Path) -> list:
        (s, _, _, xi), params, thresholds = self.suite[-1]
        config = {"model": {"kind": "tabular",
                            "transitions": params.transitions.tolist(),
                            "stage_values": params.stage_values.tolist(),
                            "terminal_values": params.terminal_values.tolist()},
                  "horizon": s.horizon, "initial_state": xi,
                  "options": {"interpolation": "nearest"}}
        c = ",".join(repr(float(v)) for v in thresholds[0])
        command = "value" if self.op == "solve" else "oracle-check"
        # one argument, since a negative threshold would read as an option
        return [command, "--config", _write_config(out_dir, config),
                f"--threshold={c}", "--out", str(out_dir)]

    def check(self) -> None:
        if not self.rounds:
            self.require(False, "no round was run")
            return
        first = self.rounds[0][0]
        for vals, _ in self.rounds[1:]:
            self.require(np.array_equal(vals, first, equal_nan=True),
                         "values of two rounds differ")
        other = self._values("oracle" if self.op == "solve" else "solve")[0]
        w, o = (first, other) if self.op == "solve" else (other, first)
        ok = ~(np.isnan(w) | np.isnan(o))
        gap = float(np.max(np.abs(w[ok] - o[ok]), initial=0.0))
        self.report.append(f"max |W - closed-loop oracle| {gap:.3g} over "
                           f"{int(ok.sum())} thresholds (limit {ORACLE_TOL})")
        self.require(gap <= ORACLE_TOL, f"W differs from the oracle by {gap}")


WORKLOADS = {
    "fishery-front": FisheryFront,
    "fishery-strong": FisheryStrong,
    "tabular-suite": lambda seed, size: TabularSuite(seed, size, op="solve"),
    "tabular-oracle": lambda seed, size: TabularSuite(seed, size, op="oracle"),
}
