"""Command line interface: configuration in, CSV artifacts out.

Commands
    weak-front        trace the weak Pareto front and reconstruct the set
    strong-front      walk sequential chains to strong Pareto maxima
    membership        decide one threshold, optionally cross-checked by oracles
    value             print the maximin value W(xi, c) for one threshold
    oracle-check      compare the solver against all brute-force oracles
    analytic-fishery  emit the closed-form benchmark curves for overlays

Every output file starts with a comment header embedding the fully resolved
configuration.  The exit code is 0 only when every postcondition validation
passed (1 for validation failures, 2 for errors).
"""

from __future__ import annotations

import argparse
import itertools
import sys as _sys
from pathlib import Path

import numpy as np

from . import dp, oracle, pareto
from .config import Problem, build_problem, parse_config, serialize
from .fishery import robust_boundary
from .mesh import INTERP_MODES, build_reachable_sets
from .model import as_threshold

__all__ = ["main"]

# |W - closed-loop oracle| allowed on nearest-node tabular models
ORACLE_TOL = 1e-12


def _fmt(x) -> str:
    return repr(float(x))


def _header(command: str, problem: Problem) -> str:
    lines = [f"# robust-thresholds {command}", "# config:"]
    lines += [f"#   {line}" for line in serialize(problem.config).rstrip().splitlines()]
    return "\n".join(lines) + "\n"


def _write(path: Path, header: str, column_names: list, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(",".join(column_names) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _prepare(problem: Problem):
    """Compile the discretization and reachable sets once per run."""
    compiled = dp.compile_system(problem.sys, problem.grid, problem.controls,
                                 interp=problem.config["options"]["interpolation"])
    return compiled, build_reachable_sets(problem.xi, problem.grid, problem.sys,
                                          problem.controls, compiled=compiled)


def _flag_overrides(args) -> dict:
    """The keys the command line flags set, as ``parse_config`` overrides;
    an unset flag leaves the document's value."""
    flags = {"output_dir": args.out, "options.jobs": args.jobs,
             "options.interpolation": args.interp,
             "options.oracle": getattr(args, "oracle", False) or None}
    return {key: value for key, value in flags.items() if value is not None}


def _load_problem(args) -> Problem:
    return build_problem(parse_config(Path(args.config).read_text(),
                                      _flag_overrides(args)))


def _parse_threshold(text: str, m: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"threshold {text!r} is not a comma-separated vector") from exc
    return as_threshold(vals, m)


def _solve(args):
    """Load the problem, parse ``--threshold`` and solve W(xi, c) once.

    Returns (problem, c, value tables, W), W read off the tables."""
    problem = _load_problem(args)
    c = _parse_threshold(args.threshold, problem.sys.threshold_dim)
    compiled, reach = _prepare(problem)
    tables = dp.backward_recursion(problem.sys, problem.grid, problem.controls,
                                   reach, c, compiled=compiled)
    return problem, c, tables, dp.robust_value(problem.xi, tables)


def _oracles(problem: Problem, c):
    """Closed-loop value, open-loop value, exhaustive membership and the
    expansions they used together, under one budget."""
    budget = oracle.OracleBudget(problem.config["options"]["oracle_budget"])
    query = (problem.xi, c, problem.sys, problem.controls)
    cl = oracle.closedloop_maximin(*query, budget=budget)
    ol = oracle.openloop_maximin(*query, budget=budget)
    ex = oracle.exhaustive_membership(*query, budget=budget)
    return cl, ol, ex, budget.used


def _oracle_disagreement(problem: Problem, w: float, cl: float) -> str | None:
    """A message when W must equal the closed-loop oracle but does not.

    A tabular model solved with nearest-node interpolation moves node to
    node, so its grid solve carries no discretization error and equals the
    oracle up to ``ORACLE_TOL``; other models are not compared."""
    cfg = problem.config
    if (cfg["model"]["kind"] == "tabular"
            and cfg["options"]["interpolation"] == "nearest"
            and abs(w - cl) > ORACLE_TOL):
        return (f"solver W differs from the closed-loop oracle by {_fmt(w - cl)} "
                f"on a nearest-node tabular model")
    return None


# -- commands ----------------------------------------------------------------


def cmd_weak_front(args) -> int:
    problem = _load_problem(args)
    cfg = problem.config
    compiled, reach = _prepare(problem)
    front = pareto.weak_front(problem.xi, problem.ray_mesh, problem.sys,
                              problem.grid, problem.controls,
                              front_tol=cfg["tolerances"]["front"],
                              compiled=compiled, reach=reach,
                              jobs=cfg["options"]["jobs"])
    out = Path(cfg["output_dir"])
    header = _header("weak-front", problem)
    m = problem.sys.threshold_dim

    cols = [f"c_{j + 1}" for j in range(m)] + ["W"] + [f"p_{j + 1}" for j in range(m)]
    rows = [(*front.sources[i], front.values[i], *front.points[i])
            for i in range(len(front))]
    _write(out / "front.csv", header, cols, rows)

    # a file this run does not write is removed, so no earlier run's copy
    # sits beside outputs it does not belong to
    notes = list(front.diagnostics)
    if len(front):
        _write(out / "set_membership.csv", header,
               [f"c_{j + 1}" for j in range(m)] + ["member"],
               [(*c, int(flag)) for c, flag in _membership_sample(front, problem)])
    else:
        (out / "set_membership.csv").unlink(missing_ok=True)
        notes.append("the front is empty, so set_membership.csv is not written")

    if cfg["model"]["kind"] == "fishery-beverton-holt":
        _write_analytic(out / "analytic_fishery.csv", header, problem)
    else:
        (out / "analytic_fishery.csv").unlink(missing_ok=True)
    _emit_plot_script(out)

    if getattr(args, "debug_export", False):
        _write(out / "reachable_sets.csv", header,
               ["stage", "node", *(f"x_{d + 1}" for d in range(problem.grid.dim))],
               reach.to_rows())
    else:
        (out / "reachable_sets.csv").unlink(missing_ok=True)

    for note in notes:
        print(f"warning: {note}")
    print(f"front: {len(front)} points "
          f"({len(front.skipped_sources)} mesh points skipped), "
          f"max revalidation residual {front.max_residual:.3g} "
          f"(tolerance {front.front_tol:.3g})")
    print(f"wrote {out / 'front.csv'}")
    # an empty front has skipped every mesh point, so it has diagnostics too
    return 1 if front.diagnostics else 0


def _membership_sample(front: pareto.FrontResult, problem: Problem):
    """Reconstruction sample on a regular threshold grid below the anchors,
    41 values per axis."""
    m = problem.sys.threshold_dim
    hi = np.asarray(problem.config["ray_mesh"]["anchors"], dtype=float)
    axes = [np.linspace(0.0, hi[j], 41) for j in range(m)]
    out = []
    for c in itertools.product(*axes):
        out.append((c, front.contains(np.asarray(c))))
    return out


def _write_analytic(path: Path, header: str, problem: Problem) -> None:
    params = problem.params
    xi = float(problem.xi)
    xs = np.linspace(0.0, max(params.K[w] for w in params.scenarios), 501)
    rows = [(x, *(float(params.surplus(x, w)) for w in params.scenarios),
             robust_boundary(params, xi, x)) for x in xs]
    cols = ["x"] + [f"sigma_{w}" for w in params.scenarios] + ["robust_boundary"]
    _write(path, header, cols, rows)


_PLOT_SCRIPT = '''"""Plot the traced front (run from the output directory)."""
import csv

import matplotlib.pyplot as plt


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    head, data = rows[0], rows[1:]
    cols = {name: [float(r[i]) if r[i] != "nan" else float("nan") for r in data]
            for i, name in enumerate(head)}
    return cols

front = read_csv("front.csv")
fig, ax = plt.subplots(figsize=(7, 6))
ax.plot(front["p_1"], front["p_2"], "g.", markersize=4, label="computed weak front")
ANALYTIC = True
try:
    ana = read_csv("analytic_fishery.csv")
except OSError:
    ANALYTIC = False
if ANALYTIC:
    ax.plot(ana["x"], ana["sigma_a"], "r--", linewidth=1, label="surplus, scenario a")
    ax.plot(ana["x"], ana["sigma_b"], "b--", linewidth=1, label="surplus, scenario b")
    ax.plot(ana["x"], ana["robust_boundary"], "k-", linewidth=1.5,
            label="robust boundary H")
ax.set_xlabel("stock floor")
ax.set_ylabel("harvest floor")
ax.set_xlim(left=0)
ax.set_ylim(bottom=0)
ax.legend()
fig.tight_layout()
fig.savefig("front.png", dpi=150)
print("wrote front.png")
'''


def _emit_plot_script(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "plot_front.py").write_text(_PLOT_SCRIPT)


def _parse_perms(text: str, m: int) -> list:
    """The 0-based component orders of ``--perm``: every one for "all", else
    the one 1-based permutation of 1..m given."""
    if text == "all":
        return list(itertools.permutations(range(m)))
    try:
        perm = tuple(int(v) - 1 for v in text.split(","))
    except ValueError:
        perm = ()
    if sorted(perm) != list(range(m)):
        raise ValueError(f"--perm {text!r} is neither 'all' nor a permutation of 1..{m}")
    return [perm]


def cmd_strong_front(args) -> int:
    problem = _load_problem(args)
    cfg = problem.config
    m = problem.sys.threshold_dim
    c0 = _parse_threshold(args.start, m)
    perms = _parse_perms(args.perm, m)
    compiled, reach = _prepare(problem)
    # every chain is walked before any file changes, so a run that fails
    # leaves an earlier run's chains as they were
    chains = [pareto.strong_pareto_point(
        problem.xi, c0, perm, problem.sys, problem.grid, problem.controls,
        compiled=compiled, reach=reach, membership_tol=cfg["tolerances"]["membership"])
        for perm in perms]
    out = Path(cfg["output_dir"])
    labels = ["-".join(str(i + 1) for i in perm) for perm in perms]
    # drop the chains an earlier run left of permutations this run skips
    written = {f"strong_chain_{label}.csv" for label in labels}
    for path in out.glob("strong_chain_*.csv"):
        if path.name not in written:
            path.unlink()
    header = _header("strong-front", problem)
    failed = False
    for perm, label, chain in zip(perms, labels, chains):
        cols = (["i", "sigma_i"] + [f"c_{j + 1}" for j in range(m)] + ["value"])
        rows = [(0, "", *chain.chain[0], float("nan"))]
        for i in range(m):
            rows.append((i + 1, perm[i] + 1, *chain.chain[i + 1], chain.values[i]))
        _write(out / f"strong_chain_{label}.csv", header, cols, rows)
        print(f"permutation ({label}): endpoint "
              f"{[round(v, 6) for v in chain.endpoint.tolist()]}, "
              f"monotone residual {chain.residual_monotone:.3g}, "
              f"identity residual {chain.residual_identity:.3g}")
        for note in chain.diagnostics:
            print(f"warning: {note}")
            failed = True
    print(f"wrote chains to {out}")
    return 1 if failed else 0


def cmd_membership(args) -> int:
    problem, c, tables, w = _solve(args)
    cfg = problem.config
    tol = cfg["tolerances"]["membership"]
    lines = [f"W(xi, c) = {_fmt(w)}", f"membership (tol {tol}): {w >= -tol}"]
    disagreement = None
    if cfg["options"]["oracle"]:
        cl, ol, ex, used = _oracles(problem, c)
        lines += [f"oracle closed-loop value = {_fmt(cl)}",
                  f"oracle open-loop value  = {_fmt(ol)}",
                  f"oracle exhaustive membership = {ex}",
                  f"oracle expansions used = {used}"]
        disagreement = _oracle_disagreement(problem, w, cl)
        if disagreement:
            lines.append(f"error: {disagreement}")
    report = "\n".join(lines)
    print(report)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "membership_report.txt").write_text(
        _header("membership", problem) + report + "\n")
    if getattr(args, "debug_export", False):
        coords = problem.grid.node_coordinates()
        rows = []
        for t in tables:
            for i in np.flatnonzero(t.populated):
                rows.append((t.stage, *coords[i], t.values[i]))
        _write(out / "value_tables.csv", _header("membership", problem),
               ["stage", *(f"x_{d + 1}" for d in range(problem.grid.dim)), "value"],
               rows)
    else:
        (out / "value_tables.csv").unlink(missing_ok=True)
    return 1 if disagreement else 0


def cmd_value(args) -> int:
    print(_fmt(_solve(args)[-1]))
    return 0


def cmd_oracle_check(args) -> int:
    problem, c, _, w = _solve(args)
    cl, ol, ex, used = _oracles(problem, c)
    print(f"solver W                 = {_fmt(w)}")
    print(f"closed-loop oracle       = {_fmt(cl)}  (gap {_fmt(w - cl)})")
    print(f"open-loop oracle         = {_fmt(ol)}  (information gap {_fmt(cl - ol)})")
    print(f"exhaustive membership    = {ex}")
    print(f"expansions used          = {used}")
    failed = False
    if ol > cl + 1e-9:
        print("warning: open-loop value exceeds closed-loop value")
        failed = True
    disagreement = _oracle_disagreement(problem, w, cl)
    if disagreement:
        print(f"error: {disagreement}")
        failed = True
    return 1 if failed else 0


def cmd_analytic_fishery(args) -> int:
    problem = _load_problem(args)
    if problem.config["model"]["kind"] != "fishery-beverton-holt":
        raise ValueError("analytic-fishery requires a fishery model")
    out = Path(problem.config["output_dir"])
    _write_analytic(out / "analytic_fishery.csv",
                    _header("analytic-fishery", problem), problem)
    params = problem.params
    for w in params.scenarios:
        print(f"scenario {w}: msy stock = {params.msy_stock(w):.6g}, "
              f"msy harvest = {params.msy_harvest(w):.6g}")
    print(f"wrote {out / 'analytic_fishery.csv'}")
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the YAML configuration")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--jobs", type=int, help="parallel workers over thresholds")
    p.add_argument("--interp", choices=INTERP_MODES,
                   help="interpolation mode override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-thresholds",
        description="Robust sustainable threshold sets of uncertain "
                    "discrete-time control systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weak-front", help="trace the weak Pareto front")
    _add_common(p)
    p.add_argument("--debug-export", action="store_true",
                   help="also export reachable sets as CSV")
    p.set_defaults(func=cmd_weak_front)

    p = sub.add_parser("strong-front", help="sequential strong Pareto chains")
    _add_common(p)
    p.add_argument("--start", required=True,
                   help="sustainable starting threshold, e.g. '10,2'")
    p.add_argument("--perm", default="all",
                   help="component order (1-based, e.g. '2,1') or 'all'")
    p.set_defaults(func=cmd_strong_front)

    p = sub.add_parser("membership", help="decide one threshold")
    _add_common(p)
    p.add_argument("--threshold", required=True, help="threshold vector 'c1,c2,...'")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with brute-force oracles")
    p.add_argument("--debug-export", action="store_true",
                   help="also export value tables as CSV")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("value", help="print W(xi, c)")
    _add_common(p)
    p.add_argument("--threshold", required=True, help="threshold vector 'c1,c2,...'")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("oracle-check", help="solver versus brute-force oracles")
    _add_common(p)
    p.add_argument("--threshold", required=True, help="threshold vector 'c1,c2,...'")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("analytic-fishery", help="closed-form benchmark curves")
    _add_common(p)
    p.set_defaults(func=cmd_analytic_fishery)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, oracle.BudgetExceededError,
            pareto.InfeasibleThresholdError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
