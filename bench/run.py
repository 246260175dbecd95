"""Benchmark of robust-thresholds, run from the root of a checkout:

    python3 bench/run.py --workload fishery-front --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout.  A run sets the
workload up several times (the median is ``setup_s``), repeats whole rounds
of its operations until ``--seconds`` have passed, checks every output, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_program():
    """Import robust_thresholds from the checkout's src/, and from nowhere else."""
    if not (SRC / "robust_thresholds" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import robust_thresholds
    if Path(robust_thresholds.__file__).resolve().parent != SRC / "robust_thresholds":
        raise SystemExit(f"error: imported {robust_thresholds.__file__}, not {SRC}")


def measure(workload, seconds: float):
    """Run whole rounds until ``seconds`` have passed; (round times, attempted, failed)."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        a, f = workload.run_round()
        times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        if time.perf_counter() - start >= seconds:
            return times, attempted, failed


def set_up(workload) -> list:
    """Set the workload up at least ``setup_repeats`` times and for at least
    ``setup_seconds``; the set-up times."""
    times = []
    while len(times) < workload.setup_repeats or sum(times) < workload.setup_seconds:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float):
    setup_times = set_up(workload)
    round_times, attempted, failed = measure(workload, seconds)
    workload.check()
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        # work completed over the whole measured window: the host's speed
        # shifts for seconds at a time, and a median of rounds would jump
        # between its levels where the mean moves smoothly
        "ops_per_s": metric(workload.ops_per_round * len(round_times) / sum(round_times),
                            "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"samples: {len(setup_times)} set-ups, {len(round_times)} rounds of "
          f"{workload.ops_per_round} operations")
    return attempted, failed, metrics


def per_layer(workload, seconds: float, name: str, seed: int):
    import robust_thresholds as rt
    from robust_thresholds import cli, config, dp, fishery, mesh, model, oracle, pareto

    from tracing import LAYERS, Tracer
    from workloads import sweep_cost

    tracer = Tracer()
    costs = {}

    def on_sweep(args, kwargs):
        compiled = kwargs.get("compiled", args[0] if args else None)
        reach = kwargs.get("reach", args[1] if len(args) > 1 else None)
        key = (id(compiled), id(reach))
        if key not in costs:
            costs[key] = sweep_cost(compiled, reach)
        cells, nbytes = costs[key]
        tracer.cell_updates[tracer.phase] += cells
        tracer.gather_bytes[tracer.phase] += nbytes

    tracer.hooks["dp.sweep_scores"] = on_sweep
    modules = {"model": model, "fishery": fishery, "mesh": mesh, "dp": dp,
               "pareto": pareto, "oracle": oracle, "config": config, "cli": cli}
    out_dir = OUT / f"cli-{name}"

    @contextlib.contextmanager
    def tracing(phase: str):
        tracer.phase = phase
        tracer.install(rt, modules, callables=workload.callables())
        try:
            yield
        finally:
            tracer.uninstall()
            tracer.phase = "idle"

    with tracing("setup"):
        setups = len(set_up(workload))
    # untraced and traced rounds alternate, so that the tracing overhead
    # compares rounds run under the same load of the machine
    plain, traced, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        on = len(plain) > len(traced)
        with tracing("round") if on else contextlib.nullcontext():
            t0 = time.perf_counter()
            a, f = workload.run_round()
            (traced if on else plain).append(time.perf_counter() - t0)
        attempted += a
        failed += f
    with tracing("cli"), contextlib.redirect_stdout(io.StringIO()) as cli_out:
        code = cli.main(workload.cli_argv(out_dir))
    tracer.finish()
    workload.check()
    workload.require(code == 0, f"cli exited with {code}: {cli_out.getvalue()[-500:]}")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json")

    rounds = len(traced)

    def unit(table: dict, key) -> float:
        """One set-up plus one round."""
        return table[("setup", key)] / setups + table[("round", key)] / rounds

    def calls(fn: str) -> float:
        return unit(tracer.calls, fn)

    def secs(*fns: str) -> float:
        return sum(unit(tracer.total, fn) for fn in fns)

    def median_s(fn: str) -> float:
        d = tracer.durations("round", fn)
        return statistics.median(d) if d else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def phase_unit(table: dict) -> float:
        return table["setup"] / setups + table["round"] / rounds

    counts = workload.round_counts()
    steps = counts.get("steps_walked", 0)
    fallback = counts.get("fallback_steps", 0)
    sweeps_round = tracer.calls[("round", "dp.sweep_scores")]
    front_s_round = tracer.total[("round", "pareto.weak_front")]
    closed_s_round = tracer.total[("round", "oracle.closedloop_maximin")]
    m = {
        "mesh.reach_s": (secs("mesh.build_reachable_sets"), "s"),
        "mesh.locate_calls": (calls("mesh.StateGrid.locate"), "count"),
        "mesh.locate_s": (secs("mesh.StateGrid.locate"), "s"),
        "mesh.reachable_nodes": (workload.reachable_nodes(), "count"),
        "dp.compile_s": (secs("dp.compile_system"), "s"),
        "dp.compiled_bytes": (workload.compiled_bytes(), "bytes"),
        "dp.w_solves": (calls("dp.backward_recursion"), "count"),
        "dp.solve_s": (median_s("dp.backward_recursion"), "s"),
        "dp.sweep_scores_calls": (calls("dp.sweep_scores"), "count"),
        "dp.sweep_scores_s": (secs("dp.sweep_scores"), "s"),
        "dp.cell_updates": (phase_unit(tracer.cell_updates), "count"),
        "dp.cell_updates_per_s": (ratio(tracer.cell_updates["round"],
                                        tracer.total[("round", "dp.sweep_scores")]), "1/s"),
        "dp.gather_bytes": (ratio(tracer.gather_bytes["round"], sweeps_round), "bytes"),
        "dp.scores_s": (secs(*(f"dp.CompiledSystem.{f}" for f in (
            "slack_scores", "terminal_slack_scores", "masked_component_scores",
            "component_scores"))), "s"),
        "dp.sweep_policy_calls": (calls("dp.sweep_policy"), "count"),
        "dp.sweep_policy_s": (secs("dp.sweep_policy"), "s"),
        "pareto.weak_front_s": (secs("pareto.weak_front"), "s"),
        "pareto.front_points": (counts.get("front_points", 0), "count"),
        "pareto.skipped_points": (counts.get("skipped_points", 0), "count"),
        "pareto.cpu_per_wall": (ratio(tracer.cpu["round"], front_s_round), "ratio"),
        "pareto.constrained_calls": (calls("pareto.constrained_maximin_value"), "count"),
        "pareto.constrained_s": (secs("pareto.constrained_maximin_value"), "s"),
        "pareto.policy_threshold_s": (secs("pareto.threshold_of_policy"), "s"),
        "pareto.chain_w_solves": (phase_unit(tracer.chain_w_solves), "count"),
        "pareto.fallback_steps": (fallback, "count"),
        "pareto.steps_walked": (steps, "count"),
        "pareto.masked_step_yield": (ratio(steps - fallback, steps), "ratio"),
        "oracle.closedloop_calls": (calls("oracle.closedloop_maximin"), "count"),
        "oracle.closedloop_s": (secs("oracle.closedloop_maximin"), "s"),
        "oracle.expansions": (counts.get("expansions", 0), "count"),
        "oracle.expansions_per_s": (ratio(counts.get("expansions", 0) * rounds,
                                          closed_s_round), "1/s"),
        "model.evals": (calls("model.callable"), "count"),
        "model.eval_s": (secs("model.callable"), "s"),
        "cli.overhead_s": (tracer.layer_self[("cli", "cli")], "s"),
        "trace.overhead_pct": (100.0 * (statistics.fmean(traced) / statistics.fmean(plain)
                                        - 1.0), "%"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (phase_unit({p: tracer.layer_self[(p, layer)]
                                                for p in ("setup", "round")}), "s")
    print(f"samples: {setups} traced set-ups, {rounds} traced and {len(plain)} "
          f"untraced rounds; mean round {statistics.fmean(traced):.6g} s traced, "
          f"{statistics.fmean(plain):.6g} s untraced")
    return attempted, failed, {k: metric(v, u) for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small grids and suites, for the smoke test")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.size)
    if args.trace:
        attempted, failed, metrics = per_layer(workload, args.seconds, args.workload,
                                               args.seed)
    else:
        attempted, failed, metrics = end_to_end(workload, args.seconds)
    for line in workload.report:
        print(line)
    for problem in workload.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not workload.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
