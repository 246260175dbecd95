"""Count the stage-kernel calls and the rows they sweep on fixed cases.

    python3 scripts/kernel_rows.py              # every case
    python3 scripts/kernel_rows.py fishery-front tabular-suite

Each case runs once with ``dp._stage_kernel`` and ``dp.solve_batch``
wrapped by counters, and prints the ``solve_batch`` sweeps, the kernel
calls, the rows swept (a row is one grid node of one stage, over every
control and scenario), the lane-rows (rows times the thresholds a call
solves at once) and the wall time:

- ``fishery-front``: one round of the benchmark's ``fishery-front``
  workload, the 10-point subset of the default ray mesh;
- ``default-front``: the same workload's weak front over the whole default
  ray mesh (spacing 0.5, 200 steps, 402 points) on the 600/200/50 fishery;
- ``fishery-strong``: one round of the ``fishery-strong`` workload;
- ``tabular-suite``: one round of the ``tabular-suite`` workload.

The workloads come from ``bench/workloads.py`` (seed 1, full size), which
this script only imports, and the program from ``src/`` of the same
checkout, so running it in two checkouts compares their kernels.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _cases():
    import robust_thresholds as rt
    from workloads import ANCHORS, WORKLOADS

    def default_front():
        w = WORKLOADS["fishery-front"](SEED, "full")
        w.mesh = rt.threshold_ray_mesh(0.5, 200, ANCHORS)
        return w

    return {"fishery-front": lambda: WORKLOADS["fishery-front"](SEED, "full"),
            "default-front": default_front,
            "fishery-strong": lambda: WORKLOADS["fishery-strong"](SEED, "full"),
            "tabular-suite": lambda: WORKLOADS["tabular-suite"](SEED, "full")}


def count(make) -> tuple[int, int, int, int, float]:
    """(``solve_batch`` sweeps, kernel calls, rows swept, lane-rows,
    seconds) of one round of ``make()``."""
    from robust_thresholds import dp

    workload = make()
    workload.setup()
    sweeps = calls = rows = lane_rows = 0
    kernel, solve_batch = dp._stage_kernel, dp.solve_batch

    def counted(stage, n):
        nonlocal calls, rows, lane_rows
        calls += 1
        rows += stage.r1 - stage.r0
        lane_rows += (stage.r1 - stage.r0) * stage.K
        return kernel(stage, n)

    def counted_batch(*args):
        nonlocal sweeps
        sweeps += 1
        return solve_batch(*args)

    dp._stage_kernel, dp.solve_batch = counted, counted_batch
    try:
        t0 = time.perf_counter()
        _, failed = workload.run_round()
        seconds = time.perf_counter() - t0
    finally:
        dp._stage_kernel, dp.solve_batch = kernel, solve_batch
    if failed:
        raise SystemExit(f"error: {failed} operations failed")
    return sweeps, calls, rows, lane_rows, seconds


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    cases = _cases()
    names = (argv if argv is not None else sys.argv[1:]) or list(cases)
    unknown = sorted(set(names) - set(cases))
    if unknown:
        raise SystemExit(f"error: unknown case {unknown}; one of {sorted(cases)}")
    print(f"{'case':<16}{'sweeps':>8}{'calls':>10}{'rows':>14}{'lane-rows':>14}"
          f"{'seconds':>10}")
    for name in names:
        sweeps, calls, rows, lane_rows, seconds = count(cases[name])
        print(f"{name:<16}{sweeps:>8,}{calls:>10,}{rows:>14,}{lane_rows:>14,}"
              f"{seconds:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
