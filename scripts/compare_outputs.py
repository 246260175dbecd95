"""Byte-for-byte comparison of the CLI outputs of two commits.

    python3 scripts/compare_outputs.py --parent 449aa5b --change HEAD

Each commit is exported with ``git archive`` (``bench_pairs.export``) into
its own directory under a temporary one.  In each export the same list of
CLI invocations (``RUNS``) runs from the export's root, with the same
configuration files and the same relative ``--out``, so the embedded
configuration headers agree too.  Every output file, stdout, stderr or
exit code that differs between the two sides is printed, a text item
with the first lines of its unified diff; the exit code is 1 on any
difference, else 0.  The default ``weak-front`` takes about half a minute
per side.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

CONFIGS = {
    "default.yaml": """\
model: {kind: fishery-beverton-holt}
horizon: 50
initial_state: 60.0
""",
    "coarse.yaml": """\
model: {kind: fishery-beverton-holt}
horizon: 8
initial_state: 60.0
state_grid: {nodes: [121]}
control_mesh: {count: 41}
""",
    "tabular.yaml": """\
model:
  kind: tabular
  transitions: [[[0, 1], [1, 1]], [[1, 0], [0, 1]]]
  stage_values: [[[1.0, 2.0], [0.5, 3.0]], [[2.0, 1.0], [1.5, 0.0]]]
  terminal_values: [[5.0, 5.0], [5.0, 5.0]]
horizon: 2
initial_state: 0
ray_mesh: {spacing: 0.5, count: 10}
options: {interpolation: nearest}
""",
    # every fishery key, set to something other than its default; integers
    # where the header writes floats
    "fishery-all-keys.yaml": """\
model:
  kind: fishery-beverton-holt
  r_a: 0.5
  r_b: 2
  K_a: 80
  K_b: 50.0
  u_max: 30
  m_big: 1.0e+5
  scenarios: [b]
horizon: 4
initial_state: 40
state_grid: {lower: [0], upper: [100], nodes: 41}
control_mesh: {values: [0, 2.5, 5, 7.5, 10, 15, 20, 30]}
ray_mesh: {spacing: 2, count: 12, anchors: [110, 40]}
tolerances: {membership: 1.0e-9, front: 0.5}
options:
  interpolation: multilinear
  oracle: true
  jobs: 1
  oracle_budget: 2000000
output_dir: never-used
""",
    # per-stage (4-axis) tables, integer stage values, a control count
    "tabular-stages.yaml": """\
model:
  kind: tabular
  transitions: [[[[1, 1], [2, 1], [2, 0]], [[1, 1], [0, 1], [1, 0]],
                 [[0, 2], [0, 2], [2, 0]]],
                [[[0, 2], [0, 0], [2, 2]], [[1, 0], [0, 2], [0, 2]],
                 [[1, 2], [0, 1], [0, 0]]],
                [[[2, 1], [2, 0], [0, 2]], [[2, 0], [2, 1], [1, 1]],
                 [[2, 0], [2, 1], [0, 2]]]]
  stage_values: [[[[4, 2], [4, 3], [3, 2]], [[3, 0], [0, 3], [2, 3]],
                  [[1, 4], [2, 0], [1, 4]]],
                 [[[0, 4], [0, 4], [0, 4]], [[3, 3], [3, 1], [2, 0]],
                  [[4, 3], [4, 3], [3, 3]]],
                 [[[0, 0], [0, 4], [4, 1]], [[0, 0], [3, 4], [0, 3]],
                  [[0, 2], [3, 3], [0, 4]]]]
  terminal_values: [[1, 3], [4, 2], [3, 2]]
horizon: 2
initial_state: 1
control_mesh: {count: 2}
ray_mesh: {spacing: 0.5, count: 8}
options: {interpolation: nearest, oracle: true}
""",
    "tabular-values.yaml": """\
model:
  kind: tabular
  transitions: [[[0, 1], [1, 1]], [[1, 0], [0, 1]]]
  stage_values: [[[1.0, 2.0], [0.5, 3.0]], [[2.0, 1.0], [1.5, 0.0]]]
  terminal_values: [[5.0, 5.0], [5.0, 5.0]]
horizon: 3
initial_state: [1]
control_mesh: {values: [1, 0.0]}
ray_mesh: {spacing: 0.25, count: 6, anchors: [4, 4]}
""",
    # one error each: stderr and exit code are compared
    "error-ray-spacing.yaml": """\
model: {kind: fishery-beverton-holt}
horizon: 2
initial_state: 60.0
ray_mesh: {spacing: -0.5}
""",
    "error-initial-state.yaml": """\
model: {kind: fishery-beverton-holt}
horizon: 2
initial_state: 500.0
""",
    "error-anchor-count.yaml": """\
model: {kind: fishery-beverton-holt}
horizon: 2
initial_state: 60.0
ray_mesh: {anchors: [130.0, 60.0, 1.0]}
""",
    "error-control-value.yaml": """\
model: {kind: fishery-beverton-holt}
horizon: 2
initial_state: 60.0
control_mesh: {values: [0.0, 50.0]}
""",
}

# (name, command, config, extra arguments); each writes to out/<name>
RUNS = (
    ("weak-front-default", "weak-front", "default.yaml", ()),
    ("strong-front-coarse", "strong-front", "coarse.yaml",
     ("--start", "10,2", "--perm", "all")),
    # the masked constrained sweeps at the documented default grid
    ("strong-front-default", "strong-front", "default.yaml",
     ("--start", "10,2", "--perm", "all")),
    ("membership-tabular", "membership", "tabular.yaml",
     ("--threshold", "0.5,0.75", "--debug-export")),
    ("membership-coarse", "membership", "coarse.yaml",
     ("--threshold", "10,2", "--debug-export")),
    ("weak-front-tabular", "weak-front", "tabular.yaml", ("--debug-export",)),
    ("analytic-fishery", "analytic-fishery", "default.yaml", ()),
    ("value-fishery-all-keys", "value", "fishery-all-keys.yaml", ("--threshold", "5,2")),
    ("membership-fishery-all-keys", "membership", "fishery-all-keys.yaml",
     ("--threshold", "5,2")),
    ("weak-front-fishery-all-keys", "weak-front", "fishery-all-keys.yaml", ()),
    ("weak-front-flags", "weak-front", "coarse.yaml",
     ("--jobs", "2", "--interp", "nearest")),
    ("strong-front-bad-perm", "strong-front", "coarse.yaml",
     ("--start", "10,2", "--perm", "1,1")),
    ("oracle-check-tabular-stages", "oracle-check", "tabular-stages.yaml",
     ("--threshold", "1,1")),
    ("membership-tabular-stages", "membership", "tabular-stages.yaml",
     ("--threshold", "0.5,1")),
    ("value-tabular-values", "value", "tabular-values.yaml", ("--threshold", "0.5,0.5")),
    ("membership-oracle-tabular-values", "membership", "tabular-values.yaml",
     ("--threshold", "0.5,0.5", "--oracle")),
    ("weak-front-tabular-values", "weak-front", "tabular-values.yaml", ()),
    *((f"value-{name[:-5]}", "value", name, ("--threshold", "1,1"))
      for name in ("error-ray-spacing.yaml", "error-initial-state.yaml",
                   "error-anchor-count.yaml", "error-control-value.yaml")),
)


def run_all(checkout: Path) -> dict:
    """{(run, item): bytes} of every output file, stdout, stderr and exit
    code of ``RUNS`` in ``checkout``."""
    (checkout / "configs").mkdir()
    for name, text in CONFIGS.items():
        (checkout / "configs" / name).write_text(text)
    env = dict(os.environ, PYTHONPATH="src")
    outputs = {}
    for name, command, config, extra in RUNS:
        out = Path("out") / name
        proc = subprocess.run(
            [sys.executable, "-m", "robust_thresholds.cli", command,
             "--config", f"configs/{config}", "--out", str(out), *extra],
            cwd=checkout, env=env, capture_output=True)
        outputs[(name, "exit code")] = str(proc.returncode).encode()
        outputs[(name, "stdout")] = proc.stdout
        outputs[(name, "stderr")] = proc.stderr
        for path in sorted((checkout / out).rglob("*")):
            if path.is_file():
                outputs[(name, str(path.relative_to(checkout / out)))] = path.read_bytes()
    return outputs


def diff_lines(parent: bytes, change: bytes) -> list:
    """At most 10 lines of the unified diff of two text items, with no
    context lines; none when either is not UTF-8 text."""
    try:
        old, new = parent.decode(), change.decode()
    except UnicodeDecodeError:
        return []
    lines = list(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                      lineterm="", n=0))[2:]  # no file names
    if len(lines) > 10:
        lines = lines[:9] + [f"... {len(lines) - 9} more lines"]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit of the parent side")
    ap.add_argument("--change", required=True, help="commit of the change side")
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the exports (default: a temporary one)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.work, prefix="compare-outputs-") as work:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            checkout = Path(work) / side
            commit = export(rev, checkout)
            print(f"{side}: {commit}", flush=True)
            sides[side] = run_all(checkout)
    parent, change = sides["parent"], sides["change"]
    differ = [key for key in sorted(parent.keys() | change.keys())
              if parent.get(key) != change.get(key)]
    for name, item in differ:
        state = ("only in the parent" if (name, item) not in change else
                 "only in the change" if (name, item) not in parent else "differs")
        print(f"{name}: {item} {state}")
        if state == "differs":
            for line in diff_lines(parent[(name, item)], change[(name, item)]):
                print(f"    {line}")
    print(f"{len(RUNS)} runs, {len(parent)} items: "
          f"{len(differ) or 'no'} difference{'' if len(differ) == 1 else 's'}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
