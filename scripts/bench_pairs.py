"""Paired benchmark runs of two commits, written as one trajectory file.

    python3 scripts/bench_pairs.py --parent a210480 --change HEAD \
        --workload tabular-oracle:9931:10 --workload tabular-suite:9921:10 \
        --note "the change as committed" --out BENCH_7.json

Each commit is exported with ``git archive`` into its own fresh directory
(in a temporary directory under ``--work``, removed at the end), and
``bench/run.py`` runs there, so each side benchmarks only its own committed
files.  A workload is given as NAME:FIRST_SEED:PAIRS.
Pair p of a workload runs both sides with seed FIRST_SEED + p, one after
the other; even pairs run the parent first, odd pairs the change.  The
output holds the last JSON line of every run with its workload, seed,
side, commit, pair and series (always 1; ``--note`` describes it).  A
summary of the end-to-end metrics (medians, the parent's quartiles, wins
of the change) is printed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 25
COMMAND = ("python3 bench/run.py --workload <workload> --seed <seed> "
           f"--seconds {SECONDS} --trace 0")
PAIRING = ("each pair runs the parent and the change with the same seed, one "
           "after the other, alternating which side runs first; each side runs "
           "from a fresh export of its commit")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the files of commit ``rev`` into ``dest``; its short hash."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def machine() -> str:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return (f"{os.cpu_count()}-core {platform.machine()} host ({cpu or 'unknown CPU'}), "
            f"{platform.system()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def run_one(checkout: Path, workload: str, seed: int) -> dict:
    """One end-to-end run; its last JSON line, or the error it ended with."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}


def plan(spec: str) -> tuple[str, int, int]:
    name, first, pairs = spec.split(":")
    return name, int(first), int(pairs)


def summary(runs: list) -> None:
    """Per series, workload and end-to-end metric: medians of each side,
    the parent's quartiles, and the pairs the change wins."""
    keys = sorted({(r["series"], r["workload"]) for r in runs})
    for series, workload in keys:
        sel = [r for r in runs if (r["series"], r["workload"]) == (series, workload)]
        pairs = sorted({r["pair"] for r in sel})
        by = {(r["pair"], r["side"]): r["result"] for r in sel}
        ok = [p for p in pairs if all("metrics" in by.get((p, s), {})
                                      for s in ("parent", "change"))]
        print(f"series {series} {workload}: {len(ok)} complete pairs of {len(pairs)}")
        if not ok:
            continue
        for name, better in (("setup_s", "lower"), ("ops_per_s", "higher"),
                             ("peak_rss_mb", "lower")):
            par = [by[(p, "parent")]["metrics"][name]["value"] for p in ok]
            chg = [by[(p, "change")]["metrics"][name]["value"] for p in ok]
            wins = sum((c < a) if better == "lower" else (c > a)
                       for a, c in zip(par, chg))
            q = statistics.quantiles(par, n=4) if len(par) > 1 else [par[0]] * 3
            mp, mc = statistics.median(par), statistics.median(chg)
            print(f"  {name}: {mp:.6g} [{q[0]:.6g}, {q[2]:.6g}] -> {mc:.6g} "
                  f"({100 * (mc / mp - 1):+.1f}%), change better in {wins} of {len(ok)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit of the parent side")
    ap.add_argument("--change", required=True, help="commit of the change side")
    ap.add_argument("--workload", action="append", required=True, type=plan,
                    metavar="NAME:FIRST_SEED:PAIRS")
    ap.add_argument("--note", required=True, help="what the change side is")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the exports (default: a temporary one)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.work, prefix="bench-pairs-") as work:
        sides = {side: Path(work) / side for side in ("parent", "change")}
        commits = {side: export(rev, sides[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        doc = {"command": COMMAND, "pairing": PAIRING, "machine": machine(),
               "parent": commits["parent"],
               "series": {"1": f"change at {commits['change']}: {args.note}"},
               "runs": []}
        for name, first, pairs in args.workload:
            for pair in range(pairs):
                seed = first + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_one(sides[side], name, seed)
                    doc["runs"].append({"series": 1, "workload": name,
                                        "seed": seed, "side": side,
                                        "commit": commits[side], "pair": pair,
                                        "result": result})
                    ops = result.get("metrics", {}).get("ops_per_s", {}).get("value")
                    print(f"{name} seed {seed} {side}: ops_per_s {ops}", flush=True)
                    # written after every run, so an interruption keeps the runs done
                    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    summary(doc["runs"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
