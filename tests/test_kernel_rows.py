"""``scripts/kernel_rows.py`` counts the stage-kernel work of fixed cases."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kernel_rows.py"


def run(*cases: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *cases], capture_output=True,
                          text=True, timeout=300)


def test_counts_one_round_on_the_coarse_fishery():
    proc = run("fishery-strong")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["case", "sweeps", "calls", "rows", "lane-rows", "seconds"]
    name, sweeps, calls, rows, lane_rows, seconds = row.split()
    sweeps, calls, rows, lane_rows = (int(x.replace(",", ""))
                                      for x in (sweeps, calls, rows, lane_rows))
    assert name == "fishery-strong"
    # every call sweeps at least one row, and at most every node of the grid;
    # the strong chains solve one threshold per sweep, never a batch
    assert 0 < calls <= rows <= 121 * calls
    assert lane_rows == rows
    assert sweeps == 0
    assert float(seconds) > 0


def test_unknown_case_is_an_error():
    proc = run("no-such-case")
    assert proc.returncode != 0
    assert "unknown case" in proc.stderr
