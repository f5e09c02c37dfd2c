"""Smoke test: tools/side_by_side.py times ./src against itself, on each workload."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

ROWS = {
    "haar-batch": ["swap", "cnot", "target"],
    "cli-session": ["random", "swap", "verify", "cnot", "cost", "compare", "analyze", "session"],
}


def _run(*args):
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "side_by_side.py"), "--a", src, "--b", src, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", ROWS)
def test_side_by_side_runs_on_one_tree_against_itself(workload):
    # haar-batch is the default, so it runs without --workload.
    extra = [] if workload == "haar-batch" else ["--workload", workload]
    lines = _run("--seed", "3", "--targets", "6", *extra)
    assert lines[0] == "targets 6 seed 3"
    assert lines[1].split() == ["op", "a_us", "b_us", "b/a"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert list(rows) == ROWS[workload]
    for a_us, b_us, ratio in rows.values():
        assert a_us > 0.0 and b_us > 0.0 and ratio > 0.0
