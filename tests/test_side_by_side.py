"""Smoke test: tools/side_by_side.py times ./src against itself."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_side_by_side_runs_on_one_tree_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "side_by_side.py"), "--a", src, "--b", src, "--seed", "3", "--targets", "6"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "targets 6 seed 3"
    assert lines[1].split() == ["op", "a_us", "b_us", "b/a"]
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert list(rows) == ["swap", "cnot", "target"]
    for a_us, b_us, ratio in rows.values():
        assert a_us > 0.0 and b_us > 0.0 and ratio > 0.0
