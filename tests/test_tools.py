"""Smoke test of tools/side_by_side.py: one round of the tree against
itself, in a fresh process."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("echo op", "gate op", "walk", "trajectory", "reference", "dynamical phase",
        "decomposition", "magnus", "re-attach", "frame rows", "csv")


def _side_by_side(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "side_by_side.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)


def test_side_by_side_times_the_tree_against_itself():
    done = _side_by_side(".", ".", "--rounds", "1")
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split()[:3] == ["row", "parent", "ms"]
    assert [line[:16].strip() for line in lines] == list(ROWS)
    for line in lines:
        parent_ms, change_ms, ratio, iqr, won = line[16:].split()
        assert float(parent_ms) > 0.0 and float(change_ms) > 0.0 and float(ratio) > 0.0
        assert won in ("0/1", "1/1")


def test_side_by_side_needs_a_round():
    done = _side_by_side(".", ".", "--rounds", "0")
    assert done.returncode == 2 and "--rounds must be at least 1" in done.stderr
