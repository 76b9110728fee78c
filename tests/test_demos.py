"""Every demo script runs to completion against the sources in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["bohr_geometry_tour", "envelope_sketch", "popular_difference_hunt", "three_route_count"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
