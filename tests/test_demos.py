"""The API demos run to completion.

Demo 05 is left out: it takes minutes, and acceptance criterion 7 runs its
model.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = (
    "01_weighted_fits.py",
    "02_adaptive_weights.py",
    "03_bandwidth_selection.py",
    "04_monte_carlo_study.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
