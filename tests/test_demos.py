"""Smoke runs of the demo scripts: each must exit cleanly against the library.

The two demos dominated by the rate minimizer (demo_rate_functionals.py and
demo_tail_probabilities.py, about half a minute each) are left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import volterra_mv

DEMOS = Path(__file__).resolve().parents[1] / "demos"
FAST_DEMOS = [
    "demo_fluctuation_limit.py",
    "demo_kernel_algebra.py",
    "demo_particle_system.py",
    "demo_small_noise_scaling.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path):
    src = str(Path(volterra_mv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
