"""Smoke runs of the demo scripts: each must exit cleanly against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import volterra_mv

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_NAMES = sorted(p.name for p in DEMOS.glob("demo_*.py"))


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_runs(name, tmp_path):
    src = str(Path(volterra_mv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
