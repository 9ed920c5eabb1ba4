"""The demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import nagao

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demo_point_counts_runs(tmp_path):
    src = str(Path(nagao.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "demo_point_counts.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fiber over t = infinity" in proc.stdout
