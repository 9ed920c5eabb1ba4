"""The demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nagao

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, demo):
    src = str(Path(nagao.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo == "demo_point_counts.py":
        assert "fiber over t = infinity" in proc.stdout
