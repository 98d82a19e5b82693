"""The demo scripts run from a checkout without installing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((REPO / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # The demos write under mkdtemp() and leave it there; keep that inside tmp_path.
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
