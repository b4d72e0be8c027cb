"""The demos that call the brute-force oracle run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavitree

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(cavitree.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", ["03_brute_force_crosscheck.py",
                                  "07_extensions.py"])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMOS / demo)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
