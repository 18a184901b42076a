import os
import pathlib
import subprocess
import sys

import pytest

import primelab

SRC_DIR = pathlib.Path(primelab.__file__).resolve().parents[1]
DEMOS = sorted((SRC_DIR.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
