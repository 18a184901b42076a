"""The benchmark's tracer must still find every function it wraps.

perfbench/tracer.py names public functions module by module and refuses
to run when one is missing or defined elsewhere; this keeps a rename or a
move from surfacing only at the next traced benchmark run.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_installs_on_this_tree():
    code = "import primelab.cli, tracer; tracer.install()"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
