"""The benchmark's self-test still passes against the package.

``perfbench/selftest.py`` wraps public names of the package (the
``TransformationGroup`` methods, the models' ``predict`` and
``training_target``, ``training.observation_mse``, ...) and checks that
every workload emits its metrics at tiny sizes; a refactor that renames or
removes one of those targets fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
