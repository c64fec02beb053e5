"""The demo scripts run to completion.

Demo 05 is left out: it trains for about a minute and writes a checkpoint
outside the tree.
"""

import os
import subprocess
import sys

import pytest

import upflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_fields_and_sdf.py", "02_coarse_liquid_simulation.py",
         "03_inter_resolution_flow.py", "04_dataset_and_augmentation.py",
         "06_upres_inference.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # the child finds the package where this process found it
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(upflow.__file__)))
    env = {**os.environ, "PYTHONPATH": pkg_parent}
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                         env=env, capture_output=True, text=True, cwd=tmp_path,
                         timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
