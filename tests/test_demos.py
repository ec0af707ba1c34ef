"""Smoke tests: demos 01-03 run to completion.

Demo 04 trains two full refinement arms (about 25 s) and is left out; the
tier-1 workflow runs it as a step of its own, and by hand it is
`python3 demos/04_policy_refinement.py`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_flow_matching_basics.py", "02_score_and_fisher_metric.py",
         "03_transport_maps_and_kl.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
