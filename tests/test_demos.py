import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                            cwd=ROOT, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
