"""The benchmark's own smoke check, run as part of the acceptance suite.

`perfbench/smoke.py` runs one untraced and one traced op per workload. It
fails when a traced conv3 gets a weight that is not a params tensor, when a
traced function has been renamed, or when the traced replay's output is not
byte-identical to the untraced run's.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.acceptance


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke check passed" in proc.stdout
