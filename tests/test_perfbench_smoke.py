"""The benchmark's own output checks, run as a test.

``perfbench/run.py --smoke`` replays each workload at tiny sizes, untraced and
traced, and checks their outputs against each other (for example, that the
pooled modulo7 CSV equals the traced trials' CSV).  The traced replay
recomputes some of the experiments' arithmetic itself, so a change that keeps
every frozen pin can still fail here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "smoke: PASS" in done.stdout
