"""The benchmark harness's own smoke check must pass against the current sources.

It runs the CLI end to end on tiny seeded inputs and checks the report
schemas, the `engine=` values it forces and the pinned input digests, so a
library change that breaks the benchmark's contract fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    result = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
