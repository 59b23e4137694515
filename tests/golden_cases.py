"""The pinned command-line reports: (golden file, arguments, exit code), run from the repository root.

Standard library only, so that `run_goldens.py` can run the cases under an
interpreter without the test tools; `test_golden.py` runs them in process
and, through `run_process`, as processes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("verify_five_point.json", ["verify", "--json", "data/five_point.json"], 0),
    ("verify_preservation_violations.json", ["verify", "--json", "data/preservation_violations.json"], 1),
    ("verify_infeasible.json", ["verify", "--json", "data/infeasible.json"], 1),
    ("verify_infeasible.txt", ["verify", "data/infeasible.json"], 1),
    ("estimate_k_kannan_infeasible.json", ["estimate-k", "--kind", "kannan", "--json", "data/infeasible.json"], 1),
    ("estimate_k_kannan_infeasible.txt", ["estimate-k", "--kind", "kannan", "data/infeasible.json"], 1),
    ("solve_five_point.json", ["solve", "--start", "0", "--json", "data/five_point.json"], 0),
    (
        "solve_five_point_any_start.json",
        ["solve", "--start", "4", "--allow-any-start", "--k", "1/2", "--json", "data/five_point.json"],
        0,
    ),
    ("solve_ratio_chain_max_iter0.json", ["solve", "--start", "0", "--max-iter", "0", "--json", "data/ratio_chain.json"], 1),
    ("corpus.json", ["corpus", "--json"], 0),
    ("audit_50_seed0.json", ["audit", "--trials", "50", "--seed", "0", "--json"], 0),
    ("audit_500_seed42.json", ["audit", "--trials", "500", "--seed", "42", "--json"], 0),
    (
        "audit_200_seed5_maxpts32.json",
        ["audit", "--trials", "200", "--seed", "5", "--max-points", "32", "--density", "1/3", "--json"],
        0,
    ),
]


def run_process(args, python=sys.executable, **kwargs) -> subprocess.CompletedProcess:
    """Run `PYTHON -m orthofix.cli ARGS` from the repository root with PYTHONPATH=src, capturing what it writes.

    PYTHONUNBUFFERED is dropped, so stdout is block-buffered as a user's usually
    is, and the flush before the process exits is what delivers the report.
    Keywords go to `subprocess.run` (`stdout=` replaces the capture)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = "src"
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 120, **kwargs}
    return subprocess.run([python, "-m", "orthofix.cli", *args], cwd=ROOT, env=env, **options)
