"""Run the pinned command-line reports under one or more interpreters, with the standard library only.

    python3 tests/run_goldens.py [PYTHON ...]

Each case of `golden_cases.py` runs as `PYTHON -m orthofix.cli ARGS` from the
repository root with PYTHONPATH=src (PYTHON defaults to this interpreter);
its exit code and standard output must match the golden file byte for byte.
Prints one line per case and interpreter, and exits 1 if any differs.
"""

import os
import subprocess
import sys

from golden_cases import CASES, GOLDEN, ROOT


def main(pythons: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH="src")
    failed = 0
    for python in pythons:
        for name, args, exit_code in CASES:
            run = subprocess.run([python, "-m", "orthofix.cli", *args], cwd=ROOT, env=env, capture_output=True)
            ok = run.returncode == exit_code and run.stdout == (GOLDEN / name).read_bytes()
            failed += not ok
            print(f"{'ok  ' if ok else 'DIFF'} {python} {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
