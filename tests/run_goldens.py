"""Run the pinned command-line reports under one or more interpreters, with the standard library only.

    python3 tests/run_goldens.py [PYTHON ...]

Each case of `golden_cases.py` runs as `PYTHON -m orthofix.cli ARGS` from the
repository root with PYTHONPATH=src (PYTHON defaults to this interpreter);
its exit code and standard output must match the golden file byte for byte.
An `audit` case runs twice: on this process's CPUs, and with the command
pinned to one of them, so that it walks its seeds in one process on the
one-process board; the second run is skipped where `os.sched_setaffinity`
does not exist.  Prints one line per run, and exits 1 if any differs.
"""

import os
import subprocess
import sys

from golden_cases import CASES, GOLDEN, ROOT


def _one_cpu() -> None:
    """Pin the calling process, the spawned command, to the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(pythons: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH="src")
    pins = (None, _one_cpu) if hasattr(os, "sched_setaffinity") else (None,)
    failed = 0
    for python in pythons:
        for name, args, exit_code in CASES:
            for pin in pins if args[0] == "audit" else (None,):
                command = [python, "-m", "orthofix.cli", *args]
                run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, preexec_fn=pin)
                ok = run.returncode == exit_code and run.stdout == (GOLDEN / name).read_bytes()
                failed += not ok
                print(f"{'ok  ' if ok else 'DIFF'} {python} {name}{' (one CPU)' if pin else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable]))
