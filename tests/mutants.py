"""Run the tier-1 suite against one-line mutants of the package and of its test reference, stdlib only.

    python3 tests/mutants.py            # every mutant of the table
    python3 tests/mutants.py NAME ...   # the named ones
    python3 tests/mutants.py --list     # the table, without running it

Each mutant replaces one exact text of one file, which occurs exactly once
there (`tests/test_mutants.py` checks it, so the table cannot go stale
unnoticed).  For each mutant the script copies `src`, `tests`, `data` and
`pyproject.toml`, with `perfbench` and `BENCHMARK.json` for the benchmark's
smoke check (a tier-1 test), into a temporary directory.  It applies the
mutant to the copy, runs the tier-1 command there with ``--tb=no -rfE``
and ``--hypothesis-seed=0`` (less the table's own check, which every mutant
fails), and prints pytest's summary line and each test that failed or
module that failed to collect.  It never writes into the checkout.

The table names, for each runtime check that ``verify`` and ``audit`` run,
faults it can see: the hierarchy verdicts, the audit's hypothesis re-run and
its conclusion check, and the solver's certificate.  CHANGES.md records
which tests kill each mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "perfbench", "pyproject.toml", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "_out", "_work")
# the tier-1 command, less `tests/test_mutants.py`: it fails under every mutant, whose old text is gone.  The fixed
# hypothesis seed makes the table reproduce from run to run; tier-1 itself keeps drawing new examples.
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--tb=no", "-rfE", "--ignore=tests/test_mutants.py",
         "--hypothesis-seed=0"]

# (name, file, exact old text, new text)
MUTANTS = [
    ("integer-form-doubled", "src/orthofix/space.py",
     "scale = lcm(*{e.denominator for e in distinct.values()})",
     "scale = 2 * lcm(*{e.denominator for e in distinct.values()})"),
    ("ciric-drops-d(x,y)", "src/orthofix/contraction.py",
     r'"k1 = k0\nif dxtx > k1: k1 = dxtx',
     r'"k1 = dxtx\nif dxtx > k1: k1 = dxtx'),
    ("generalized-takes-the-smaller-ciric", "src/orthofix/contraction.py",
     r"if k1 > k4: k4 = k1",
     r"if k1 < k4: k4 = k1"),
    ("kannan-term-doubled", "src/orthofix/contraction.py",
     '"k2 = dxtx + dyty"',
     '"k2 = 2 * dxtx + dyty"'),
    ("chatterjea-term-doubled", "src/orthofix/contraction.py",
     '"k3 = dxty + my[tx]"',
     '"k3 = 2 * dxty + my[tx]"'),
    ("generalized-t2x-terms-doubled", "src/orthofix/contraction.py",
     r'"k4 *= 2\nif k1 > k4',
     r'"k4 *= 4\nif k1 > k4'),
    ("infeasible-report-names-the-max-ratio-pair", "src/orthofix/contraction.py",
     "return ContractionReport(None, tuple(pair_at(inf_pos)), False)",
     "return ContractionReport(None, tuple(pair_at(best_pos)) if best_pos >= 0 else None, False)"),
    ("sampler-reads-the-oriented-constant", "src/orthofix/oracle.py",
     "report(ContractionKind.GENERALIZED_PERP, space, candidate, symmetric=True)",
     "report(ContractionKind.GENERALIZED_PERP, space, candidate, symmetric=False)"),
    ("solver-reports-the-start-as-fixed-point", "src/orthofix/solver.py",
     "fixed_point=iterates[-1] if converged else None",
     "fixed_point=iterates[0] if converged else None"),
    ("solver-step-check-off", "src/orthofix/solver.py",
     "if enforced and steps and not (step <= k * steps[-1]):",
     "if False:"),
    ("solver-tail-check-off", "src/orthofix/solver.py",
     "if not (space.d(iterates[n], iterates[m]) <= bounds[n]):",
     "if False:"),
    ("solver-first-bound-doubled", "src/orthofix/solver.py",
     "bounds = [space.d(start, mapping(start)) / (1 - k)]",
     "bounds = [2 * space.d(start, mapping(start)) / (1 - k)]"),
    ("generator-closure-skipped", "src/orthofix/oracle.py",
     "if via_k + b < row_i[j]:",
     "if False:"),
    ("generator-weights-from-0", "src/orthofix/oracle.py",
     "_WEIGHTS = (1, 10)",
     "_WEIGHTS = (0, 10)"),
    ("reference-symmetric-scan-reads-stored-pairs", "tests/reference.py",
     "    elif symmetric:\n",
     "    elif False:\n"),
]


def run(mutant: tuple[str, str, str, str]) -> tuple[list[str], str]:
    """The tests that fail or err with `mutant` applied to a temporary copy of the checkout, and pytest's summary line."""
    _, path, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="orthofix-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(source, copy / name)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{mutant[0]}: the old text occurs {text.count(old)} times in {path}, not once")
        target.write_text(text.replace(old, new), encoding="utf-8")
        result = subprocess.run(TIER1, cwd=copy, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    lines = result.stdout.splitlines()
    failed = [line.split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return failed, lines[-1] if lines else result.stderr.strip()


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for name, path, old, new in MUTANTS:
            print(f"{name}\n    {path}: {old.strip()!r} -> {new.strip()!r}")
        return 0
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in MUTANTS:
        if argv and mutant[0] not in argv:
            continue
        failed, summary = run(mutant)
        print(f"{mutant[0]}: {summary}", flush=True)
        for test in failed:
            print(f"    {test}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
