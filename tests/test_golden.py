"""The default reports are pinned byte for byte.

Each case runs one CLI command from the repository root and compares its
exit code and standard output with a committed file under tests/golden/.
`data/preservation_violations.json` breaks preservation on a pair stored in
both orientations and on a pair stored only as (j, i) with j > i, so its
report pins the order and orientation of preservation violations.
`data/infeasible.json` (identity map on three points) makes kannan
infeasible with three moving zero-denominator pairs, so its reports pin the
first of them, (a, b), as the report's `witness` in JSON and in text.  Two
`solve` reports on `data/five_point.json` pin a certified trace (from the weak element 0, where
it stops at once) and an uncertified one (from 4 at k = 1/2, three steps,
its integer step distances written as strings); a third, on the 8-point
ratio chain `data/ratio_chain.json` cut at `--max-iter 0`, pins a certified
trace with no step and its bound(0) = d(x_0, T x_0) / (1 - k) = 2.  The
500-trial audit pins the sampler's whole candidate stream at seed 42 (13,751
candidate maps, ten times the 50-trial case's); the 200-trial audit at
`--max-points 32 --density 1/3` pins it on spaces of up to 32 points and at
a density whose draws reject (46,783 candidate maps).  A change that
alters a default report on purpose regenerates the file, for example

    PYTHONPATH=src python -m orthofix.cli corpus --json > tests/golden/corpus.json

and says why in CHANGES.md.  The cases live in `golden_cases.py`, which
`run_goldens.py` also reads to run them under other interpreters.  Each
case also runs as a process, `python -m orthofix.cli`, which ends with
`os._exit` once its streams are flushed: its exit code and stdout bytes must
be the same, and its stderr empty.
"""

import pytest

from orthofix.cli import main
from cli_runner import CliRunner
from golden_cases import CASES, GOLDEN, ROOT, run_process


@pytest.mark.parametrize("name, args, exit_code", CASES, ids=[name for name, _, _ in CASES])
def test_default_report_is_pinned(name, args, exit_code, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert result.stdout == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, args, exit_code", CASES, ids=[name for name, _, _ in CASES])
def test_default_report_is_pinned_as_a_process(name, args, exit_code):
    done = run_process(args)
    assert (done.returncode, done.stderr) == (exit_code, b"")
    assert done.stdout == (GOLDEN / name).read_bytes()
