"""The default reports are pinned byte for byte.

Each case runs one CLI command from the repository root and compares its
exit code and standard output with a committed file under tests/golden/.
`data/preservation_violations.json` breaks preservation on a pair stored in
both orientations and on a pair stored only as (j, i) with j > i, so its
report pins the order and orientation of preservation violations.
`data/infeasible.json` (identity map on three points) makes kannan
infeasible with three moving zero-denominator pairs, so its reports pin the
first of them, (a, b), as `infeasible_witness` in JSON and in text.  The
500-trial audit pins the sampler's whole candidate stream at seed 42 (13,751
candidate maps, ten times the 50-trial case's); the 200-trial audit at
`--max-points 32 --density 1/3` pins it on spaces of up to 32 points and at
a density whose draws reject (46,783 candidate maps).  A change that
alters a default report on purpose regenerates the file, for example

    PYTHONPATH=src python -m orthofix.cli corpus --json > tests/golden/corpus.json

and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from orthofix.cli import main
from cli_runner import CliRunner

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("verify_five_point.json", ["verify", "--json", "data/five_point.json"], 0),
    ("verify_preservation_violations.json", ["verify", "--json", "data/preservation_violations.json"], 1),
    ("verify_infeasible.json", ["verify", "--json", "data/infeasible.json"], 1),
    ("verify_infeasible.txt", ["verify", "data/infeasible.json"], 1),
    ("estimate_k_kannan_infeasible.json", ["estimate-k", "--kind", "kannan", "--json", "data/infeasible.json"], 1),
    ("estimate_k_kannan_infeasible.txt", ["estimate-k", "--kind", "kannan", "data/infeasible.json"], 1),
    ("corpus.json", ["corpus", "--json"], 0),
    ("audit_50_seed0.json", ["audit", "--trials", "50", "--seed", "0", "--json"], 0),
    ("audit_500_seed42.json", ["audit", "--trials", "500", "--seed", "42", "--json"], 0),
    (
        "audit_200_seed5_maxpts32.json",
        ["audit", "--trials", "200", "--seed", "5", "--max-points", "32", "--density", "1/3", "--json"],
        0,
    ),
]


@pytest.mark.parametrize("name, args, exit_code", CASES, ids=[name for name, _, _ in CASES])
def test_default_report_is_pinned(name, args, exit_code, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert result.stdout == (GOLDEN / name).read_text(encoding="utf-8")
