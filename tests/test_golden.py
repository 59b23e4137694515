"""The default reports are pinned byte for byte.

Each case runs one CLI command from the repository root and compares its
standard output with a committed file under tests/golden/.  A change that
alters a default report on purpose regenerates the file, for example

    PYTHONPATH=src python -m orthofix.cli corpus --json > tests/golden/corpus.json

and says why in CHANGES.md.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from orthofix.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("verify_five_point.json", ["verify", "--json", "data/five_point.json"]),
    ("corpus.json", ["corpus", "--json"]),
    ("audit_50_seed0.json", ["audit", "--trials", "50", "--seed", "0", "--json"]),
]


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_default_report_is_pinned(name, args, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout == (GOLDEN / name).read_text(encoding="utf-8")
