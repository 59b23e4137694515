"""The mutant table of `tests/mutants.py` stays applicable: each old text occurs exactly once in its file."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name, path, old, new", MUTANTS, ids=[mutant[0] for mutant in MUTANTS])
def test_each_mutant_applies_to_exactly_one_place(name, path, old, new):
    text = (ROOT / path).read_text(encoding="utf-8")
    assert text.count(old) == 1, (name, path)
    assert text.replace(old, new) != text
