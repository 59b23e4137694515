"""One Analysis per (space, map): each derived fact is computed once and reused.

The scan counts below are the contract: `verify` needs 8 distinct scans
(six oriented kinds, the certified symmetric scan and the integer-form
rescan), the audit reuses the filter's symmetric scan for the hypothesis
check and for every Picard trace, and the corpus's five-point case needs 7.
Facts of the space alone (its weak elements) live on the space, not here.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from orthofix import (
    Analysis,
    ContractionKind,
    GenParams,
    InputError,
    SelfMap,
    check_contraction,
    contraction,
    hierarchy_check,
    hypothesis_check,
    is_ow_preserving,
    picard_solve,
    theorem_audit,
    weak_orthogonal_elements,
)
from orthofix.cli import main
from orthofix.corpus import run_case
from orthofix.solver import MODE_O1, _hypotheses_hold

FIVE_POINT = str(Path(__file__).resolve().parent.parent / "data" / "five_point.json")


@pytest.fixture
def scan_calls(monkeypatch):
    calls = []
    scan = contraction._scan

    def counted(*args):
        calls.append(args[0])
        return scan(*args)

    monkeypatch.setattr(contraction, "_scan", counted)
    return calls


def test_verify_scans_each_report_once(scan_calls):
    result = CliRunner().invoke(main, ["verify", "--json", FIVE_POINT])
    assert result.exit_code == 0, result.output
    assert len(scan_calls) == 8  # six oriented kinds, the certified scan, the integer-form rescan


def test_audit_reuses_the_filters_scan(scan_calls):
    summary = theorem_audit(GenParams(seed=0, trials=50))
    assert (summary.trials_run, summary.trace_count) == (50, 58)
    # Without sharing, each hypothesis check and each trace would rescan symmetrically.
    assert len(scan_calls) == 546 - summary.trials_run - summary.trace_count == 438


def test_corpus_five_point_shares_one_analysis(scan_calls):
    assert run_case("five-point").ok
    # generalized (oriented, symmetric, exact metric), banach, ciric, kannan, chatterjea; 15 without sharing
    assert len(scan_calls) == 7


def test_analysis_fills_each_fact_once(five_point, scan_calls):
    space, mapping = five_point
    analysis = Analysis(space, mapping)
    first = analysis.report(ContractionKind.GENERALIZED_PERP, symmetric=True)
    assert analysis.report("generalized_perp", symmetric=True) is first
    assert first == check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    assert len(scan_calls) == 2
    assert analysis.report(ContractionKind.GENERALIZED_PERP, engine="generic") is not first
    assert analysis.preservation is analysis.preservation
    assert analysis.preservation == is_ow_preserving(space, mapping)
    assert weak_orthogonal_elements(space) is space.weak_elements == {0}


def test_shared_analysis_gives_the_same_results(accepted_instances):
    for space, mapping in accepted_instances[:10]:
        analysis = Analysis(space, mapping)
        assert _hypotheses_hold(space, mapping, analysis)
        for mode in ("orbital-continuity", MODE_O1):
            assert hypothesis_check(space, mapping, mode, analysis=analysis) == hypothesis_check(space, mapping, mode)
        k = hypothesis_check(space, mapping).minimal_k
        for w in sorted(space.weak_elements):
            assert picard_solve(space, mapping, w, k=k, analysis=analysis) == picard_solve(space, mapping, w, k=k)
        assert hierarchy_check(space, mapping, analysis=analysis) == hierarchy_check(space, mapping)


def test_explicit_k_below_the_constant_reuses_the_oriented_scan(five_point, scan_calls):
    space, mapping = five_point
    analysis = Analysis(space, mapping)
    analysis.report(ContractionKind.GENERALIZED_PERP)
    analysis.report(ContractionKind.GENERALIZED_PERP, symmetric=True)
    before = len(scan_calls)
    trace = picard_solve(space, mapping, 0, k=Fraction(1, 2), analysis=analysis)
    assert len(scan_calls) == before
    assert trace == picard_solve(space, mapping, 0, k=Fraction(1, 2))
    assert not trace.certified


def test_analysis_of_another_instance_is_rejected(five_point):
    space, mapping = five_point
    other = SelfMap(list(mapping.images), space.n)
    with pytest.raises(InputError, match="different space or map"):
        hypothesis_check(space, other, analysis=Analysis(space, mapping))
    with pytest.raises(InputError, match="different space or map"):
        hierarchy_check(space, other, analysis=Analysis(space, mapping))

