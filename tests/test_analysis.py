"""A map keeps its facts on a space: each derived fact is computed once and reused.

The counts below are the contract.  `scan_calls` lists, for each pass of a
scan kernel (through their one entry point, `contraction._walk`), the number
of reports it fills.  `verify`
fills its 7 reports (six oriented kinds and the certified symmetric one) in
1 pass; the hierarchy check fills its five oriented kinds in 1 pass; the
audit reuses the filter's symmetric scan for the hypothesis check and for
every Picard trace; the corpus's five-point case needs 6 passes.  The
integer-form check of the hierarchy compares entries and scans nothing.  No
caller passes anything extra: `contraction.reports` (and `contraction.report`,
its one-key form) and `contraction.preservation` keep each fact on the map,
for the space it was computed on.  The audit's sampler prescreens
preservation on raw images, so the full preservation report is computed only
for the accepted maps, by the hypothesis check.
Facts of the space alone (its weak elements) live on the space, not here.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from orthofix import (
    ContractionKind,
    FiniteSpace,
    GenParams,
    SelfMap,
    check_contraction,
    contraction,
    hierarchy_check,
    hypothesis_check,
    is_ow_preserving,
    oracle,
    picard_solve,
    theorem_audit,
    weak_orthogonal_elements,
)
from orthofix.cli import main
from orthofix.corpus import run_case
from orthofix.solver import MODE_O1
from cli_runner import CliRunner

FIVE_POINT = str(Path(__file__).resolve().parent.parent / "data" / "five_point.json")


@pytest.fixture
def scan_calls(monkeypatch):
    calls = []  # the number of reports each pass of a scan kernel fills
    walk = contraction._walk

    def counted(pairs, m, t, slots, *rows):
        calls.append(len(slots))
        return walk(pairs, m, t, slots, *rows)

    monkeypatch.setattr(contraction, "_walk", counted)
    return calls


def test_verify_scans_each_report_once(scan_calls):
    result = CliRunner().invoke(main, ["verify", "--json", FIVE_POINT])
    assert result.exit_code == 0, result.output
    assert scan_calls == [7]  # six oriented kinds and the certified report, in one pass


def test_audit_reuses_the_filters_scan(scan_calls, monkeypatch):
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)  # a forked process's calls would not be counted here
    summary = theorem_audit(GenParams(seed=0, trials=50))
    assert (summary.trials_run, summary.traces_checked) == (50, 58)
    # Without sharing, each hypothesis check and each trace would rescan symmetrically;
    # the integer-form check of each trial's hierarchy scans nothing.  The filter's symmetric
    # scan of each of the 138 preserving candidates is one pass of one report, and each trial's
    # hierarchy check one pass of its five oriented kinds: 388 reports in 188 passes.
    assert sum(scan_calls) == 546 - 2 * summary.trials_run - summary.traces_checked == 388
    assert scan_calls.count(5) == summary.trials_run
    assert len(scan_calls) == 388 - 4 * summary.trials_run == 188


def test_audit_builds_only_preserving_candidates(monkeypatch):
    # The sampler drops a candidate at its first preservation violation, before it is a map:
    # only preserving candidates become a SelfMap.  The full preservation report is the
    # hypothesis check's, so only each accepted map gets one.
    built, reports = [], []
    build, check = oracle.SelfMap, contraction.is_ow_preserving

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def counted_check(space, mapping):
        reports.append(check(space, mapping))
        return reports[-1]

    monkeypatch.setattr(oracle, "SelfMap", counted_build)
    monkeypatch.setattr(contraction, "is_ow_preserving", counted_check)
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)  # a forked process's calls would not be counted here
    summary = theorem_audit(GenParams(seed=0, trials=50))
    assert summary.maps_tried == 1178
    assert all(rep.preserving for rep in reports)
    assert len(built) == 138  # the preserving candidates among the 1,178 drawn
    assert len(reports) == summary.trials_run == 50  # one per accepted map


def test_corpus_five_point_shares_one_analysis(scan_calls):
    assert run_case("five-point").ok
    # M(3,4) and M(0,4) (one pair each), the five oriented kinds in one pass (the hierarchy check's
    # configuration, so no kernel of its own), then the symmetric generalized; 15 reports without sharing
    assert scan_calls == [1, 1, 5, 1]


def test_hypotheses_solve_and_hierarchy_share_the_maps_scans(five_point, scan_calls):
    space, mapping = five_point
    assert hypothesis_check(space, mapping).all_hold  # the symmetric scan
    assert picard_solve(space, mapping, 0).certified  # reuses it: k = 2/3 needs no oriented scan
    assert all(v.holds for v in hierarchy_check(space, mapping))  # five oriented kinds, one pass
    assert scan_calls == [1, 5]


def test_analysis_fills_each_fact_once(five_point, scan_calls):
    space, mapping = five_point
    first = contraction.report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    assert contraction.report("generalized_perp", space, mapping, symmetric=True) is first
    assert first == check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    assert len(scan_calls) == 2
    assert contraction.preservation(space, mapping) is contraction.preservation(space, mapping)
    assert contraction.preservation(space, mapping) == is_ow_preserving(space, mapping)
    assert weak_orthogonal_elements(space) is space.weak_elements == {0}


def test_shared_analysis_gives_the_same_results(accepted_instances, scan_calls):
    # A fresh SelfMap with equal images keeps no facts of its own yet: it scans again,
    # and every result equals the one read from the filled map.
    for space, mapping in accepted_instances[:10]:
        fresh = SelfMap(mapping.images, space.n)
        shared = hypothesis_check(space, mapping)
        before = len(scan_calls)
        assert hypothesis_check(space, mapping) == shared  # read from the map
        assert len(scan_calls) == before
        assert hypothesis_check(space, fresh) == shared  # scanned again
        assert len(scan_calls) == before + 1
        assert hypothesis_check(space, fresh, MODE_O1) == hypothesis_check(space, mapping, MODE_O1)
        k = shared.minimal_k
        for w in sorted(space.weak_elements):
            assert picard_solve(space, mapping, w, k=k) == picard_solve(space, fresh, w, k=k)
        assert hierarchy_check(space, mapping) == hierarchy_check(space, fresh)


def test_each_space_gets_its_own_reports(five_point, scan_calls):
    space, mapping = five_point
    doubled = FiniteSpace(space.points, [[2 * v for v in row] for row in space.metric], space.sorted_relation)
    # (0, 2) and (4, 0) gone: the generalized constants change
    sparser = FiniteSpace(space.points, space.metric, [(0, 0), (1, 0), (3, 4), (3, 0)])
    kinds = [(kind, symmetric) for kind in ContractionKind for symmetric in (False, True)]
    for other in (doubled, sparser, space):
        for kind, symmetric in kinds:
            expected = check_contraction(kind, other, mapping, symmetric=symmetric)
            assert contraction.report(kind, other, mapping, symmetric=symmetric) == expected, (kind, symmetric)
        assert contraction.preservation(other, mapping) == is_ow_preserving(other, mapping)
    assert len(scan_calls) == 2 * 3 * len(kinds)  # each switch of space starts a fresh memo
    assert (
        contraction.report(ContractionKind.GENERALIZED_PERP, sparser, mapping)
        != contraction.report(ContractionKind.GENERALIZED_PERP, space, mapping)
    )


def test_explicit_k_below_the_constant_reuses_the_oriented_scan(five_point, scan_calls):
    space, mapping = five_point
    contraction.report(ContractionKind.GENERALIZED_PERP, space, mapping)
    contraction.report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    before = len(scan_calls)
    trace = picard_solve(space, mapping, 0, k=Fraction(1, 2))
    assert len(scan_calls) == before
    assert trace == picard_solve(space, SelfMap(mapping.images, space.n), 0, k=Fraction(1, 2))
    assert not trace.certified
