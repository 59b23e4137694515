from fractions import Fraction

import pytest

from orthofix import InputError, corpus, list_cases, run_case
from orthofix.corpus import plane_map, run_all

EXPECTED_CASES = ["five-point", "rational-product", "r2-counterexample", "leq-relation", "orbit-space"]


def test_registry_contents():
    names = [name for name, _ in list_cases()]
    assert names == EXPECTED_CASES
    assert len(names) == 5


def test_unknown_case_rejected():
    with pytest.raises(InputError, match="unknown case"):
        run_case("six-point")


@pytest.mark.parametrize("name", EXPECTED_CASES)
def test_case_passes(name):
    report = run_case(name)
    assert report.ok, [a.to_dict() for a in report.assertions if not a.passed]
    assert report.assertions
    for a in report.assertions:
        assert a.provenance in ("stated", "derived", "trivial")


def test_reports_are_deterministic():
    first = [r.to_dict() for r in run_all()]
    second = [r.to_dict() for r in run_all()]
    assert first == second


def test_analytic_claims_are_annotations_not_assertions():
    by_name = {r.name: r for r in run_all()}
    assert by_name["rational-product"].annotations
    assert by_name["leq-relation"].annotations
    assert by_name["orbit-space"].annotations
    for report in by_name.values():
        for note in report.annotations:
            assert note.to_dict()["status"] == "analytic-only"


def test_plane_map_values():
    assert plane_map((Fraction(1), Fraction(1, 2))) == (Fraction(2, 5), Fraction(0))
    assert plane_map((Fraction(1, 2), Fraction(1, 3))) == (Fraction(6, 13), Fraction(0))
    # Reversed or non-consecutive unit fractions are not special points.
    assert plane_map((Fraction(1, 3), Fraction(1, 2))) == (Fraction(0), Fraction(0))
    assert plane_map((Fraction(1, 2), Fraction(1, 4))) == (Fraction(0), Fraction(0))
    assert plane_map((Fraction(2, 3), Fraction(1, 2))) == (Fraction(0), Fraction(0))
    assert plane_map((Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))


def test_five_point_case_reports_expected_and_actual():
    report = run_case("five-point")
    gen = next(a for a in report.assertions if a.name == "generalized minimal k")
    assert gen.expected == "1/2" and gen.actual == "1/2" and gen.passed


R2_IMAGE = "first coordinate equals n(n+1)/(2n^2+2n+1) (n=1..1000)"
R2_GAP = "|first coordinate - 1/2| = 1/(2(2n^2+2n+1)) (n=1..1000)"
R2_INNER = "consecutive special points have positive inner product (n=1..1000)"


@pytest.mark.parametrize(
    "wrong, failing",
    [
        (lambda first: first + Fraction(1, 10**9), {R2_IMAGE, R2_GAP}),
        (lambda first: 1 - first, {R2_IMAGE}),  # the same distance from 1/2, on the other side
    ],
)
def test_r2_case_fails_when_the_plane_map_is_wrong_at_one_n(monkeypatch, wrong, failing):
    real = corpus.plane_map

    def plane_map_wrong_at_500(point, max_n=10**6):
        first, second = real(point, max_n)
        return (wrong(first), second) if point == (Fraction(1, 500), Fraction(1, 501)) else (first, second)

    monkeypatch.setattr(corpus, "plane_map", plane_map_wrong_at_500)
    report = run_case("r2-counterexample")
    failed = {a.name: a.actual for a in report.assertions if not a.passed}
    assert failed == dict.fromkeys(failing, "999")


def test_r2_case_fails_when_an_inner_product_is_wrong_at_one_n(monkeypatch):
    real = corpus._inner

    def inner_wrong_at_7(p, q):
        return real(p, q) * 2 if p[0] == Fraction(1, 7) else real(p, q)

    monkeypatch.setattr(corpus, "_inner", inner_wrong_at_7)
    failed = {a.name: a.actual for a in run_case("r2-counterexample").assertions if not a.passed}
    assert failed == {R2_INNER: "999"}
