from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
            assert set(note.to_dict()) == {"name", "note"}  # an annotation is analytic-only by being one


def test_plane_map_values():
    assert plane_map((Fraction(1), Fraction(1, 2))) == (Fraction(2, 5), Fraction(0))
    assert plane_map((Fraction(1, 2), Fraction(1, 3))) == (Fraction(6, 13), Fraction(0))
    # Reversed or non-consecutive unit fractions are not special points.
    assert plane_map((Fraction(1, 3), Fraction(1, 2))) == (Fraction(0), Fraction(0))
    assert plane_map((Fraction(1, 2), Fraction(1, 4))) == (Fraction(0), Fraction(0))
    assert plane_map((Fraction(2, 3), Fraction(1, 2))) == (Fraction(0), Fraction(0))
    assert plane_map((Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))


def _is_special(x1, x2, max_n=10**6):
    """(x1, x2) = (1/n, 1/(n+1)) for an integer n in [1, max_n], decided by inverting x1."""
    if x1 == 0:
        return False
    n = 1 / x1
    return n.denominator == 1 and 1 <= n <= max_n and x2 * (n + 1) == 1


def _point(a, n, c, shift):
    return Fraction(a, n), Fraction(c, n + 1 + shift)


# Unit fractions with consecutive denominators, next to them (another numerator, a sign, zero, a skipped
# denominator, n past 10^6), and arbitrary rationals.
_units = st.integers(1, 10**6).map(lambda n: _point(1, n, 1, 0))
_near = st.builds(_point, st.integers(-3, 3), st.integers(1, 10**6 + 2), st.integers(-3, 3), st.integers(-1, 2))
_anywhere = st.tuples(st.fractions(), st.fractions())


@given(st.one_of(_units, _near, _anywhere))
@example(_point(1, 10**6, 1, 0))
@example(_point(1, 10**6 + 1, 1, 0))
@example((Fraction(0), Fraction(1, 2)))
@example((Fraction(-1, 2), Fraction(-1, 3)))
@example((Fraction(2, 3), Fraction(1, 4)))
def test_plane_map_is_the_formula_at_special_points_and_the_origin_elsewhere(point):
    x1, x2 = point
    expected = (x1 * x2 / (x1 * x1 + x2 * x2), 0) if _is_special(x1, x2) else (0, 0)
    image = plane_map(point)
    assert image == expected
    assert all(type(v) is Fraction for v in image)


_rationals = st.one_of(st.integers(-(10**6), 10**6), st.fractions())


@given(st.tuples(_rationals, _rationals), st.tuples(_rationals, _rationals))
@example((Fraction(0), Fraction(-1, 3)), (Fraction(5, 2), Fraction(-7, 4)))
def test_inner_is_the_dot_product(p, q):
    assert corpus._inner(p, q) == p[0] * q[0] + p[1] * q[1]


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
