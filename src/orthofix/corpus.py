"""Executable desk-checkable cases with their expected values.

Each case pins the numbers a worked example is supposed to produce
(classification, contraction constants, orbits, fixed points, exact limits)
and re-derives them through the library in exact arithmetic.  Assertions are
tagged by provenance: "stated" values come straight from the source example,
"derived" values from an independent closed form or exhaustive scan,
"trivial" from direct definitions.  Claims that are inherently about
infinite or unbounded spaces cannot pass or fail at desk scale; they are
carried as analytic-only annotations so the test surface stays honest.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Callable

from .contraction import (
    _ORIENTED,
    ContractionKind,
    hierarchy_check,
    hypothesis_check,
    m_value,
    preservation,
    report,
    reports,
    scan_value_pairs,
)
from .errors import InputError
from .kinds import CASES, list_cases  # list_cases re-exported: the names and summaries of `_RUNNERS`
from .quadext import QuadExt
from .records import to_dict
from .relational import (
    brute_force_fixed_points,
    classify_orthogonality,
    is_ow_sequence,
    orbit,
    strong_orthogonal_elements,
    weak_orthogonal_elements,
)
from .solver import picard_solve
from .space import FiniteSpace, PointRelation, SelfMap


class Assertion(namedtuple("Assertion", "name expected actual passed provenance")):
    __slots__ = ()  # provenance: "stated" | "derived" | "trivial"
    to_dict = to_dict


class Annotation(namedtuple("Annotation", "name note")):
    __slots__ = ()
    to_dict = to_dict


class CaseReport(namedtuple("CaseReport", "name title assertions annotations")):
    __slots__ = ()
    _json_extra = ("ok",)
    to_dict = to_dict

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)


class _Recorder:
    def __init__(self):
        self.assertions: list[Assertion] = []
        self.annotations: list[Annotation] = []

    def check(self, name: str, expected, actual, provenance: str) -> None:
        self.assertions.append(
            Assertion(
                name=name,
                expected=str(expected),
                actual=str(actual),
                passed=expected == actual,
                provenance=provenance,
            )
        )

    def check_true(self, name: str, condition: bool, provenance: str, detail: str = "") -> None:
        self.assertions.append(
            Assertion(
                name=name,
                expected="true",
                actual=("true" if condition else "false") + (f" ({detail})" if detail else ""),
                passed=bool(condition),
                provenance=provenance,
            )
        )

    def annotate(self, name: str, note: str) -> None:
        self.annotations.append(Annotation(name, note))


# ---------------------------------------------------------------------------
# five-point
# ---------------------------------------------------------------------------

def five_point_example() -> tuple[FiniteSpace, SelfMap]:
    """The five-point weak orthogonal space with its generalized contraction."""
    points = ["0", "1", "2", "3", "4"]
    metric = [[Fraction(abs(i - j)) for j in range(5)] for i in range(5)]
    relation = [(0, 0), (1, 0), (0, 2), (3, 4), (3, 0), (4, 0)]
    return FiniteSpace(points, metric, relation), SelfMap([0, 0, 1, 0, 2], 5)


def _case_five_point(rec: _Recorder) -> str:
    space, mapping = five_point_example()

    cls = classify_orthogonality(space)
    rec.check("classification", "O_w-set-only", cls.verdict, "stated")
    rec.check("weak orthogonal elements", {0}, set(cls.weak_elements), "stated")
    rec.check("strong orthogonal elements", set(), set(cls.strong_elements), "stated")
    rec.check("map preserves orthogonal relatedness", True, preservation(space, mapping).preserving, "stated")

    rec.check("M(3,4)", Fraction(4), m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 3, 4), "stated")
    rec.check("M(0,4)", Fraction(4), m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 0, 4), "derived")

    # the five oriented kinds in one pass, the hierarchy check's (see `hierarchy_check`)
    ban, _, _, _, gen = reports(space, mapping, [(kind, False) for kind in _ORIENTED])
    rec.check("generalized minimal k", Fraction(1, 2), gen.minimal_k, "derived")
    rec.check_true("generalized admissible", gen.admissible, "derived")
    rec.check("generalized max-ratio witness", (0, 2), gen.witness, "derived")

    gen_sym = report(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    rec.check("orientation-complete minimal k", Fraction(2, 3), gen_sym.minimal_k, "derived")
    rec.check("orientation-complete witness", (4, 3), gen_sym.witness, "derived")

    rec.check("banach minimal k", Fraction(2), ban.minimal_k, "derived")
    rec.check("banach admissible", False, ban.admissible, "stated")
    rec.check("banach max-ratio witness", (3, 4), ban.witness, "stated")

    rec.check("fixed points (brute force)", {0}, set(brute_force_fixed_points(space, mapping)), "stated")

    expected_orbits = {
        0: ((), (0,)),
        1: ((1,), (0,)),
        2: ((2, 1), (0,)),
        3: ((3,), (0,)),
        4: ((4, 2, 1), (0,)),
    }
    for start, (prefix, cycle) in expected_orbits.items():
        info = orbit(space, mapping, start)
        rec.check(f"orbit from {start}", (prefix, cycle), (info.prefix, info.cycle), "stated")

    trace0 = picard_solve(space, mapping, 0, k=Fraction(1, 2))
    rec.check("iteration from 0: iterates", (0,), trace0.iterates, "stated")
    rec.check_true("iteration from 0: converged at 0", trace0.converged and trace0.fixed_point == 0, "stated")

    trace4 = picard_solve(space, mapping, 4, k=Fraction(1, 2), allow_any_start=True)
    rec.check("iteration from 4: iterates", (4, 2, 1, 0), trace4.iterates, "stated")
    rec.check("iteration from 4: applications", 3, trace4.applications, "stated")
    rec.check_true("iteration from 4: converged at 0", trace4.converged and trace4.fixed_point == 0, "stated")

    hyp = hypothesis_check(space, mapping)
    rec.check_true("hypotheses hold", hyp.all_hold, "stated")

    bad = [v.name for v in hierarchy_check(space, mapping) if not v.holds]
    rec.check("hierarchy implication failures", [], bad, "derived")

    return "five-point weak orthogonal space with a generalized contraction"


# ---------------------------------------------------------------------------
# rational-product
# ---------------------------------------------------------------------------

def rational_product_sample() -> tuple[list[str], list[QuadExt], Callable, Callable, Callable]:
    """Sample of the real line with x _|_ y iff x*y is rational (radicand 11).

    Returns (labels, values, dist, related_pred, apply_map); the map sends
    rationals to x/3 and irrationals to 0, so images can leave the sample
    and scans run in the value domain.
    """
    values = [
        QuadExt(0, 0, 11),
        QuadExt(1, 0, 11),
        QuadExt(2, 0, 11),
        QuadExt(Fraction(1, 2), 0, 11),
        QuadExt(0, 1, 11),
        QuadExt(1, Fraction(1, 11), 11),
    ]
    labels = ["0", "1", "2", "1/2", "sqrt(11)", "1+(1/11)*sqrt(11)"]

    def dist(x: QuadExt, y: QuadExt) -> QuadExt:
        return abs(x - y)

    def rel(x: QuadExt, y: QuadExt) -> bool:
        return (x * y).is_rational

    def apply_map(x: QuadExt) -> QuadExt:
        return x / 3 if x.is_rational else QuadExt(0, 0, 11)

    return labels, values, dist, rel, apply_map


def _case_rational_product(rec: _Recorder) -> str:
    labels, values, dist, rel, apply_map = rational_product_sample()
    n = len(values)
    idx = {v: i for i, v in enumerate(values)}

    relation = [(i, j) for i in range(n) for j in range(n) if rel(values[i], values[j])]
    space = PointRelation(labels, relation)

    strong = strong_orthogonal_elements(space)
    rec.check_true("0 is a strong orthogonal element", 0 in strong, "stated")
    rec.check("classification", "O-set", classify_orthogonality(space).verdict, "derived")

    related_pairs = [(values[i], values[j]) for (i, j) in space.sorted_relation]
    ban = scan_value_pairs(ContractionKind.BANACH_PERP, related_pairs, dist, apply_map)
    rec.check("restricted Lipschitz minimal k", Fraction(1, 3), ban.minimal_k, "stated")
    rec.check_true("restricted Lipschitz admissible", ban.admissible, "stated")

    all_pairs = [(values[i], values[j]) for i in range(n) for j in range(n)]
    unr = scan_value_pairs(ContractionKind.UNRESTRICTED_LIPSCHITZ, all_pairs, dist, apply_map)
    rec.check("unrestricted Lipschitz admissible", False, unr.admissible, "stated")
    witness_labels = tuple(labels[idx[v]] for v in unr.witness) if unr.witness else None
    rec.check("unrestricted worst pair", ("1", "1+(1/11)*sqrt(11)"), witness_labels, "stated")
    rec.check("unrestricted minimal k", QuadExt(0, Fraction(1, 3), 11), unr.minimal_k, "derived")

    third = QuadExt(Fraction(1, 3), 0, 11)
    gap = QuadExt(0, Fraction(1, 11), 11)
    rec.check("exact comparison 1/3 vs (1/11)*sqrt(11)", 1, (third - gap).sign(), "derived")
    rec.check("witness distance is irrational", False, (values[5] - values[1]).is_rational, "derived")
    rec.check_true("sqrt(11)*sqrt(11) is rational", (values[4] * values[4]).is_rational, "trivial")
    rec.check("witness point squared is irrational", False, (values[5] * values[5]).is_rational, "derived")

    rec.annotate(
        "restricted Lipschitz over the full real line",
        "k = 1/3 matches the displayed ratio, but feasibility over all reals is not finitely checkable",
    )
    rec.annotate(
        "orthogonal discontinuity of the map",
        "the witness sequence of partial factorial sums converges to an irrational limit; not finitely checkable",
    )
    return "real line with x _|_ y iff x*y rational; map contracts only on related pairs"


# ---------------------------------------------------------------------------
# r2-counterexample
# ---------------------------------------------------------------------------

def plane_map(point: tuple[Fraction, Fraction], max_n: int = 10**6) -> tuple[Fraction, Fraction]:
    """The plane map that is orthogonally continuous but not continuous at the origin.

    Sends (1/n, 1/(n+1)) to (x1*x2 / (x1^2 + x2^2), 0) and everything else
    to the origin.  Membership in the special sequence is decided exactly:
    both coordinates must be unit fractions with consecutive denominators.
    The image is evaluated on integers and one Fraction is built for it:
    with x1 = a/b and x2 = c/d, x1*x2 / (x1^2 + x2^2) = a*c*b*d / (a^2*d^2 + c^2*b^2).
    """
    x1, x2 = point
    a, b, c, d = x1.numerator, x1.denominator, x2.numerator, x2.denominator
    if a == 1 and c == 1 and d == b + 1 and b <= max_n:
        return (Fraction(a * c * b * d, a * a * d * d + c * c * b * b), Fraction(0))
    return (Fraction(0), Fraction(0))


def _inner(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> Fraction:
    """p . q evaluated on integers, with one Fraction built for the result."""
    (x1, x2), (y1, y2) = p, q
    den1, den2 = x1.denominator * y1.denominator, x2.denominator * y2.denominator
    return Fraction(x1.numerator * y1.numerator * den2 + x2.numerator * y2.numerator * den1, den1 * den2)


def _case_r2_counterexample(rec: _Recorder, max_n: int = 1000) -> str:
    # the special points (1/n, 1/(n+1)), n = 1..max_n + 1, at index n - 1
    units = [Fraction(1, n) for n in range(1, max_n + 3)]
    special = list(zip(units, units[1:]))

    # A computed value p/q equals a closed form a/b iff p * b == a * q: no Fraction is built for a/b.
    inner_ok = 0
    for n in range(1, max_n + 1):
        got = _inner(special[n - 1], special[n])
        # 1/(n(n+1)) + 1/((n+1)(n+2)) = (2n + 2) / (n(n+1)(n+2))
        if got.numerator * n * (n + 1) * (n + 2) == (2 * n + 2) * got.denominator and got.numerator > 0:
            inner_ok += 1
    rec.check(
        f"consecutive special points have positive inner product (n=1..{max_n})",
        max_n,
        inner_ok,
        "stated",
    )

    image_ok = 0
    gap_ok = 0
    firsts = [plane_map(point)[0] for point in special[:max_n]]
    for n, first in enumerate(firsts, 1):
        c = 2 * n * n + 2 * n + 1
        # first = n(n+1) / c, and |first - 1/2| = 1 / (2c), i.e. |2 * first - 1| * c = 1
        if first.numerator * c == n * (n + 1) * first.denominator:
            image_ok += 1
        if abs(2 * first.numerator - first.denominator) * c == first.denominator:
            gap_ok += 1
    rec.check(f"first coordinate equals n(n+1)/(2n^2+2n+1) (n=1..{max_n})", max_n, image_ok, "derived")
    rec.check(f"|first coordinate - 1/2| = 1/(2(2n^2+2n+1)) (n=1..{max_n})", max_n, gap_ok, "derived")

    rec.check("image of (1/1, 1/2)", Fraction(2, 5), firsts[0], "derived")
    rec.check("image of (1/2, 1/3)", Fraction(6, 13), firsts[1], "derived")
    rec.check(f"gap below 10^-6 at n={max_n}", True, abs(firsts[-1] - Fraction(1, 2)) < Fraction(1, 10**6), "derived")
    rec.check("origin maps to origin", (Fraction(0), Fraction(0)), plane_map((Fraction(0), Fraction(0))), "stated")
    rec.check(
        "non-special point maps to origin",
        (Fraction(0), Fraction(0)),
        plane_map((Fraction(1, 3), Fraction(1, 2))),
        "trivial",
    )
    rec.check_true(
        "discontinuity at the origin",
        firsts[-1] > Fraction(1, 4) and plane_map((Fraction(0), Fraction(0))) == (0, 0),
        "stated",
        detail="special images approach (1/2, 0) while the origin's image is (0, 0)",
    )
    rec.annotate(
        "orthogonal continuity of the plane map",
        "holds because no orthogonal sequence can end in or converge to the special points; "
        "the sequence-level argument is not finitely checkable",
    )
    return "plane map orthogonally continuous at the origin yet discontinuous there"


# ---------------------------------------------------------------------------
# leq-relation
# ---------------------------------------------------------------------------

def leq_space(values: list[Fraction]) -> FiniteSpace:
    """Sample of the reals ordered by <=: (i, j) related iff v_i <= v_j."""
    labels = [str(v) for v in values]
    metric = [[abs(a - b) for b in values] for a in values]
    relation = [
        (i, j) for i in range(len(values)) for j in range(len(values)) if values[i] <= values[j]
    ]
    return FiniteSpace(labels, metric, relation)


def _case_leq_relation(rec: _Recorder) -> str:
    sample = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    space = leq_space(sample)

    rec.check("weak orthogonal elements", set(range(5)), set(weak_orthogonal_elements(space)), "stated")
    rec.check("strong orthogonal elements (sample extrema)", {0, 4}, set(strong_orthogonal_elements(space)), "derived")

    alternating = [Fraction((-1) ** n, n) for n in range(1, 7)]
    alt_space = leq_space([Fraction(v) for v in alternating])
    check = is_ow_sequence(alt_space, list(range(6)))
    rec.check_true("alternating window is a weak orthogonal sequence", check.ok, "stated")
    rec.check_true(
        "alternating window is not a one-directional sequence",
        (0, 1) in alt_space.relation and (1, 2) not in alt_space.relation and (2, 1) in alt_space.relation,
        "derived",
        detail="adjacent pairs are related in alternating directions",
    )
    rec.annotate(
        "the full real line under <= has no strong orthogonal element",
        "relies on unboundedness; every finite sample has extrema, hence strong elements",
    )
    return "total order sample: every point is a weak orthogonal element"


# ---------------------------------------------------------------------------
# orbit-space
# ---------------------------------------------------------------------------

def orbit_space_example() -> tuple[FiniteSpace, SelfMap]:
    """Positive reals sample with x _|_ y iff xy <= x or xy <= y.

    The map sends (0,1) to 2, fixes 1, and sends everything above 1 to 1/3;
    the sample is closed under it.
    """
    values = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
    labels = [str(v) for v in values]
    metric = [[abs(a - b) for b in values] for a in values]
    relation = [
        (i, j)
        for i in range(4)
        for j in range(4)
        if values[i] * values[j] <= values[i] or values[i] * values[j] <= values[j]
    ]

    def t(v: Fraction) -> Fraction:
        if v < 1:
            return Fraction(2)
        if v == 1:
            return Fraction(1)
        return Fraction(1, 3)

    images = [values.index(t(v)) for v in values]
    return FiniteSpace(labels, metric, relation), SelfMap(images, 4)


def _case_orbit_space(rec: _Recorder) -> str:
    space, mapping = orbit_space_example()

    strong = strong_orthogonal_elements(space)
    rec.check_true("1 is a strong orthogonal element", space.index_of("1") in strong, "stated")
    rec.check("strong orthogonal elements", {0, 1, 2}, set(strong), "derived")
    rec.check("classification", "O-set", classify_orthogonality(space).verdict, "derived")

    half = space.index_of("1/2")
    info = orbit(space, mapping, half)
    rec.check(
        "orbit from 1/2 (values)",
        (("1/2",), ("2", "1/3")),
        (
            tuple(space.points[i] for i in info.prefix),
            tuple(space.points[i] for i in info.cycle),
        ),
        "stated",
    )
    rec.check("orbit from 1/2 enters a fixed point", False, info.enters_fixed_point, "derived")

    one = space.index_of("1")
    info1 = orbit(space, mapping, one)
    rec.check("orbit from 1", ((), (one,)), (info1.prefix, info1.cycle), "stated")
    rec.check_true("orbit from 1 enters a fixed point", info1.enters_fixed_point, "trivial")

    rec.check("fixed points (brute force)", {one}, set(brute_force_fixed_points(space, mapping)), "derived")
    bad = [v.name for v in hierarchy_check(space, mapping) if not v.holds]
    rec.check("hierarchy implication failures", [], bad, "derived")

    rec.annotate(
        "the positive reals with this relation are not orthogonally complete",
        "witnessed by the reciprocal sequence converging to 0 outside the space; unbounded, analytic-only",
    )
    rec.annotate(
        "the map is not orthogonally continuous on the full space",
        "witnessed by a sequence increasing to 1 whose images stay at 2; analytic-only",
    )
    return "orbit structure on a positive-reals sample, cycle of length two"


# ---------------------------------------------------------------------------
# registry (names, summaries and their order live in `kinds`)
# ---------------------------------------------------------------------------

# name -> runner; a runner fills the recorder and returns its case's title
_RUNNERS: dict[str, Callable[[_Recorder], str]] = {
    "five-point": _case_five_point,
    "rational-product": _case_rational_product,
    "r2-counterexample": _case_r2_counterexample,
    "leq-relation": _case_leq_relation,
    "orbit-space": _case_orbit_space,
}


def run_case(name: str) -> CaseReport:
    """Build and check one registered case; every case report is built here."""
    if name not in _RUNNERS:
        known = ", ".join(CASES)
        raise InputError(f"unknown case {name!r} (known cases: {known})")
    rec = _Recorder()
    title = _RUNNERS[name](rec)
    return CaseReport(name, title, tuple(rec.assertions), tuple(rec.annotations))


def run_all() -> list[CaseReport]:
    return [run_case(name) for name in CASES]
