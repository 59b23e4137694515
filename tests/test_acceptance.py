"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s

Every expected value is exact; comparisons are exact rational (or exact
quadratic) comparisons with zero tolerance.  Derived constants are
re-computed here by an independent brute-force scan before being asserted
against the library.
"""

import json
import time
from fractions import Fraction

import pytest

from orthofix import (
    ContractionKind,
    FiniteSpace,
    GenParams,
    QuadExt,
    brute_force_fixed_points,
    check_contraction,
    classify_orthogonality,
    hierarchy_check,
    is_ow_preserving,
    m_value,
    picard_solve,
    scan_value_pairs,
    theorem_audit,
    validate_metric,
)
from orthofix.cli import main as cli_main
from orthofix.corpus import five_point_example, rational_product_sample, run_all
from cli_runner import CliRunner


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def _brute_minimal_k(space, mapping, kind) -> tuple[Fraction | None, set]:
    """Independent supremum: functionals from their definitions, max via division."""
    d, t = space.d, mapping
    if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
        pairs = [(i, j) for i in range(space.n) for j in range(space.n)]
    else:
        pairs = sorted(space.relation)
    ratios = []
    for (x, y) in pairs:
        tx, ty, ttx = t(x), t(y), t(t(x))
        if kind in (ContractionKind.BANACH_PERP, ContractionKind.UNRESTRICTED_LIPSCHITZ):
            den = d(x, y)
        else:
            den = max(
                d(x, y), d(x, tx), d(y, ty), (d(x, ty) + d(tx, y)) / 2,
                (d(ttx, x) + d(ttx, ty)) / 2, d(ttx, tx), d(ttx, y), d(ttx, ty),
            )
        num = d(tx, ty)
        if den == 0:
            if num > 0:
                return None, set()
            continue
        ratios.append((num / den, (x, y)))
    if not ratios:
        return Fraction(0), set()
    top = max(r for r, _ in ratios)
    return top, {pair for r, pair in ratios if r == top}


@pytest.fixture(scope="module")
def audit_500():
    start = time.perf_counter()
    summary = theorem_audit(GenParams())
    return summary, time.perf_counter() - start


def test_criterion_1_five_point_reproduction():
    start = time.perf_counter()
    space, mapping = five_point_example()

    cls = classify_orthogonality(space)
    assert cls.verdict == "O_w-set-only"
    assert set(cls.weak_elements) == {0}
    assert is_ow_preserving(space, mapping).preserving
    assert m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 3, 4) == Fraction(4)

    ban = check_contraction(ContractionKind.BANACH_PERP, space, mapping)
    assert not ban.admissible and ban.minimal_k == Fraction(2) and ban.witness_max == (3, 4)
    oracle_ban, oracle_ban_wits = _brute_minimal_k(space, mapping, ContractionKind.BANACH_PERP)
    assert oracle_ban == Fraction(2) and ban.witness_max in oracle_ban_wits

    gen = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping)
    oracle_gen, oracle_gen_wits = _brute_minimal_k(space, mapping, ContractionKind.GENERALIZED_PERP)
    assert oracle_gen == Fraction(1, 2)
    assert gen.minimal_k == Fraction(1, 2) and gen.admissible
    assert oracle_gen_wits == {(0, 2), (3, 4), (4, 0)}
    assert gen.witness_max in oracle_gen_wits

    assert brute_force_fixed_points(space, mapping) == frozenset({0})

    trace = picard_solve(space, mapping, 4, k=Fraction(1, 2), allow_any_start=True)
    assert trace.iterates == (4, 2, 1, 0)
    assert trace.applications == 3
    assert trace.converged and trace.fixed_point == 0

    elapsed = time.perf_counter() - start
    _announce(
        1,
        elapsed < 1.0,
        f"five-point: O_w-set-only, weak={{0}}, M(3,4)=4, banach k=2@(3,4), "
        f"generalized k=1/2, fixed point 0 via 4->2->1->0 in 3 applications ({elapsed:.3f}s)",
    )


def test_criterion_2_plane_counterexample():
    start = time.perf_counter()
    from orthofix.corpus import plane_map

    for n in range(1, 1001):
        y_n = (Fraction(1, n), Fraction(1, n + 1))
        y_next = (Fraction(1, n + 1), Fraction(1, n + 2))
        inner = y_n[0] * y_next[0] + y_n[1] * y_next[1]
        assert inner == Fraction(1, n * (n + 1)) + Fraction(1, (n + 1) * (n + 2))
        assert inner > 0
        first = plane_map(y_n)[0]
        assert first == Fraction(n * (n + 1), 2 * n * n + 2 * n + 1)
        assert abs(first - Fraction(1, 2)) == Fraction(1, 2 * (2 * n * n + 2 * n + 1))
    assert plane_map((Fraction(1), Fraction(1, 2)))[0] == Fraction(2, 5)
    assert plane_map((Fraction(1, 2), Fraction(1, 3)))[0] == Fraction(6, 13)
    gap_at_1000 = abs(plane_map((Fraction(1, 1000), Fraction(1, 1001)))[0] - Fraction(1, 2))
    assert gap_at_1000 < Fraction(1, 10**6)
    assert plane_map((Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))

    elapsed = time.perf_counter() - start
    _announce(
        2,
        elapsed < 1.0,
        f"plane counterexample: 1000 exact inner products > 0, image first coordinate "
        f"n(n+1)/(2n^2+2n+1) -> 1/2 (gap {gap_at_1000} < 1e-6) while the origin stays fixed ({elapsed:.3f}s)",
    )


def test_criterion_3_quadratic_sample():
    start = time.perf_counter()
    labels, values, dist, rel, apply_map = rational_product_sample()
    n = len(values)

    related_pairs = [
        (values[i], values[j]) for i in range(n) for j in range(n) if rel(values[i], values[j])
    ]
    ban = scan_value_pairs(ContractionKind.BANACH_PERP, related_pairs, dist, apply_map)
    assert ban.minimal_k == Fraction(1, 3) and ban.admissible

    all_pairs = [(values[i], values[j]) for i in range(n) for j in range(n)]
    unr = scan_value_pairs(ContractionKind.UNRESTRICTED_LIPSCHITZ, all_pairs, dist, apply_map)
    assert not unr.admissible
    assert unr.witness_max == (values[1], values[5])  # (1, 1 + (1/11) sqrt 11)

    # Deciding comparison, squaring oracle first: (1/3)^2 = 1/9 > 1/11 = ((1/11) sqrt 11)^2.
    assert Fraction(1, 9) > Fraction(1, 11)
    assert (QuadExt(Fraction(1, 3), 0, 11) - QuadExt(0, Fraction(1, 11), 11)).sign() == 1

    elapsed = time.perf_counter() - start
    _announce(
        3,
        elapsed < 1.0,
        f"quadratic sample: related-pair minimal k = 1/3 exactly; unrestricted check fails at "
        f"(1, 1+(1/11)*sqrt(11)) since 1/3 > (1/11)*sqrt(11) exactly ({elapsed:.3f}s)",
    )


def test_criterion_4_theorem_audit(audit_500):
    summary, elapsed = audit_500
    assert summary.trials_run == 500
    assert summary.conclusion_verified == 500
    assert summary.failures == ()
    assert summary.traces_checked >= 500

    _announce(
        4,
        elapsed < 60.0,
        f"audit: 500/500 accepted instances have a unique brute-force fixed point reached by "
        f"every certified trace; step and tail inequalities exact ({summary.traces_checked} traces, {elapsed:.2f}s)",
    )


def test_criterion_5_hierarchy(audit_500):
    summary, _ = audit_500
    assert summary.hierarchy_failures == 0
    corpus_failures = []
    for space, mapping in (five_point_example(),):
        corpus_failures += [v.name for v in hierarchy_check(space, mapping) if not v.holds]
    from orthofix.corpus import orbit_space_example

    space, mapping = orbit_space_example()
    corpus_failures += [v.name for v in hierarchy_check(space, mapping) if not v.holds]
    assert corpus_failures == []

    _announce(
        5,
        True,
        "hierarchy: zero implication failures across 500 audited instances and the corpus "
        "(banach => ciric => generalized at k; kannan/chatterjea at k < 1/2 => ciric at 2k)",
    )


def test_criterion_6_validator_witnesses():
    tri = FiniteSpace(
        ["0", "1", "2"],
        [[Fraction(v) for v in row] for row in ([0, 1, 5], [1, 0, 1], [5, 1, 0])],
        [],
    )
    report = validate_metric(tri)
    assert not report.ok
    witnessed = [(v.axiom, v.witness) for v in report.violations]
    assert ("triangle", (0, 2, 1)) in witnessed
    # Witness is concrete and correct: d(0,2) really exceeds d(0,1) + d(1,2).
    assert tri.d(0, 2) > tri.d(0, 1) + tri.d(1, 2)

    asym = FiniteSpace(["0", "1"], [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]], [])
    report2 = validate_metric(asym)
    assert not report2.ok
    assert ("symmetry", (0, 1)) in [(v.axiom, v.witness) for v in report2.violations]
    assert asym.d(0, 1) != asym.d(1, 0)

    space, _ = five_point_example()
    assert validate_metric(space).ok

    _announce(
        6,
        True,
        "validator: triangle violation witnessed by (0,2,1), asymmetry by (0,1); "
        "the five-point matrix is accepted",
    )


def test_criterion_7_audit_determinism():
    runner = CliRunner()
    args = ["audit", "--seed", "42", "--trials", "100", "--json"]
    first = runner.invoke(cli_main, args)
    second = runner.invoke(cli_main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["schema"] == 2 and payload["trials_run"] == 100

    _announce(7, True, "determinism: audit --seed 42 --trials 100 twice -> byte-identical JSON")


def test_corpus_gate_all_cases_green():
    # Not a numbered criterion by itself, but the corpus underpins 1-3 and 5.
    reports = run_all()
    assert all(r.ok for r in reports)
    print("\ncorpus: " + ", ".join(f"{r.name} {sum(a.passed for a in r.assertions)}/{len(r.assertions)}" for r in reports))
