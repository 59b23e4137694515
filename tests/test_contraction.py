"""Contraction scans checked against an independent brute-force oracle.

The oracle (`reference.oracle_report`) recomputes every functional from its
definition with plain Fraction arithmetic, max() and division; the library
path uses the space's integer form, doubled functionals and cross-multiplied
comparisons, so agreement is a real two-implementation check.
"""

from fractions import Fraction

import pytest

from orthofix import (
    ContractionKind,
    FiniteSpace,
    InputError,
    SelfMap,
    check_contraction,
    contraction,
    hierarchy_check,
    m_value,
    parse_space_data,
    scan_value_pairs,
    space_to_dict,
)
from orthofix.corpus import rational_product_sample
from orthofix.quadext import QuadExt
from reference import one_witness, oracle_report

KINDS = list(ContractionKind)
RESTRICTED = [k for k in KINDS if k is not ContractionKind.UNRESTRICTED_LIPSCHITZ]


def test_m_value_five_point_worst_pair(five_point):
    space, mapping = five_point
    assert m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 3, 4) == 4


def test_m_value_five_point_term_list(five_point):
    # Eight terms at (0, 4): {4, 0, 2, 3, 1, 0, 4, 2}; max 4.
    space, mapping = five_point
    d, t = space.d, mapping
    x, y = 0, 4
    tx, ty, ttx = t(x), t(y), t(t(x))
    terms = [
        d(x, y), d(x, tx), d(y, ty),
        (d(x, ty) + d(tx, y)) / 2,
        (d(ttx, x) + d(ttx, ty)) / 2,
        d(ttx, tx), d(ttx, y), d(ttx, ty),
    ]
    assert terms == [4, 0, 2, 3, 1, 0, 4, 2]
    assert m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 0, 4) == max(terms) == 4


def test_m_value_vanishes_at_fixed_point(five_point):
    space, mapping = five_point
    assert m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 0, 0) == 0


def test_m_value_other_kinds_five_point(five_point):
    space, mapping = five_point
    assert m_value(ContractionKind.BANACH_PERP, space, mapping, 3, 4) == 1
    assert m_value(ContractionKind.CIRIC, space, mapping, 3, 4) == 3
    assert m_value(ContractionKind.KANNAN, space, mapping, 3, 4) == 5
    assert m_value(ContractionKind.CHATTERJEA, space, mapping, 3, 4) == 5


def test_m_value_rejects_unrestricted_and_bad_index(five_point):
    space, mapping = five_point
    with pytest.raises(InputError):
        m_value(ContractionKind.UNRESTRICTED_LIPSCHITZ, space, mapping, 0, 1)
    with pytest.raises(InputError):
        m_value(ContractionKind.CIRIC, space, mapping, 0, 9)


def test_five_point_reports_frozen_values(five_point):
    space, mapping = five_point
    ban = check_contraction(ContractionKind.BANACH_PERP, space, mapping)
    assert (ban.minimal_k, ban.admissible, ban.witness) == (Fraction(2), False, (3, 4))

    gen = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping)
    assert (gen.minimal_k, gen.admissible, gen.witness) == (Fraction(1, 2), True, (0, 2))

    cir = check_contraction(ContractionKind.CIRIC, space, mapping)
    assert (cir.minimal_k, cir.admissible, cir.witness) == (Fraction(2, 3), True, (3, 4))

    kan = check_contraction(ContractionKind.KANNAN, space, mapping)
    assert (kan.minimal_k, kan.admissible, kan.witness) == (Fraction(1), False, (0, 2))

    cha = check_contraction(ContractionKind.CHATTERJEA, space, mapping)
    assert (cha.minimal_k, cha.admissible, cha.witness) == (Fraction(2, 5), True, (3, 4))

    unr = check_contraction(ContractionKind.UNRESTRICTED_LIPSCHITZ, space, mapping)
    assert (unr.minimal_k, unr.admissible, unr.witness) == (Fraction(2), False, (3, 4))


def test_five_point_symmetric_scan_raises_constant(five_point):
    # Scanning both orientations adds (4, 3), whose functional is only 3.
    space, mapping = five_point
    rep = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    assert (rep.minimal_k, rep.witness) == (Fraction(2, 3), (4, 3))
    assert m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 4, 3) == 3


def test_reports_match_oracle_on_five_point(five_point):
    space, mapping = five_point
    for kind in KINDS:
        for symmetric in (False, True):
            rep = check_contraction(kind, space, mapping, symmetric=symmetric)
            assert (rep.minimal_k, rep.witness) == one_witness(oracle_report(kind, space, mapping, symmetric))


def test_reports_match_oracle_on_generated_instances(accepted_instances):
    for space, mapping in accepted_instances:
        for kind in KINDS:
            rep = check_contraction(kind, space, mapping)
            assert (rep.minimal_k, rep.witness) == one_witness(oracle_report(kind, space, mapping))


def test_half_sum_term_decides_the_generalized_constant():
    # At (2, 3) the generalized functional is 6, and only [d(T2x,x)+d(T2x,Ty)]/2 = (8+4)/2 reaches it;
    # every other term is at most 5, so a scan without that term reports 5/5 = 1 there.
    metric = [[0, 4, 8, 4], [4, 0, 5, 5], [8, 5, 0, 4], [4, 5, 4, 0]]
    relation = [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)]
    space = FiniteSpace(["a", "b", "c", "d"], metric, relation)
    mapping = SelfMap([2, 0, 1, 3])
    kind = ContractionKind.GENERALIZED_PERP
    assert m_value(kind, space, mapping, 2, 3) == 6 and m_value(ContractionKind.CIRIC, space, mapping, 2, 3) == 5
    for symmetric, expected in ((False, (True, Fraction(5, 6), (2, 3), None)), (True, (True, Fraction(1), (3, 2), None))):
        assert oracle_report(kind, space, mapping, symmetric) == expected
        rep = check_contraction(kind, space, mapping, symmetric=symmetric)
        assert (rep.minimal_k, rep.witness) == one_witness(expected)


def _unit_space(relation):
    metric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    return FiniteSpace(["0", "1"], metric, relation)


def test_kannan_infeasible_on_related_fixed_pair():
    space = _unit_space([(0, 1)])
    identity = SelfMap([0, 1], 2)
    rep = check_contraction(ContractionKind.KANNAN, space, identity)
    assert rep.minimal_k is None
    assert rep.witness == (0, 1)
    assert not rep.admissible


def test_chatterjea_infeasible_on_swap():
    space = _unit_space([(0, 1)])
    swap = SelfMap([1, 0], 2)
    rep = check_contraction(ContractionKind.CHATTERJEA, space, swap)
    assert rep.minimal_k is None
    assert rep.witness == (0, 1)


# Each kind's bound, exactly, in each value domain.  On the swap (two points at distance a, relation
# {(0, 1)}, map [1, 0]) the banach, ciric and generalized constants are exactly 1 and the kannan constant
# exactly 1/2.  On three points with d(0, 1) = d(0, 2) = a, d(1, 2) = b and map [1, 2, 2], the pair (0, 1)
# gives b / a and b / (a + b): with b just below a, each constant is just below its bound.
_AT_AND_BELOW = {
    "integer form": (10**30, 10**30 - 1),
    "Fraction metric": (Fraction(10**30, 3), Fraction(10**30, 3) - Fraction(1, 10**30)),
    "QuadExt": (QuadExt(0, 1, 2), QuadExt(0, 1, 2) - Fraction(1, 10**30)),
}


def _scan_in(domain, kind, metric, images):
    if domain == "QuadExt":
        return scan_value_pairs(kind, [(0, 1)], lambda x, y: metric[x][y], images.__getitem__)
    space = FiniteSpace([str(i) for i in range(len(metric))], metric, [(0, 1)])
    if domain == "integer form":
        assert space.int_metric is space.metric
        return check_contraction(kind, space, SelfMap(images, len(metric)))
    assert space.int_metric != space.metric  # the generic engine reads the Fraction metric, not the integer form
    return check_contraction(kind, space, SelfMap(images, len(metric)), engine="generic")


@pytest.mark.parametrize("domain", _AT_AND_BELOW)
def test_a_constant_at_its_bound_is_inadmissible_and_one_just_below_is_admissible(domain):
    a, b = _AT_AND_BELOW[domain]
    swap = ([[0, a], [a, 0]], [1, 0])
    below = ([[0, a, a], [a, 0, b], [a, b, 0]], [1, 2, 2])
    ratio = b / a if domain != "integer form" else Fraction(b, a)
    for kind, bound, just_below in (
        (ContractionKind.BANACH_PERP, 1, ratio),
        (ContractionKind.CIRIC, 1, ratio),
        (ContractionKind.GENERALIZED_PERP, 1, ratio),
        (ContractionKind.KANNAN, Fraction(1, 2), ratio / (1 + ratio)),
    ):
        at = _scan_in(domain, kind, *swap)
        assert at.minimal_k == bound and not at.admissible, kind
        under = _scan_in(domain, kind, *below)
        assert under.minimal_k == just_below < bound and under.admissible, kind


def test_value_scan_reads_an_iterator_of_pairs_as_its_list():
    _, values, dist, _, apply_map = rational_product_sample()
    pairs = [(x, y) for x in values for y in values]
    for kind in KINDS:
        rep = scan_value_pairs(kind, ((x, y) for x, y in pairs), dist, apply_map)
        assert rep == scan_value_pairs(kind, pairs, dist, apply_map), kind
    assert rep.witness is not None  # read back from the pairs after the scan


def test_constant_map_gives_zero_constant_for_every_kind(five_point):
    space, _ = five_point
    constant = SelfMap([0] * 5, 5)
    for kind in KINDS:
        rep = check_contraction(kind, space, constant)
        assert rep.minimal_k == 0 and rep.admissible


def test_identity_map_is_not_a_contraction():
    space = _unit_space([(0, 0), (0, 1), (1, 1)])
    identity = SelfMap([0, 1], 2)
    rep = check_contraction(ContractionKind.BANACH_PERP, space, identity)
    assert rep.minimal_k == 1 and not rep.admissible


def test_empty_relation_scans_vacuously():
    space = _unit_space([])
    rep = check_contraction(ContractionKind.GENERALIZED_PERP, space, SelfMap([1, 0], 2))
    assert rep.minimal_k == 0 and rep.witness is None and rep.admissible


def test_minimal_k_monotone_in_functional(accepted_instances):
    for space, mapping in accepted_instances:
        gen = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping)
        cir = check_contraction(ContractionKind.CIRIC, space, mapping)
        ban = check_contraction(ContractionKind.BANACH_PERP, space, mapping)
        unr = check_contraction(ContractionKind.UNRESTRICTED_LIPSCHITZ, space, mapping)
        if None not in (ban.minimal_k, cir.minimal_k, gen.minimal_k):
            assert gen.minimal_k <= cir.minimal_k <= ban.minimal_k
        if None not in (ban.minimal_k, unr.minimal_k):
            assert unr.minimal_k >= ban.minimal_k


def test_symmetric_scan_never_lowers_constant(accepted_instances):
    for space, mapping in accepted_instances:
        for kind in RESTRICTED:
            plain = check_contraction(kind, space, mapping)
            sym = check_contraction(kind, space, mapping, symmetric=True)
            if None not in (plain.minimal_k, sym.minimal_k):
                assert sym.minimal_k >= plain.minimal_k


def test_hierarchy_check_passes(five_point, accepted_instances):
    for space, mapping in [five_point] + accepted_instances:
        verdicts = hierarchy_check(space, mapping)
        assert len(verdicts) == 5
        assert all(v.holds for v in verdicts), [v.name for v in verdicts if not v.holds]


def test_integer_form_verdict_fails_on_corrupted_integer_form(five_point):
    space, mapping = five_point
    assert hierarchy_check(space, mapping)[0].name == "integer-form-exact"
    # The generalized witness (0, 2) maps to (0, 1); inflate that distance.
    rows = [list(row) for row in space.int_metric]
    rows[0][1] += 100
    object.__setattr__(space, "int_metric", tuple(tuple(row) for row in rows))  # bypass immutability to plant a fault
    verdict = hierarchy_check(space, mapping)[0]
    assert verdict.name == "integer-form-exact" and not verdict.holds
    assert verdict.witness is not None


@pytest.mark.parametrize("i, j", [(i, j) for i in range(5) for j in range(5)])
def test_integer_form_verdict_catches_every_single_entry_corruption(five_point, i, j):
    # Any inflated entry must be caught, not only one that a scan happens to read.
    space, mapping = five_point
    rows = [list(row) for row in space.int_metric]
    rows[i][j] += 100
    object.__setattr__(space, "int_metric", tuple(tuple(row) for row in rows))  # bypass immutability to plant a fault
    verdict = hierarchy_check(space, mapping)[0]
    assert verdict.name == "integer-form-exact" and not verdict.holds
    assert verdict.witness == (i, j)


def test_integer_form_verdict_fails_when_the_metric_is_its_own_integer_form(five_point):
    # A loaded all-int metric is its own integer form, and the verdict still reads every entry.
    space, mapping = parse_space_data(space_to_dict(*five_point))
    assert space.int_metric is space.metric
    assert hierarchy_check(space, mapping)[0].holds
    rows = [list(row) for row in space.int_metric]
    rows[2][3] += 1
    rows[4][1] += 1
    object.__setattr__(space, "int_metric", tuple(tuple(row) for row in rows))  # bypass immutability to plant a fault
    verdict = hierarchy_check(space, mapping)[0]
    assert verdict.name == "integer-form-exact" and not verdict.holds
    assert verdict.witness == (2, 3)


_KIND_ENTRY_POINTS = {
    "ContractionKind": lambda space, mapping, kind: ContractionKind(kind),
    "check_contraction": lambda space, mapping, kind: check_contraction(kind, space, mapping),
    "report": lambda space, mapping, kind: contraction.report(kind, space, mapping),
    "scan_value_pairs": lambda space, mapping, kind: scan_value_pairs(kind, [(0, 1)], space.d, mapping),
    "m_value": lambda space, mapping, kind: m_value(kind, space, mapping, 0, 1),
}


def test_kind_parsing(five_point):
    # Every entry point that takes a kind name parses it with ContractionKind(...), and an unknown
    # name is out-of-contract input, not a bare ValueError.
    space, mapping = five_point
    for entry, call in _KIND_ENTRY_POINTS.items():
        assert call(space, mapping, "ciric") == call(space, mapping, ContractionKind.CIRIC), entry
        with pytest.raises(InputError, match="unknown contraction kind 'hardy-rogers'"):
            call(space, mapping, "hardy-rogers")
