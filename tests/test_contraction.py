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
from reference import oracle_report

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
    assert (ban.minimal_k, ban.admissible, ban.witness_max) == (Fraction(2), False, (3, 4))

    gen = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping)
    assert (gen.minimal_k, gen.admissible, gen.witness_max) == (Fraction(1, 2), True, (0, 2))

    cir = check_contraction(ContractionKind.CIRIC, space, mapping)
    assert (cir.minimal_k, cir.admissible, cir.witness_max) == (Fraction(2, 3), True, (3, 4))

    kan = check_contraction(ContractionKind.KANNAN, space, mapping)
    assert (kan.minimal_k, kan.admissible, kan.witness_max) == (Fraction(1), False, (0, 2))

    cha = check_contraction(ContractionKind.CHATTERJEA, space, mapping)
    assert (cha.minimal_k, cha.admissible, cha.witness_max) == (Fraction(2, 5), True, (3, 4))

    unr = check_contraction(ContractionKind.UNRESTRICTED_LIPSCHITZ, space, mapping)
    assert (unr.minimal_k, unr.admissible, unr.witness_max) == (Fraction(2), False, (3, 4))


def test_five_point_symmetric_scan_raises_constant(five_point):
    # Scanning both orientations adds (4, 3), whose functional is only 3.
    space, mapping = five_point
    rep = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True)
    assert (rep.minimal_k, rep.witness_max) == (Fraction(2, 3), (4, 3))
    assert m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 4, 3) == 3


def test_reports_match_oracle_on_five_point(five_point):
    space, mapping = five_point
    for kind in KINDS:
        for symmetric in (False, True):
            rep = check_contraction(kind, space, mapping, symmetric=symmetric)
            feasible, minimal, witness, infeasible = oracle_report(kind, space, mapping, symmetric)
            assert rep.feasible == feasible
            assert rep.minimal_k == minimal
            assert rep.witness_max == witness
            assert rep.infeasible_witness == infeasible


def test_reports_match_oracle_on_generated_instances(accepted_instances):
    for space, mapping in accepted_instances:
        for kind in KINDS:
            rep = check_contraction(kind, space, mapping)
            feasible, minimal, witness, infeasible = oracle_report(kind, space, mapping)
            assert (rep.feasible, rep.minimal_k, rep.witness_max, rep.infeasible_witness) == (
                feasible,
                minimal,
                witness,
                infeasible,
            )


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
        assert (rep.feasible, rep.minimal_k, rep.witness_max, rep.infeasible_witness) == expected


def _unit_space(relation):
    metric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    return FiniteSpace(["0", "1"], metric, relation)


def test_kannan_infeasible_on_related_fixed_pair():
    space = _unit_space([(0, 1)])
    identity = SelfMap([0, 1], 2)
    rep = check_contraction(ContractionKind.KANNAN, space, identity)
    assert not rep.feasible
    assert rep.minimal_k is None
    assert rep.infeasible_witness == (0, 1)
    assert not rep.admissible


def test_chatterjea_infeasible_on_swap():
    space = _unit_space([(0, 1)])
    swap = SelfMap([1, 0], 2)
    rep = check_contraction(ContractionKind.CHATTERJEA, space, swap)
    assert not rep.feasible
    assert rep.infeasible_witness == (0, 1)


def test_constant_map_gives_zero_constant_for_every_kind(five_point):
    space, _ = five_point
    constant = SelfMap([0] * 5, 5)
    for kind in KINDS:
        rep = check_contraction(kind, space, constant)
        assert rep.feasible and rep.minimal_k == 0 and rep.admissible


def test_identity_map_is_not_a_contraction():
    space = _unit_space([(0, 0), (0, 1), (1, 1)])
    identity = SelfMap([0, 1], 2)
    rep = check_contraction(ContractionKind.BANACH_PERP, space, identity)
    assert rep.feasible and rep.minimal_k == 1 and not rep.admissible


def test_empty_relation_scans_vacuously():
    space = _unit_space([])
    rep = check_contraction(ContractionKind.GENERALIZED_PERP, space, SelfMap([1, 0], 2))
    assert rep.feasible and rep.minimal_k == 0 and rep.witness_max is None
    assert rep.pairs_scanned == 0


def test_minimal_k_monotone_in_functional(accepted_instances):
    for space, mapping in accepted_instances:
        gen = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping)
        cir = check_contraction(ContractionKind.CIRIC, space, mapping)
        ban = check_contraction(ContractionKind.BANACH_PERP, space, mapping)
        unr = check_contraction(ContractionKind.UNRESTRICTED_LIPSCHITZ, space, mapping)
        if ban.feasible and cir.feasible and gen.feasible:
            assert gen.minimal_k <= cir.minimal_k <= ban.minimal_k
        if ban.feasible and unr.feasible:
            assert unr.minimal_k >= ban.minimal_k


def test_symmetric_scan_never_lowers_constant(accepted_instances):
    for space, mapping in accepted_instances:
        for kind in RESTRICTED:
            plain = check_contraction(kind, space, mapping)
            sym = check_contraction(kind, space, mapping, symmetric=True)
            if plain.feasible and sym.feasible:
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
