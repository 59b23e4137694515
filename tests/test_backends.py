"""The scan on the integer form, on the exact metric and on value pairs must
be indistinguishable: same constants, same witnesses, same feasibility, on
the same pair order."""

from fractions import Fraction

import pytest

from orthofix import (
    ContractionKind,
    FiniteSpace,
    InputError,
    QuadExt,
    SelfMap,
    check_contraction,
    scan_value_pairs,
)

ENGINES = ["scaled", "generic"]


def _report_key(rep):
    return (rep.feasible, rep.minimal_k, rep.witness_max, rep.infeasible_witness, rep.admissible)


def test_engines_agree_on_generated_instances(accepted_instances):
    for space, mapping in accepted_instances:
        for kind in ContractionKind:
            for symmetric in (False, True):
                reports = [
                    check_contraction(kind, space, mapping, symmetric=symmetric, engine=eng)
                    for eng in ENGINES
                ]
                keys = {_report_key(rep) for rep in reports}
                assert len(keys) == 1, (kind, symmetric, reports)


def test_value_pair_scan_matches_index_scan(accepted_instances):
    for space, mapping in accepted_instances:
        stored = sorted(space.relation)
        both = sorted(space.relation | {(j, i) for (i, j) in space.relation})
        every = [(i, j) for i in range(space.n) for j in range(space.n)]
        for kind in ContractionKind:
            for symmetric, pairs in ((False, stored), (True, both)):
                if kind is ContractionKind.UNRESTRICTED_LIPSCHITZ:
                    pairs = every
                expected = check_contraction(kind, space, mapping, symmetric=symmetric)
                assert scan_value_pairs(kind, pairs, space.d, mapping) == expected, (kind, symmetric)


def test_engines_agree_on_five_point(five_point):
    space, mapping = five_point
    for kind in ContractionKind:
        keys = {
            _report_key(check_contraction(kind, space, mapping, engine=eng)) for eng in ENGINES
        }
        assert len(keys) == 1


def test_engines_agree_on_arbitrary_maps():
    # Unfiltered random maps hit the infeasible and vacuous branches too.
    import random

    from orthofix import GenParams, generate_space

    rng = random.Random(99)
    for seed in range(15):
        space = generate_space(GenParams(seed=seed))
        mapping = SelfMap([rng.randrange(space.n) for _ in range(space.n)], space.n)
        for kind in ContractionKind:
            keys = {
                _report_key(check_contraction(kind, space, mapping, engine=eng))
                for eng in ENGINES
            }
            assert len(keys) == 1, (seed, kind)


def test_auto_path_handles_huge_rationals():
    # Entries far beyond 2^61 stay exact on the arbitrary-precision scaled scan.
    big = Fraction(10**30, 7)
    metric = [
        [Fraction(0), big, big],
        [big, Fraction(0), big],
        [big, big, Fraction(0)],
    ]
    space = FiniteSpace(["a", "b", "c"], metric, [(0, 0), (0, 1), (0, 2)])
    mapping = SelfMap([0, 0, 1], 3)
    auto = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping)
    scaled = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, engine="scaled")
    generic = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, engine="generic")
    assert _report_key(auto) == _report_key(scaled) == _report_key(generic)
    for engine in ("compiled", "bogus"):
        with pytest.raises(InputError, match="unknown engine"):
            check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, engine=engine)


def test_scaled_engine_requires_rational_metric():
    one = QuadExt(Fraction(1), Fraction(0), 2)
    root = QuadExt(Fraction(0), Fraction(1), 2)
    zero = QuadExt(Fraction(0), Fraction(0), 2)
    space = FiniteSpace(["a", "b"], [[zero, root], [root, zero]], [(0, 1)])
    mapping = SelfMap([1, 0], 2)
    generic = check_contraction(ContractionKind.BANACH_PERP, space, mapping, engine="generic")
    assert generic.minimal_k == one
    assert _report_key(check_contraction(ContractionKind.BANACH_PERP, space, mapping)) == _report_key(generic)
    with pytest.raises(InputError, match="rational metric"):
        check_contraction(ContractionKind.BANACH_PERP, space, mapping, engine="scaled")
