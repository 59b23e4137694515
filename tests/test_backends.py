"""The scan on the integer form, on the exact metric and on value pairs must
be indistinguishable: same constants, same witnesses, same feasibility, on
the same pair order -- and equal to the independent reference.  So must
every report filled in a shared pass, whichever reports share it."""

import random
from fractions import Fraction

import pytest

from orthofix import (
    ContractionKind,
    FiniteSpace,
    GenParams,
    InputError,
    SelfMap,
    check_contraction,
    contraction,
    generate_space,
    m_value,
    scan_value_pairs,
)
from reference import oracle_functional, oracle_report

ENGINES = ["scaled", "generic"]
KEYS = [(kind, symmetric) for kind in ContractionKind for symmetric in (False, True)]
ORIENTED = [
    ContractionKind.BANACH_PERP,
    ContractionKind.CIRIC,
    ContractionKind.KANNAN,
    ContractionKind.CHATTERJEA,
    ContractionKind.GENERALIZED_PERP,
]
# The sets of reports the callers fill in one pass, and every key at once.
BATCHES = {
    "verify": [(kind, False) for kind in ContractionKind] + [(ContractionKind.GENERALIZED_PERP, True)],
    "hierarchy": [(kind, False) for kind in ORIENTED],
    "hierarchy after the corpus's generalized and banach": [(kind, False) for kind in ORIENTED[1:4]],
    "every key": KEYS,
}


def _report_key(rep):
    return (rep.feasible, rep.minimal_k, rep.witness_max, rep.infeasible_witness, rep.admissible)


def test_engines_agree_on_generated_instances(accepted_instances):
    # A generated metric holds ints and is its own integer form, so both engines would read one object;
    # the same space with every distance divided by 3 makes "generic" run on Fractions.  Scaling keeps
    # every constant and witness.
    for space, mapping in accepted_instances:
        thirds = FiniteSpace(space.points, [[Fraction(v, 3) for v in row] for row in space.metric], space.sorted_relation)
        assert thirds.int_metric is not thirds.metric
        for kind in ContractionKind:
            for symmetric in (False, True):
                reports = [
                    check_contraction(kind, sp, mapping, symmetric=symmetric, engine=eng)
                    for sp in (space, thirds)
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
    # Unfiltered spaces and uniformly random maps hit the infeasible and vacuous branches too, and the
    # terms that decide a constant vary from instance to instance; both engines must equal the reference.
    densities = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for seed in range(300):
        params = GenParams(seed=seed, max_points=6, relation_density=densities[seed % 3])
        rng = random.Random(seed)
        space = generate_space(params, rng)
        mapping = SelfMap([rng.randrange(space.n) for _ in range(space.n)])
        _assert_batches_match(space, mapping, seed)


def _assert_batches_match(space, mapping, where):
    """Every report, alone and in every batch, in both engines, equals the reference."""
    for eng, m in zip(ENGINES, (space.int_metric, space.metric)):
        alone = {}
        for kind, symmetric in KEYS:
            rep = alone[kind, symmetric] = check_contraction(kind, space, mapping, symmetric=symmetric, engine=eng)
            assert _report_key(rep)[:4] == oracle_report(kind, space, mapping, symmetric), (where, kind, symmetric, eng)
        for name, keys in BATCHES.items():
            assert contraction._pass(space, m, mapping.images, keys) == [alone[key] for key in keys], (where, name, eng)
    filled = SelfMap(mapping.images)
    for name, keys in BATCHES.items():
        assert contraction.reports(space, filled, keys) == tuple(alone[key] for key in keys), (where, name)
    for kind in ORIENTED:
        for x, y in ((0, space.n - 1), (space.n - 1, 0)):
            expected = oracle_functional(kind, lambda i, j: Fraction(space.d(i, j)), mapping, x, y)
            assert m_value(kind, space, mapping, x, y) == expected, (where, kind, x, y)


def _off_contract_space(rng, entry):
    """A FiniteSpace whose matrix a space file could not hold, with a random relation and map."""
    n = rng.randrange(2, 7)
    metric = [[0 if i == j else entry(rng) for j in range(n)] for i in range(n)]
    relation = [(i, j) for i in range(n) for j in range(n) if rng.randrange(2)]
    return FiniteSpace([str(i) for i in range(n)], metric, relation), SelfMap([rng.randrange(n) for _ in range(n)])


OFF_CONTRACT = {
    # d(Tx, y) and d(y, Tx) differ, so ciric's half-sum and chatterjea read different entries
    "asymmetric": lambda rng: Fraction(rng.randrange(1, 9), rng.randrange(1, 4)),
    # a zero functional with d(Tx, Ty) > 0 makes a kind infeasible
    "zero off the diagonal": lambda rng: rng.choice((0, 0, 1, 2)),
    # a negative denominator must rank its pair by the true ratio
    "negative": lambda rng: Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)),
}


@pytest.mark.parametrize("matrix", OFF_CONTRACT)
def test_batches_match_the_reference_off_contract(matrix):
    rng = random.Random(matrix)
    infeasible = negative = asymmetric = 0
    for trial in range(150):
        space, mapping = _off_contract_space(rng, OFF_CONTRACT[matrix])
        _assert_batches_match(space, mapping, (matrix, trial))
        infeasible += not check_contraction(ContractionKind.UNRESTRICTED_LIPSCHITZ, space, mapping).feasible
        negative += any(v < 0 for row in space.metric for v in row)
        asymmetric += any(space.d(i, j) != space.d(j, i) for i in range(space.n) for j in range(space.n))
    # the instances reach what each matrix is for
    assert {"asymmetric": asymmetric, "zero off the diagonal": infeasible, "negative": negative}[matrix] > 100


def test_zero_distances_make_every_report_infeasible():
    # Every term of every functional at (0, 1) and (1, 0) is a zero entry, while T moves them apart.
    metric = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    space = FiniteSpace(list("abcd"), metric, [(0, 1)])
    mapping = SelfMap([2, 3, 0, 0])
    _assert_batches_match(space, mapping, "all infeasible")
    for rep in contraction.reports(space, mapping, KEYS):
        assert not rep.feasible and rep.minimal_k is None and not rep.admissible, rep
        assert rep.infeasible_witness == (0, 1), rep  # the first pair of each set


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
