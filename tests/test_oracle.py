import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthofix import (
    ContractionKind,
    FiniteSpace,
    GenParams,
    InputError,
    SelfMap,
    brute_force_fixed_points,
    check_contraction,
    generate_map,
    generate_space,
    hypothesis_check,
    is_ow_preserving,
    theorem_audit,
    validate_metric,
    weak_orthogonal_elements,
)
from orthofix import oracle
from orthofix.oracle import _below, _sample_map
from orthofix.spacefile import space_to_dict


def test_brute_force_fixed_points(five_point):
    space, mapping = five_point
    assert brute_force_fixed_points(space, mapping) == frozenset({0})
    identity = SelfMap(list(range(5)), 5)
    assert brute_force_fixed_points(space, identity) == frozenset(range(5))
    three = FiniteSpace(
        ["a", "b", "c"],
        [[Fraction(int(i != j)) for j in range(3)] for i in range(3)],
        [],
    )
    assert brute_force_fixed_points(three, SelfMap([1, 2, 0], 3)) == frozenset()


@given(st.integers(0, 2**63))
def test_generated_spaces_are_sound(seed):
    space = generate_space(GenParams(seed=seed))
    assert validate_metric(space).ok
    assert weak_orthogonal_elements(space)


def test_generate_space_deterministic():
    a = generate_space(GenParams(seed=123))
    b = generate_space(GenParams(seed=123))
    assert space_to_dict(a) == space_to_dict(b)
    c = generate_space(GenParams(seed=124))
    assert space_to_dict(a) != space_to_dict(c)


def test_zero_density_relation_is_only_the_augmentation():
    params = GenParams(seed=5, relation_density=Fraction(0))
    space = generate_space(params)
    weak = weak_orthogonal_elements(space)
    assert weak
    hub = min(weak)
    assert all(i == hub or j == hub for (i, j) in space.relation)


def test_constant_map_to_weak_element_always_accepted():
    for seed in range(10):
        space = generate_space(GenParams(seed=seed))
        hub = min(weak_orthogonal_elements(space))
        constant = SelfMap([hub] * space.n, space.n)
        assert hypothesis_check(space, constant).all_hold


def test_cyclic_permutation_on_equilateral_space_rejected():
    metric = [[Fraction(int(i != j)) for j in range(3)] for i in range(3)]
    space = FiniteSpace(["a", "b", "c"], metric, [(i, j) for i in range(3) for j in range(3)])
    cyclic = SelfMap([1, 2, 0], 3)
    rep = hypothesis_check(space, cyclic)
    assert rep.has_weak_element and rep.preserving and rep.minimal_k == 1 and not rep.all_hold


def test_generate_map_returns_accepted_candidate():
    params = GenParams(seed=9)
    space = generate_space(params)
    mapping = generate_map(params, space, random.Random(9))
    assert mapping is not None
    assert hypothesis_check(space, mapping).all_hold


def _generate_space_reference(params, rng):
    """The generator written plainly: one `randrange` per draw and the textbook triple-loop closure.

    Returns the metric as a list of rows and the relation as a set of pairs.
    """
    n = 2 + rng.randrange(params.max_points - 1)
    lo, hi = (1, 10)  # the edge weights' range, written out here, so a changed `oracle._WEIGHTS` fails
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.randrange(lo, hi + 1)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    num, den = params.relation_density.as_integer_ratio()
    relation = set()
    for i in range(n):
        for j in range(n):
            if rng.randrange(den) < num:
                relation.add((i, j))
    x0 = rng.randrange(n)
    for y in range(n):
        if (x0, y) not in relation and (y, x0) not in relation:
            relation.add((x0, y) if rng.getrandbits(1) else (y, x0))
    return w, relation


@pytest.mark.parametrize("max_points", [2, 8, 32])
@pytest.mark.parametrize("density", [Fraction(0), Fraction(1, 4), Fraction(1)], ids=str)
def test_generator_draws_the_reference_stream(max_points, density):
    # The same metric, the same relation, and the stream left at the same state.
    for seed in range(33):
        params = GenParams(seed=seed, max_points=max_points, relation_density=density)
        ours, theirs = random.Random(seed), random.Random(seed)
        space = generate_space(params, ours)
        metric, relation = _generate_space_reference(params, theirs)
        assert [list(row) for row in space.metric] == metric, seed
        assert list(space.sorted_relation) == sorted(relation), seed
        assert ours.getstate() == theirs.getstate(), seed


def _sample_map_reference(params, space, rng):
    """The sampler as it was before its preservation prescreen: every candidate built and judged as a map.

    Each candidate is judged by public calls that keep no memo, so the reference is independent of it.
    """
    for attempt in range(params.map_attempts):
        attractor = rng.randrange(space.n)
        images = [attractor if rng.getrandbits(1) else rng.randrange(space.n) for _ in range(space.n)]
        candidate = SelfMap(images, space.n)
        if (
            bool(space.weak_elements)
            and is_ow_preserving(space, candidate).preserving
            and check_contraction(ContractionKind.GENERALIZED_PERP, space, candidate, symmetric=True).admissible
        ):
            return candidate, attempt + 1
    return None, params.map_attempts


@pytest.mark.parametrize("max_points", [2, 8, 32])
@pytest.mark.parametrize("density", [Fraction(0), Fraction(1, 4), Fraction(1)], ids=str)
def test_sampler_draws_the_reference_stream(max_points, density):
    # Same accepted images, same attempt count, and the stream left at the same state.
    for seed in range(33):
        params = GenParams(seed=seed, max_points=max_points, relation_density=density)
        space = generate_space(params)
        ours, theirs = random.Random(seed), random.Random(seed)
        mapping, tried = _sample_map(params, space, ours)
        expected, expected_tried = _sample_map_reference(params, space, theirs)
        assert tried == expected_tried, seed
        assert getattr(mapping, "images", None) == getattr(expected, "images", None), seed
        assert ours.getstate() == theirs.getstate(), seed


def test_below_draws_what_randrange_draws():
    # The same values, and the generator left where randrange leaves it, for every bound the sampler uses.
    for n in range(1, 71):
        ours, theirs = random.Random(n), random.Random(n)
        assert [_below(ours, n) for _ in range(400)] == [theirs.randrange(n) for _ in range(400)], n
        assert ours.getrandbits(64) == theirs.getrandbits(64), n


def test_audit_zero_trials_is_empty():
    summary = theorem_audit(GenParams(seed=1, trials=0))
    assert summary.trials_run == 0 and summary.conclusion_verified == 0
    assert summary.failures == ()
    assert summary.ok


def test_audit_small_run_verifies_everything():
    summary = theorem_audit(GenParams(seed=7, trials=40))
    assert summary.trials_run == 40
    assert summary.conclusion_verified == 40
    assert summary.failures == ()
    assert summary.hierarchy_failures == 0
    assert summary.traces_checked >= 40
    assert summary.maps_tried >= 40
    assert summary.conclusion_verified + len(summary.failures) == summary.trials_run


def test_accepted_map_failing_the_hypotheses_is_a_discrepancy(monkeypatch):
    # A sampler that accepts a non-preserving map with one fixed point: 0 settles at 1, which is unrelated to itself.
    space = FiniteSpace(["0", "1"], [[0, 1], [1, 0]], [(0, 0), (0, 1)])
    monkeypatch.setattr(oracle, "generate_space", lambda params, rng: space)
    monkeypatch.setattr(oracle, "_sample_map", lambda params, space, rng: (SelfMap([1, 1], 2), 1))
    summary = theorem_audit(GenParams(seed=3, trials=2))
    assert not summary.ok and summary.trials_run == 2 and summary.conclusion_verified == 0
    assert [failure.discrepancy for failure in summary.failures] == [
        "accepted map fails the hypotheses: has_weak_element=True, preserving=False, minimal_k=0"
    ] * 2


def test_audit_replay_is_bit_identical():
    a = theorem_audit(GenParams(seed=11, trials=25))
    b = theorem_audit(GenParams(seed=11, trials=25))
    assert a.to_dict() == b.to_dict()


def test_params_validation():
    with pytest.raises(InputError):
        GenParams(max_points=1)
    with pytest.raises(InputError):
        GenParams(max_points=33)
    with pytest.raises(TypeError):
        GenParams(weight_range=(1, 10))  # the edge weights are the generator's `_WEIGHTS`, not a parameter
    with pytest.raises(InputError):
        GenParams(relation_density=Fraction(3, 2))
    with pytest.raises(InputError):
        GenParams(trials=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"relation_density": 0.3},
        {"relation_density": True},
        {"relation_density": "1/4"},
        {"trials": True},
        {"trials": 5.0},
        {"max_points": 8.0},
        {"seed": 1.5},
        {"map_attempts": True},
    ],
)
def test_params_reject_floats_and_bools(kwargs):
    # A float is its binary approximation: 0.3 would be stored as 5404319552844595/18014398509481984.
    with pytest.raises(InputError):
        GenParams(**kwargs)


def test_params_accept_ints_and_fractions():
    assert GenParams(relation_density=1).relation_density == Fraction(1)
    assert GenParams(relation_density=Fraction(3, 10)).to_dict()["relation_density"] == "3/10"


def test_failure_record_shape():
    # Force a bogus "failure" by auditing a handcrafted non-singleton case
    # through the internal instance checker.
    from orthofix.oracle import _audit_instance

    metric = [[Fraction(int(i != j)) for j in range(2)] for i in range(2)]
    space = FiniteSpace(["a", "b"], metric, [(0, 0), (0, 1), (1, 1)])
    identity = SelfMap([0, 1], 2)
    problems, _ = _audit_instance(space, identity)
    assert problems and "not a singleton" in problems[0]
