from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthofix import (
    InputError,
    FiniteSpace,
    GenParams,
    SelfMap,
    classify_orthogonality,
    generate_space,
    is_ow_preserving,
    is_ow_sequence,
    orbit,
    strong_orthogonal_elements,
    weak_orthogonal_elements,
)
from orthofix.corpus import leq_space, orbit_space_example
from orthofix.relational import _violations


def _unit_space(n, relation):
    metric = [[Fraction(int(i != j)) for j in range(n)] for i in range(n)]
    return FiniteSpace([str(i) for i in range(n)], metric, relation)


def test_five_point_elements(five_point):
    space, _ = five_point
    assert strong_orthogonal_elements(space) == frozenset()
    assert weak_orthogonal_elements(space) == frozenset({0})


def test_full_relation_everyone_strong():
    space = _unit_space(3, [(i, j) for i in range(3) for j in range(3)])
    assert strong_orthogonal_elements(space) == frozenset({0, 1, 2})
    assert classify_orthogonality(space).verdict == "O-set"


def test_hub_relation_single_strong():
    space = _unit_space(3, [(0, 0), (0, 1), (0, 2)])
    assert strong_orthogonal_elements(space) == frozenset({0})
    assert weak_orthogonal_elements(space) == frozenset({0})


def test_empty_relation_neither():
    space = _unit_space(2, [])
    assert weak_orthogonal_elements(space) == frozenset()
    assert classify_orthogonality(space).verdict == "neither"


def test_five_point_classification(five_point):
    space, _ = five_point
    assert classify_orthogonality(space).verdict == "O_w-set-only"


def test_leq_sample_every_point_weak():
    space = leq_space([Fraction(v) for v in (-2, -1, 0, 1, 2)])
    assert weak_orthogonal_elements(space) == frozenset(range(5))


def test_strong_subset_of_weak(accepted_instances, five_point):
    spaces = [space for space, _ in accepted_instances] + [five_point[0]]
    for space in spaces:
        assert strong_orthogonal_elements(space) <= weak_orthogonal_elements(space)


def test_classification_consistency(accepted_instances):
    for space, _ in accepted_instances:
        cls = classify_orthogonality(space)
        if cls.strong_elements:
            assert cls.verdict == "O-set"
        elif cls.weak_elements:
            assert cls.verdict == "O_w-set-only"
        else:
            assert cls.verdict == "neither"


def test_sequence_checks(five_point):
    space, _ = five_point
    assert is_ow_sequence(space, [3, 4, 0]) == (True, None)
    ok, pos = is_ow_sequence(space, [1, 2])
    assert not ok and pos == 0
    ok, pos = is_ow_sequence(space, [0, 3, 4, 1])
    assert not ok and pos == 2  # (4, 1) unrelated
    with pytest.raises(InputError):
        is_ow_sequence(space, [])
    with pytest.raises(InputError):
        is_ow_sequence(space, [0, 7])


def test_alternating_leq_window():
    values = [Fraction((-1) ** n, n) for n in range(1, 7)]
    space = leq_space(values)
    assert is_ow_sequence(space, list(range(6))).ok


def test_preserving_five_point(five_point):
    space, mapping = five_point
    assert is_ow_preserving(space, mapping).preserving


def test_identity_always_preserving(accepted_instances):
    for space, _ in accepted_instances:
        identity = SelfMap(list(range(space.n)), space.n)
        assert is_ow_preserving(space, identity).preserving


def test_preserving_violations_listed_exhaustively(five_point):
    space, _ = five_point
    altered = SelfMap([2, 0, 1, 0, 4], 5)  # move 0 -> 2 and 4 -> 4
    report = is_ow_preserving(space, altered)
    assert not report.preserving
    assert report.violations == ((0, 0), (0, 2), (4, 0))


def test_preserving_reports_first_sorted_orientation():
    # (1, 2) and (2, 1) are both stored: the pair is checked once, as (1, 2).
    # (3, 1) is stored only reversed and keeps that orientation.
    metric = [[Fraction(abs(i - j)) for j in range(4)] for i in range(4)]
    space = FiniteSpace(["0", "1", "2", "3"], metric, [(2, 1), (1, 2), (3, 1), (3, 3)])
    report = is_ow_preserving(space, SelfMap([0, 3, 0, 2], 4))
    assert report.violations == ((1, 2), (3, 1), (3, 3))
    with pytest.raises(InputError, match="map size"):
        is_ow_preserving(space, SelfMap([0, 0, 0], 3))


@st.composite
def _spaces_with_images(draw):
    """A space of at most 10 points, hand-made or generated, and an arbitrary image list on it."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 10))
        index = st.integers(0, n - 1)
        space = _unit_space(n, draw(st.lists(st.tuples(index, index), max_size=n * n)))
    else:
        seed, density = draw(st.integers(0, 2**32)), draw(st.sampled_from([0, Fraction(1, 4), 1]))
        space = generate_space(GenParams(seed=seed, max_points=10, relation_density=density))
    return space, draw(st.lists(st.integers(0, space.n - 1), min_size=space.n, max_size=space.n))


@given(_spaces_with_images())
def test_first_violation_is_the_reports_first(case):
    # The audit's sampler rejects a candidate on the first item of `_violations`; the report lists them all.
    space, images = case
    report = is_ow_preserving(space, SelfMap(images, space.n))
    first = next(_violations(space, images), None)
    assert (first is None) == report.preserving
    if first is not None:
        assert first == report.violations[0]


def test_orbits_five_point(five_point):
    space, mapping = five_point
    expected = {
        0: ((), (0,)),
        1: ((1,), (0,)),
        2: ((2, 1), (0,)),
        3: ((3,), (0,)),
        4: ((4, 2, 1), (0,)),
    }
    for start, (prefix, cycle) in expected.items():
        info = orbit(space, mapping, start)
        assert (info.prefix, info.cycle) == (prefix, cycle)
        assert info.enters_fixed_point


def test_orbit_two_cycle():
    space, mapping = orbit_space_example()
    info = orbit(space, mapping, space.index_of("1/2"))
    assert [space.points[i] for i in info.prefix] == ["1/2"]
    assert [space.points[i] for i in info.cycle] == ["2", "1/3"]
    assert not info.enters_fixed_point


def test_orbit_reproduces_iteration(accepted_instances):
    # the prefix, then the cycle repeated, is the iterate sequence
    for space, mapping in accepted_instances:
        for start in range(space.n):
            info = orbit(space, mapping, start)
            terms = (info.prefix + info.cycle * (3 * space.n))[: 3 * space.n]
            x = start
            for term in terms:
                assert term == x
                x = mapping(x)
            assert orbit(space, mapping, start) == info  # deterministic


def test_orbit_windows_from_weak_elements_are_ow_sequences(accepted_instances):
    # Weak start + preservation propagates relatedness along the orbit.
    for space, mapping in accepted_instances:
        for w in weak_orthogonal_elements(space):
            info = orbit(space, mapping, w)
            window = (info.prefix + info.cycle * (2 * space.n + 2))[: 2 * space.n + 2]
            assert is_ow_sequence(space, window).ok
