import copy
import pickle
import random
import sys
from enum import IntEnum
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from orthofix import (
    ContractionKind,
    FiniteSpace,
    InputError,
    PointRelation,
    QuadExt,
    SelfMap,
    check_contraction,
    classify_orthogonality,
    hypothesis_check,
    is_ow_preserving,
    is_ow_sequence,
    m_value,
    orbit,
    picard_solve,
    space_to_dict,
    strong_orthogonal_elements,
    validate_metric,
    weak_orthogonal_elements,
)
from orthofix.oracle import _shortest_path_metric
from orthofix.space import _triangle_screen


def _space(matrix, relation=()):
    n = len(matrix)
    return FiniteSpace([str(i) for i in range(n)], [[Fraction(v) for v in row] for row in matrix], relation)


# every public view of a PointRelation; `relation` and `sorted_closure` are built on first read
_RELATION_VIEWS = ("points", "relation", "relation_rows", "closure_rows", "sorted_relation", "sorted_closure", "weak_elements")


def _views(value, names=_RELATION_VIEWS) -> list:
    return [getattr(value, name) for name in names]


def naive_is_metric(matrix) -> bool:
    """Independent oracle: definition checked directly over all index triples."""
    n = len(matrix)
    if any(matrix[i][i] != 0 for i in range(n)):
        return False
    for i in range(n):
        for j in range(n):
            if i != j and (matrix[i][j] <= 0 or matrix[i][j] != matrix[j][i]):
                return False
    return all(
        matrix[i][j] <= matrix[i][k] + matrix[k][j]
        for i, j, k in permutations(range(n), 3)
    )


def test_five_point_distance_matrix_is_accepted(five_point):
    space, _ = five_point
    assert validate_metric(space).ok


def test_zero_matrix_positivity_witness():
    report = validate_metric(_space([[0, 0], [0, 0]]))
    assert not report.ok
    assert ("positivity", (0, 1)) in [(v.axiom, v.witness) for v in report.violations]


def test_triangle_violation_witness():
    report = validate_metric(_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]]))
    assert not report.ok
    hits = [(v.axiom, v.witness) for v in report.violations]
    assert ("triangle", (0, 2, 1)) in hits
    assert all(axiom == "triangle" for axiom, _ in hits)


def test_symmetry_violation_witness():
    report = validate_metric(_space([[0, 1], [2, 0]]))
    assert ("symmetry", (0, 1)) in [(v.axiom, v.witness) for v in report.violations]


def test_diagonal_violation_witness():
    report = validate_metric(_space([[1, 1], [1, 0]]))
    assert ("diagonal", (0,)) in [(v.axiom, v.witness) for v in report.violations]


def test_violation_values_past_the_digit_limit_are_named_not_raised():
    # The library accepts any Fraction; `str()` of 1/10^5000 would raise ValueError, so the witness names the limit.
    tiny = Fraction(1, 10**5000)
    report = validate_metric(FiniteSpace(["a", "b", "c"], [[0, tiny, 5], [tiny, 0, 1], [5, 1, 0]], []))
    assert not report.ok
    assert [(v.axiom, v.witness) for v in report.violations] == [("triangle", (0, 2, 1)), ("triangle", (2, 0, 1))]
    shown = report.violations[0].values
    assert shown[0] == "5" and shown[2] == "1"
    assert shown[1] == f"<a rational past the interpreter's limit of {sys.get_int_max_str_digits()} digits>"


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_validator_agrees_with_naive_oracle(matrix):
    sym = [[Fraction(matrix[i][j]) for j in range(len(matrix))] for i in range(len(matrix))]
    space = FiniteSpace([str(i) for i in range(len(matrix))], sym, [])
    assert validate_metric(space).ok == naive_is_metric(sym)


def test_related_uses_symmetric_closure(five_point):
    space, _ = five_point
    assert space.related(4, 3)       # (3, 4) is stored
    assert space.related(3, 4)
    assert not space.related(1, 2)   # neither orientation stored
    assert space.related(0, 0)       # reflexive pair stored


def test_related_is_symmetric_everywhere(five_point):
    space, _ = five_point
    for i in range(space.n):
        for j in range(space.n):
            assert space.related(i, j) == space.related(j, i)


def test_related_out_of_range(five_point):
    space, _ = five_point
    with pytest.raises(InputError):
        space.related(0, 9)


def _dense_relation(n, seed):
    """Each ordered pair with probability 19/20: most closure rows are full, some are not."""
    rng = random.Random(seed)
    return [(i, j) for i in range(n) for j in range(n) if rng.randrange(20)]


@st.composite
def _relations(draw):
    """A point count n and a list of index pairs: empty, full twice over, random with repeats, or dense.

    n is at most 8, or between 65 and 80 so that every bit row spans more
    than one machine word.
    """
    n = draw(st.one_of(st.integers(1, 8), st.integers(65, 80)))
    full = [(i, j) for i in range(n) for j in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(
        st.one_of(
            st.just([]),
            st.just(full + full),
            st.lists(pair, max_size=min(2 * n * n, 200)),
            st.integers(0, 2**32).map(lambda seed: _dense_relation(n, seed)),
        )
    )


@given(_relations(), st.integers(0, 2**32))
def test_relation_views_match_their_definitions(case, seed):
    n, pairs = case
    space = _space([[abs(i - j) for j in range(n)] for i in range(n)], pairs)
    # a space's relation facts are those of the point set and relation alone
    alone = PointRelation(space.points, pairs)
    assert _views(alone) == _views(space)
    stored = set(pairs)
    closure = stored | {(j, i) for (i, j) in pairs}
    assert space.relation == stored
    assert space.sorted_relation == tuple(sorted(stored))
    assert space.sorted_closure == tuple(sorted(closure))
    assert {(i, j) for i in range(n) for j in range(n) if space.related(i, j)} == closure
    weak = {x for x in range(n) if all(space.related(x, y) for y in range(n))}
    assert space.weak_elements == weak_orthogonal_elements(space) == weak
    strong = {
        x for x in range(n)
        if all((x, y) in stored for y in range(n)) or all((y, x) in stored for y in range(n))
    }
    assert strong_orthogonal_elements(space) == strong
    rng = random.Random(seed)
    t = [rng.randrange(n) for _ in range(n)]
    seen, violations = set(), []
    for i, j in sorted(stored):
        if frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            if (t[i], t[j]) not in closure:
                violations.append((i, j))
    assert is_ow_preserving(space, SelfMap(t, n)).violations == tuple(violations)


@given(_relations(), st.integers(0, 2**32))
def test_relation_in_any_form_builds_the_same_views(case, seed):
    # The relation is taken as any iterable of pairs, lists or tuples, in any order and with repeats.
    n, pairs = case
    points = [str(i) for i in range(n)]
    rng = random.Random(seed)
    shuffled = pairs + rng.sample(pairs, len(pairs) // 3)
    rng.shuffle(shuffled)
    increasing = sorted(set(pairs))
    forms = {
        "sorted tuples": increasing,
        "sorted lists": [list(p) for p in increasing],
        "sorted, lists and tuples": [list(p) if k % 2 else p for k, p in enumerate(increasing)],
        "sorted with duplicates": sorted(shuffled),
        "shuffled with duplicates": shuffled,
        "a set": set(pairs),
        "a generator": (p for p in shuffled),
    }
    reference = PointRelation(points, increasing)
    assert reference.sorted_relation == tuple(increasing)
    for form, relation in forms.items():
        built = PointRelation(points, relation)
        assert _views(built) == _views(reference), form
        assert all(type(p) is tuple for p in built.sorted_relation), form


@pytest.mark.parametrize("name", ["int_metric", "weak_elements", "closure_rows", "images"])
def test_space_refuses_assignment(five_point, name):
    # Every derived view is built from the others at construction; reassigning one would desynchronise them.
    # A map's images are checked at construction, and the facts kept on the map were computed from them.
    space, mapping = five_point
    target = mapping if name == "images" else space
    before = getattr(target, name)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(target, name, None)
    assert getattr(target, name) is before
    assert space.weak_elements == {0}


def test_construction_rejects_bad_inputs():
    with pytest.raises(InputError, match="unique"):
        FiniteSpace(["a", "a"], [[Fraction(0)] * 2] * 2, [])
    with pytest.raises(InputError, match="matrix"):
        FiniteSpace(["a", "b"], [[Fraction(0)]], [])
    with pytest.raises(InputError, match="out of range"):
        FiniteSpace(["a", "b"], [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], [(0, 2)])


def test_selfmap_totality():
    assert SelfMap([1, 0], 2).images == (1, 0)
    with pytest.raises(InputError, match="out of range"):
        SelfMap([0, 5], 2)
    with pytest.raises(InputError, match="exactly"):
        SelfMap([0], 2)
    for n in (2.0, True):
        with pytest.raises(InputError, match="not an index"):
            SelfMap([0, 0], n)


class _Point(IntEnum):
    ZERO = 0
    ONE = 1


def test_float_relation_index_rejected():
    # int() would truncate (0.9, 1.2) to (0, 1); an IntEnum member is not a plain index either.
    metric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    # An entry must be a tuple or list of two: a bare int is no pair, and a dict would be read as its keys.
    for pair in [(0.9, 1.2), (_Point.ZERO, 1), 5, {0: 1, 1: 0}]:
        with pytest.raises(InputError, match="index pair"):
            FiniteSpace(["a", "b"], metric, [pair])
    assert FiniteSpace(["a", "b"], metric, [(0, 1)]).relation == frozenset({(0, 1)})


@pytest.mark.parametrize("image", [1.0, 0.5, True, "1", pytest.param(_Point.ONE, id="IntEnum")])
def test_non_int_map_image_rejected(image):
    with pytest.raises(InputError, match="not an index"):
        SelfMap([0, image], 2)


_POINT_ENTRY_POINTS = {
    "related": lambda space, mapping, v: space.related(v, 0),
    "orbit": lambda space, mapping, v: orbit(space, mapping, v),
    "is_ow_sequence": lambda space, mapping, v: is_ow_sequence(space, [v, 2]),
    "picard_solve": lambda space, mapping, v: picard_solve(space, mapping, v),
    "m_value": lambda space, mapping, v: m_value(ContractionKind.GENERALIZED_PERP, space, mapping, v, 0),
}


@pytest.mark.parametrize("value", [True, 0.0, 1.0, "0", pytest.param(_Point.ZERO, id="IntEnum")])
@pytest.mark.parametrize("entry", sorted(_POINT_ENTRY_POINTS))
def test_point_index_must_be_an_int(five_point, entry, value):
    # A bool, a float or an IntEnum member must not stand in for a point (0.0 hashes like 0), and a
    # string must fail as input.
    space, mapping = five_point
    with pytest.raises(InputError, match="not an index"):
        _POINT_ENTRY_POINTS[entry](space, mapping, value)


_MAP_ENTRY_POINTS = {
    "orbit": lambda space, mapping: orbit(space, mapping, 4),
    "m_value": lambda space, mapping: m_value(ContractionKind.GENERALIZED_PERP, space, mapping, 3, 4),
}


@pytest.mark.parametrize("images", [[0, 0, 0], [1, 2, 3, 4, 5, 6, 0]], ids=["short", "long"])
@pytest.mark.parametrize("entry", sorted(_MAP_ENTRY_POINTS))
def test_map_size_must_match_the_space(five_point, entry, images):
    # A short map would raise IndexError; a long one would walk through points the space lacks.
    space, _ = five_point
    with pytest.raises(InputError, match="map size"):
        _MAP_ENTRY_POINTS[entry](space, SelfMap(images))


def test_index_of(five_point):
    space, _ = five_point
    assert space.index_of("3") == 3
    with pytest.raises(InputError, match="unknown point"):
        space.index_of("9")


def _perturbed_rational_metric():
    third, half = Fraction(1, 3), Fraction(1, 2)
    metric = [
        [Fraction(0), third, half, third + half],
        [third, Fraction(0), third, half],
        [half, third, Fraction(0), third],
        [third + half, half, third, Fraction(0)],
    ]
    metric[0][3] = Fraction(7, 3)   # breaks symmetry and several triangles
    metric[2][1] = Fraction(-1, 6)  # breaks symmetry and positivity
    return metric


def test_integer_form_scales_by_lcm_of_denominators():
    space = FiniteSpace(["a", "b", "c", "d"], _perturbed_rational_metric(), [])
    assert space.int_metric[0] == (0, 2, 3, 14)
    assert space.int_metric[2][1] == -1


def _as_ints(metric):
    """The integer twin of a rational matrix: every entry times the lcm of the denominators, as an int."""
    scale = lcm(*(v.denominator for row in metric for v in row))
    return [[int(v * scale) for v in row] for row in metric]


def test_int_metric_and_its_fraction_twin_agree(accepted_instances, five_point):
    # Plain ints are exact entries: they get the same integer form, and so the same validation,
    # the same reports and the same rendering, as the Fractions they equal.
    perturbed = FiniteSpace(["a", "b", "c", "d"], [[v * 6 for v in row] for row in _perturbed_rational_metric()], [])
    for space, mapping in [five_point, *accepted_instances, (perturbed, SelfMap([1, 0, 3, 2]))]:
        twin = FiniteSpace(space.points, _as_ints(space.metric), space.sorted_relation)
        assert twin.int_metric is not None and twin.int_metric == space.int_metric
        assert validate_metric(twin) == validate_metric(space)
        assert space_to_dict(twin, mapping) == space_to_dict(space, mapping)
        for kind in ContractionKind:
            for symmetric in (False, True):
                expected = check_contraction(kind, space, mapping, symmetric=symmetric)
                assert check_contraction(kind, twin, mapping, symmetric=symmetric) == expected, (kind, symmetric)
    assert not validate_metric(perturbed).ok


def test_validation_identical_on_fraction_and_quadext_entries():
    # A space's metric is rational, so its QuadExt twin is refused (see test_inexact_metric_entry_rejected);
    # the Fraction side still reports every axiom it breaks, rendered exactly.
    on_fractions = validate_metric(FiniteSpace(["a", "b", "c", "d"], _perturbed_rational_metric(), []))
    assert not on_fractions.ok
    assert {"symmetry", "positivity", "triangle"} <= {v.axiom for v in on_fractions.violations}
    assert ("7/3", "1/3", "1/2") in [v.values for v in on_fractions.violations]


@pytest.mark.parametrize("entry", [0.5, True, QuadExt(0, 1, 2)])
def test_inexact_metric_entry_rejected(entry):
    # A float would flow into exact decisions and report inexact constants;
    # a bool is not a distance; a QuadExt has no integer form to scan.
    with pytest.raises(InputError, match=r"metric entry .* at \(0, 1\) is not an exact rational"):
        FiniteSpace(["a", "b"], [[0, entry], [Fraction(1, 2), 0]], [(0, 1)])


def reference_violations(matrix):
    """Every axiom checked directly, in the documented order, no screening."""
    n = len(matrix)
    out = [("diagonal", (i,)) for i in range(n) if matrix[i][i] != 0]
    for i in range(n):
        for j in range(n):
            if i < j and matrix[i][j] != matrix[j][i]:
                out.append(("symmetry", (i, j)))
            if i != j and matrix[i][j] <= 0:
                out.append(("positivity", (i, j)))
    out += [
        ("triangle", (i, j, k))
        for i, j, k in permutations(range(n), 3)
        if matrix[i][j] > matrix[i][k] + matrix[k][j]
    ]
    return out


def _reported(matrix):
    report = validate_metric(FiniteSpace([str(i) for i in range(len(matrix))], matrix, []))
    assert report.ok == (not report.violations)
    return [(v.axiom, v.witness) for v in report.violations]


class _CountingRows(tuple):
    """An integer form that counts how often validate_metric indexes it by row."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _row_reads(matrix):
    """How many row reads of the integer form validate_metric makes on `matrix`.

    See `_axiom_reads` for the axioms; the exact triangle loop reads 3(n - 2)
    more for each pair the screen flags.
    """
    space = FiniteSpace([str(i) for i in range(len(matrix))], matrix, [])
    rows = _CountingRows(space.int_metric)
    object.__setattr__(space, "int_metric", rows)  # bypass immutability to count reads
    validate_metric(space)
    return rows.reads


def _axiom_reads(matrix):
    """The row reads of the axiom checks: n for the diagonal, and 2n^2 - 2n more for the pair loops,
    which run only when the bulk screen fails, that is when some axiom other than the triangle breaks."""
    n = len(matrix)
    broken = any(axiom != "triangle" for axiom, _ in reference_violations(matrix))
    return n + (2 * n * n - 2 * n if broken else 0)


def _screened(matrix):
    return _triangle_screen(FiniteSpace([str(i) for i in range(len(matrix))], matrix, []).int_metric)


def _violated_pairs(matrix):
    return sorted({witness[:2] for axiom, witness in reference_violations(matrix) if axiom == "triangle"})


_entries = st.fractions(min_value=-2, max_value=8, max_denominator=3)


@st.composite
def _matrices(draw):
    """Small matrices: symmetric or not, any diagonal, non-positive entries allowed."""
    n = draw(st.integers(1, 6))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = Fraction(0)
    return rows


@st.composite
def _extreme_matrices(draw):
    """Entries at +-(2^b - 1) and next to 0, so d(i, k) + d(k, j) - d(i, j) nears 3 * 2^b."""
    top = 2 ** draw(st.integers(1, 70)) - 1
    n = draw(st.integers(1, 6))
    values = st.sampled_from((-top, 1 - top, -1, 0, 1, top - 1, top))
    return [[Fraction(draw(values)) for _ in range(n)] for _ in range(n)]


@given(st.one_of(_matrices(), _extreme_matrices()), st.sampled_from(["fraction", "int"]))
def test_validation_matches_reference_loop(matrix, domain):
    if domain == "int":
        matrix = [[int(v * 6) for v in row] for row in matrix]
    assert _reported(matrix) == reference_violations(matrix)


@given(st.one_of(_matrices(), _extreme_matrices()))
def test_screen_over_flags_only_at_negative_diagonals(matrix):
    # The terms k = i and k = j fail only on a negative diagonal entry; the exact loop discards them.
    flagged = _screened(matrix)
    violated = _violated_pairs(matrix)
    assert flagged == sorted(flagged) and set(violated) <= set(flagged)
    assert all(matrix[i][i] < 0 or matrix[j][j] < 0 for i, j in set(flagged) - set(violated))


@given(st.integers(1, 24), st.integers(0, 2**32), st.booleans(), st.booleans(), st.booleans())
def test_validation_matches_reference_on_wide_entries(n, seed, symmetric, negative, zero_diagonal):
    # Entries between 2**64 and 2**130 in size, so every lane is wider than a machine word; small
    # base values plus a jitter of at most 1 make exact ties and near ties common.
    rng = random.Random(seed)
    scale, den = rng.randrange(2**64, 2**130), rng.randrange(1, 8)
    lo = -2 if negative else 1
    matrix = [[Fraction(rng.randint(lo, 8) * scale + rng.choice((-1, 0, 0, 1)), den) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if zero_diagonal:
            matrix[i][i] = Fraction(0)
        if symmetric:
            for j in range(i):
                matrix[i][j] = matrix[j][i]
    assert _reported(matrix) == reference_violations(matrix)


def _directed_closure(n, rng, lo=1, hi=10):
    """Shortest-path closure of a complete digraph with independent weights per direction.

    It satisfies the directed triangle inequality d(i, j) <= d(i, k) + d(k, j)
    but, in general, not symmetry.
    """
    w = [[0 if i == j else rng.randint(lo, hi) for j in range(n)] for i in range(n)]
    for k in range(n):
        row_k = w[k]
        for i in range(n):
            via_k = w[i][k]
            w[i] = [a if a <= via_k + b else via_k + b for a, b in zip(w[i], row_k)]
    return [[Fraction(v) for v in row] for row in w]


def _closure(n, rng, directed, wide):
    """A shortest-path closure, directed or not, optionally times a rational of 64 to 130 bits."""
    metric = _directed_closure(n, rng) if directed else _shortest_path_metric(n, rng, 1, 10)
    if wide:
        factor = Fraction(rng.randrange(2**64, 2**130), rng.randrange(1, 8))
        metric = [[v * factor for v in row] for row in metric]
    return metric


@given(st.integers(1, 12), st.integers(0, 2**32))
def test_shortest_path_closures_are_metrics(n, seed):
    metric = _shortest_path_metric(n, random.Random(seed), 1, 10)
    assert validate_metric(FiniteSpace([str(i) for i in range(n)], metric, [])).ok


@settings(max_examples=20)
@given(st.integers(1, 64), st.integers(0, 2**32), st.booleans(), st.booleans(), st.booleans())
def test_screen_flags_no_pair_on_closures(n, seed, directed, wide, ints):
    # Both closures satisfy the directed triangle inequality, so the screen must flag nothing and the
    # exact loop must not run; a screen that gave up and flagged every pair would fail on the count.
    # The same holds for the closure given as plain ints, which must get an integer form of its own.
    metric = _closure(n, random.Random(seed), directed, wide)
    if ints:
        metric = _as_ints(metric)
        assert FiniteSpace([str(i) for i in range(n)], metric, []).int_metric is not None
    assert _screened(metric) == []
    assert _row_reads(metric) == _axiom_reads(metric)


@given(st.integers(3, 24), st.integers(0, 2**32), st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_perturbed_closure_reports_planted_witness(n, seed, upward, both_orientations, directed, wide):
    rng = random.Random(seed)
    metric = _closure(n, rng, directed, wide)
    i, j, k = rng.sample(range(n), 3)
    if upward:
        # d(i, j) pushed past the detour through k: (i, j, k) breaks.
        value = metric[i][k] + metric[k][j] + Fraction(1, 2)
        planted = (i, j, k)
    else:
        # d(i, j) pulled below d(i, k) - d(j, k): the detour i -> j -> k undercuts d(i, k).
        value = metric[i][k] - metric[j][k] - Fraction(1, 2)
        planted = (i, k, j)
    metric[i][j] = value
    if both_orientations:
        metric[j][i] = value
    reported = _reported(metric)
    assert ("triangle", planted) in reported
    assert reported == reference_violations(metric)
    # With a zero diagonal the screen flags exactly the violated pairs, and the exact loop runs on those alone.
    violated = _violated_pairs(metric)
    assert _screened(metric) == violated
    assert _row_reads(metric) == _axiom_reads(metric) + 3 * (n - 2) * len(violated)


@pytest.mark.parametrize(
    "clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_spaces_maps_and_numbers_round_trip(five_point, clone):
    # A worker pool pickles its arguments; slots are rebuilt from the constructor, not set one by one.
    space, mapping = five_point
    views = _RELATION_VIEWS + ("metric", "int_metric")
    expected = [check_contraction(kind, space, mapping, symmetric=s) for kind in ContractionKind for s in (False, True)]
    hypothesis_check(space, mapping)  # fills the memo kept on the map
    space2, mapping2 = clone(space), clone(mapping)
    assert type(space2) is FiniteSpace
    assert _views(space2, views) == _views(space, views)
    assert mapping2.images == mapping.images and mapping2._facts is None  # the memo is not carried over
    reports = [check_contraction(kind, space2, mapping2, symmetric=s) for kind in ContractionKind for s in (False, True)]
    assert reports == expected
    assert hypothesis_check(space2, mapping2) == hypothesis_check(space, mapping)
    # The relation facts alone round-trip as a PointRelation, not as a space.
    relation = PointRelation(space.points, space.sorted_relation)
    relation2 = clone(relation)
    assert type(relation2) is PointRelation
    assert _views(relation2) == _views(space)
    assert classify_orthogonality(relation2) == classify_orthogonality(space)
    value = QuadExt(Fraction(1, 3), -2, 11)
    copied = clone(value)
    assert copied == value and (copied.a, copied.b, copied.d) == (value.a, value.b, value.d)
