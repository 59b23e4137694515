import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orthofix import (
    CertificateError,
    ContractionKind,
    FiniteSpace,
    GenParams,
    InputError,
    SelfMap,
    brute_force_fixed_points,
    check_contraction,
    generate_space,
    hypothesis_check,
    is_ow_preserving,
    load_space_file,
    orbit,
    picard_solve,
    weak_orthogonal_elements,
)


@pytest.mark.parametrize("kwargs", [{"k": 0.7}, {"k": False}, {"k": "2/3"}, {"eps": 0.001}, {"eps": True}])
def test_picard_rejects_inexact_parameters(five_point, kwargs):
    # A float is its binary approximation: k=0.7 would certify k = 3152519739159347/4503599627370496.
    space, mapping = five_point
    with pytest.raises(InputError, match="int or a Fraction"):
        picard_solve(space, mapping, 0, **kwargs)


@pytest.mark.parametrize("max_iter", [2.5, True, "3", -1])
def test_picard_max_iter_is_an_index(five_point, max_iter):
    # max_iter counts applications: a float, a bool or a string is not a count.
    space, mapping = five_point
    with pytest.raises(InputError, match="max_iter must be an int >= 0"):
        picard_solve(space, mapping, 4, k=Fraction(1, 2), allow_any_start=True, max_iter=max_iter)


def test_picard_accepts_int_and_fraction_parameters(five_point):
    space, mapping = five_point
    trace = picard_solve(space, mapping, 0, k=Fraction(3, 4), eps=1)
    assert trace.k == Fraction(3, 4) and trace.certified
    assert picard_solve(space, mapping, 0, k=0, allow_inadmissible_k=True).k == 0


def test_picard_from_weak_element(five_point):
    space, mapping = five_point
    # k = 1/2 covers the stored orientation only; the certificate needs 2/3.
    trace = picard_solve(space, mapping, 0, k=Fraction(1, 2))
    assert trace.iterates == (0,)
    assert trace.converged and trace.fixed_point == 0
    assert not trace.certified
    assert trace.apriori_bounds is None
    assert trace.stop_reason == "fixed_point"
    certified = picard_solve(space, mapping, 0, k=Fraction(2, 3))
    assert certified.certified
    assert certified.apriori_bounds == (Fraction(0),)


def test_picard_requires_weak_start(five_point):
    space, mapping = five_point
    with pytest.raises(InputError, match="weak orthogonal element"):
        picard_solve(space, mapping, 4, k=Fraction(1, 2))


def test_picard_override_start(five_point):
    space, mapping = five_point
    trace = picard_solve(space, mapping, 4, k=Fraction(1, 2), allow_any_start=True)
    assert trace.iterates == (4, 2, 1, 0)
    assert trace.applications == 3
    assert trace.converged and trace.fixed_point == 0
    assert not trace.certified
    assert trace.apriori_bounds is None
    assert trace.step_distances == (Fraction(2), Fraction(1), Fraction(1))


def test_picard_default_k_is_certificate_grade(five_point):
    space, mapping = five_point
    trace = picard_solve(space, mapping, 0)
    assert trace.k == Fraction(2, 3)
    assert trace.certified


def test_picard_rejects_undersized_k(five_point):
    space, mapping = five_point
    with pytest.raises(InputError, match="minimal"):
        picard_solve(space, mapping, 0, k=Fraction(1, 4))
    trace = picard_solve(space, mapping, 0, k=Fraction(1, 4), allow_inadmissible_k=True)
    assert trace.converged
    assert not trace.certified and trace.apriori_bounds is None


def test_picard_k_domain(five_point):
    space, mapping = five_point
    for bad in (Fraction(1), Fraction(3, 2), Fraction(-1, 10)):
        with pytest.raises(InputError):
            picard_solve(space, mapping, 0, k=bad, allow_inadmissible_k=True)


def test_picard_max_iter_and_eps(five_point):
    space, mapping = five_point
    trace = picard_solve(space, mapping, 4, k=Fraction(1, 2), allow_any_start=True, max_iter=0)
    assert not trace.converged and trace.stop_reason == "max_iter"
    assert trace.iterates == (4,)
    with pytest.raises(InputError):
        picard_solve(space, mapping, 0, eps=Fraction(0))


_EPS = (None, Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6), Fraction(1, 10**9))


# The default max_iter (1000) keeps the bare ids "None", "eps1", ...; a cut adds "-max_iterN".
@pytest.mark.parametrize(
    "eps, max_iter",
    [
        pytest.param(
            eps, max_iter, id=("None" if eps is None else f"eps{i}") + ("" if max_iter == 1000 else f"-max_iter{max_iter}")
        )
        for max_iter in (1000, 0, 1, 3)
        for i, eps in enumerate(_EPS)
    ],
)
def test_certified_bounds_and_the_eps_stop_follow_the_closed_form(ratio_chain, eps, max_iter):
    # The 16-point ratio chain, related by <= and shifted one point right: k = 1/2 and the certified trace
    # runs up to 15 steps.  bound(n) = k^n / (1 - k) * d(x_0, x_1) is computed here from its definition, with
    # d(x_0, x_1) read from the space (a trace cut at max_iter=0 records no step); the trace keeps it as a
    # running product, and reports one bound per iterate whatever stops it.
    n = 16
    space = FiniteSpace([str(i) for i in range(n)], ratio_chain(n), [(i, j) for i in range(n) for j in range(i, n)])
    trace = picard_solve(space, SelfMap([min(i + 1, n - 1) for i in range(n)]), 0, eps=eps, max_iter=max_iter)
    k, d0 = trace.k, space.d(0, 1)
    assert trace.certified and k == Fraction(1, 2)
    bound = [k**i / (1 - k) * d0 for i in range(n)]
    assert trace.apriori_bounds == tuple(bound[: len(trace.iterates)])
    below = [i for i in range(1, n) if bound[i] <= eps] if eps is not None else []
    if below and below[0] <= max_iter:
        assert trace.stop_reason == "bound_below_eps" and len(trace.step_distances) == below[0]
    elif max_iter < n - 1:
        assert trace.stop_reason == "max_iter" and len(trace.step_distances) == max_iter
    else:
        assert trace.stop_reason == "fixed_point" and len(trace.step_distances) == n - 1


def test_uncertified_trace_stops_at_its_first_repeated_iterate(five_point):
    # 4 -> 2 -> 1 -> 0 -> 1: the orbit enters the two-cycle {0, 1}; the trace ends with the repeated 1.
    space, _ = five_point
    cycling = SelfMap([1, 0, 1, 0, 2], 5)
    trace = picard_solve(
        space, cycling, 4, k=Fraction(1, 2), allow_any_start=True, allow_inadmissible_k=True, max_iter=300000
    )
    assert trace.iterates == (4, 2, 1, 0, 1)
    assert trace.step_distances == (2, 1, 1, 1)
    assert trace.stop_reason == "cycle"
    assert not trace.converged and trace.fixed_point is None and not trace.certified
    cut = picard_solve(space, cycling, 4, k=Fraction(1, 2), allow_any_start=True, allow_inadmissible_k=True, max_iter=2)
    assert cut.iterates == (4, 2, 1) and cut.stop_reason == "max_iter"


def test_enforced_trace_on_a_cycle_still_fails_its_certificate():
    # Two points related both ways and the swap: enforced, so no cycle stop; the step inequality fails at once.
    space = FiniteSpace(["a", "b"], [[0, 1], [1, 0]], [(0, 0), (0, 1), (1, 0), (1, 1)])
    swap = SelfMap([1, 0], 2)
    with pytest.raises(CertificateError, match="step inequality violated at n=0"):
        picard_solve(space, swap, 0, k=Fraction(1, 2), allow_inadmissible_k=True, max_iter=300000)


def _non_preserving_instances(count):
    """Generated spaces with maps that fail preservation, drawn from a fixed seed."""
    params = GenParams(seed=77)
    rng = random.Random(params.seed)
    found = []
    while len(found) < count:
        space = generate_space(params, rng)
        mapping = SelfMap([rng.randrange(space.n) for _ in range(space.n)], space.n)
        if not hypothesis_check(space, mapping).preserving:
            found.append((space, mapping))
    return found


def _breaks_o1(space, mapping):
    """Whether some weak element's orbit settles at a fixed point z that is not related to itself.

    This is (O1), read on a finite space: the (O1) reading of the hypotheses added it to the default ones.
    """
    for w in sorted(space.weak_elements):
        info = orbit(space, mapping, w)
        if info.enters_fixed_point and not space.related(info.cycle[0], info.cycle[0]):
            return True
    return False


def test_o1_mode_never_changes_the_verdict(accepted_instances):
    # Adding (O1) to the hypotheses never changes the verdict, as preservation implies it on a finite space:
    # if z = T^m w for a weak w, then w ~ z, and T^m carries that to z ~ z.
    data = Path(__file__).resolve().parent.parent / "data"
    files = [load_space_file(data / name) for name in ("five_point.json", "infeasible.json", "preservation_violations.json")]
    broken = []
    for instance in [*accepted_instances, *files, *_non_preserving_instances(20)]:
        space, mapping = instance
        if _breaks_o1(space, mapping):
            assert not is_ow_preserving(space, mapping).preserving
            assert not hypothesis_check(space, mapping).all_hold
            broken.append(instance)
    assert broken  # the generated non-preserving maps do break (O1)


def test_o1_mode_detects_unrelated_limit():
    space = FiniteSpace(["0", "1"], [[0, 1], [1, 0]], [(0, 0), (0, 1)])
    mapping = SelfMap([1, 1], 2)  # weak element 0 settles at 1, but 1 is unrelated to itself
    assert _breaks_o1(space, mapping)
    rep = hypothesis_check(space, mapping)
    assert not rep.preserving and not rep.all_hold


def test_identity_map_converges_at_step_zero(five_point):
    space, _ = five_point
    identity = SelfMap(list(range(5)), 5)
    trace = picard_solve(space, identity, 0, k=Fraction(0), allow_inadmissible_k=True)
    assert trace.iterates == (0,)
    assert trace.converged and trace.fixed_point == 0 and trace.applications == 0


def _expanding_instance():
    # 0 -> 1 -> 2 with growing steps: d(0,1)=1, d(1,2)=2; no k < 1 works.
    metric = [
        [Fraction(0), Fraction(1), Fraction(3)],
        [Fraction(1), Fraction(0), Fraction(2)],
        [Fraction(3), Fraction(2), Fraction(0)],
    ]
    relation = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    space = FiniteSpace(["0", "1", "2"], metric, relation)
    return space, SelfMap([1, 2, 2], 3)


def test_certificate_violation_aborts():
    space, mapping = _expanding_instance()
    assert 0 in weak_orthogonal_elements(space)
    with pytest.raises(InputError):
        picard_solve(space, mapping, 0)  # no admissible constant exists
    with pytest.raises(CertificateError, match="step inequality"):
        picard_solve(space, mapping, 0, k=Fraction(1, 2), allow_inadmissible_k=True)


def test_eps_stop_on_certified_trace():
    # Halving walk: steps 8, 4, 2, 1 on a line; k = 1/2 is exact.
    values = [Fraction(v) for v in (0, 1, 3, 7, 15)]
    n = len(values)
    metric = [[abs(a - b) for b in values] for a in values]
    relation = [(i, j) for i in range(n) for j in range(n)]
    space = FiniteSpace([str(v) for v in values], metric, relation)
    mapping = SelfMap([0, 0, 1, 2, 3], n)
    trace = picard_solve(space, mapping, 4, k=Fraction(1, 2), eps=Fraction(4))
    assert trace.certified
    assert trace.stop_reason == "bound_below_eps"
    assert not trace.converged and trace.fixed_point is None
    full = picard_solve(space, mapping, 4, k=Fraction(1, 2))
    assert full.converged and full.fixed_point == 0
    assert full.step_distances == (Fraction(8), Fraction(4), Fraction(2), Fraction(1))
    assert full.apriori_bounds[0] == Fraction(16)


def test_hypothesis_check_five_point(five_point):
    space, mapping = five_point
    rep = hypothesis_check(space, mapping)
    assert rep.all_hold
    assert rep.has_weak_element and rep.preserving
    assert rep.minimal_k == Fraction(2, 3)


def test_hypothesis_check_with_pair_removed(five_point):
    space, mapping = five_point
    reduced = FiniteSpace(space.points, space.metric, sorted(space.relation - {(3, 4)}))
    rep = hypothesis_check(reduced, mapping)
    assert rep.all_hold
    assert rep.minimal_k == Fraction(1, 2)


def test_hypothesis_check_empty_relation():
    metric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    space = FiniteSpace(["0", "1"], metric, [])
    rep = hypothesis_check(space, SelfMap([0, 0], 2))
    assert not rep.has_weak_element and not rep.all_hold


def test_hypothesis_check_bad_mode(five_point):
    # There is one reading of the hypotheses: a mode argument is refused like any other extra argument.
    space, mapping = five_point
    with pytest.raises(TypeError):
        hypothesis_check(space, mapping, "O1")


def test_traces_reach_brute_force_fixed_point(accepted_instances):
    for space, mapping in accepted_instances:
        (z,) = brute_force_fixed_points(space, mapping)
        k = hypothesis_check(space, mapping).minimal_k
        for w in weak_orthogonal_elements(space):
            trace = picard_solve(space, mapping, w, k=k)
            assert trace.certified and trace.converged and trace.fixed_point == z
            steps = trace.step_distances
            for i in range(1, len(steps)):
                assert steps[i] <= k * steps[i - 1]
            d0 = steps[0] if steps else Fraction(0)
            for n in range(len(trace.iterates)):
                assert trace.apriori_bounds[n] == k**n / (1 - k) * d0


@st.composite
def _small_instances(draw):
    """A generated space of at most 6 points and a map on it, drawn image by image, biased to one attractor."""
    seed = draw(st.integers(0, 2**32))
    density = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
    space = generate_space(GenParams(seed=seed, max_points=6, relation_density=density), random.Random(seed))
    point = st.integers(0, space.n - 1)
    attractor = draw(point)
    images = draw(st.lists(st.one_of(st.just(attractor), point), min_size=space.n, max_size=space.n))
    return space, SelfMap(images)


@settings(max_examples=300)
@given(_small_instances())
def test_certificate_holds_at_the_symmetric_constant(instance):
    # Whenever every hypothesis holds, the scanned both-orientation constant is a valid certificate:
    # Picard iteration from each weak element at that k never raises CertificateError.
    space, mapping = instance
    if not hypothesis_check(space, mapping).all_hold:
        return
    k = check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True).minimal_k
    (z,) = brute_force_fixed_points(space, mapping)
    for w in sorted(space.weak_elements):
        trace = picard_solve(space, mapping, w, k=k)
        assert trace.certified and trace.converged and trace.fixed_point == z


def test_tail_bound_is_audited_past_the_step_inequality():
    # Not a metric (5 > 2 + 1), built through the library, which does not validate: every step shrinks by
    # k = 1/2, but d(x_0, x_2) = 5 exceeds the a-priori bound d(x_0, x_1) / (1 - k) = 4.
    every = [(i, j) for i in range(3) for j in range(3)]
    space = FiniteSpace(["0", "1", "2"], [[0, 2, 5], [2, 0, 1], [5, 1, 0]], every)
    with pytest.raises(CertificateError, match=r"^tail bound violated: d\(x_0, x_2\) = 5 > 4 with k = 1/2$"):
        picard_solve(space, SelfMap([1, 2, 2], 3), 0, k=Fraction(1, 2), allow_inadmissible_k=True)
