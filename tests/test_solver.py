from fractions import Fraction

import pytest

from orthofix import (
    CertificateError,
    FiniteSpace,
    InputError,
    SelfMap,
    brute_force_fixed_points,
    certify_fixed_point,
    hypothesis_check,
    picard_solve,
    required_iterations,
    weak_orthogonal_elements,
)
from orthofix.solver import MODE_O1


def naive_required(k, d1, eps, cap=10_000):
    """Oracle: linear scan of the exact bound."""
    n = 0
    while k**n / (1 - k) * d1 > eps:
        n += 1
        assert n <= cap
    return n


@pytest.mark.parametrize(
    "args",
    [(0.5, 1, Fraction(1, 512)), (Fraction(1, 2), 1.0, 1), (Fraction(1, 2), 1, 0.001), (Fraction(1, 2), True, 1)],
)
def test_required_iterations_rejects_floats_and_bools(args):
    with pytest.raises(InputError, match="int or a Fraction"):
        required_iterations(*args)


@pytest.mark.parametrize("kwargs", [{"k": 0.7}, {"k": False}, {"k": "2/3"}, {"eps": 0.001}, {"eps": True}])
def test_picard_rejects_inexact_parameters(five_point, kwargs):
    # A float is its binary approximation: k=0.7 would certify k = 3152519739159347/4503599627370496.
    space, mapping = five_point
    with pytest.raises(InputError, match="int or a Fraction"):
        picard_solve(space, mapping, 0, **kwargs)


def test_picard_accepts_int_and_fraction_parameters(five_point):
    space, mapping = five_point
    trace = picard_solve(space, mapping, 0, k=Fraction(3, 4), eps=1)
    assert trace.k == Fraction(3, 4) and trace.certified
    assert picard_solve(space, mapping, 0, k=0, allow_inadmissible_k=True).k == 0


def test_required_iterations_frozen_values():
    assert required_iterations(Fraction(1, 2), Fraction(1), Fraction(1, 512)) == 10
    assert required_iterations(Fraction(1, 2), Fraction(0), Fraction(1, 10)) == 0
    assert required_iterations(Fraction(0), Fraction(5), Fraction(1)) == 1


def test_required_iterations_matches_linear_scan():
    for k in (Fraction(1, 3), Fraction(2, 3), Fraction(9, 10), Fraction(1, 7)):
        for d1 in (Fraction(1), Fraction(13, 4), Fraction(100)):
            for eps in (Fraction(1), Fraction(1, 1000), Fraction(3, 7)):
                n = required_iterations(k, d1, eps)
                assert n == naive_required(k, d1, eps)
                assert k**n / (1 - k) * d1 <= eps
                if n:
                    assert k ** (n - 1) / (1 - k) * d1 > eps


def test_required_iterations_domain_errors():
    with pytest.raises(InputError):
        required_iterations(Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(InputError):
        required_iterations(Fraction(3, 2), Fraction(1), Fraction(1))
    with pytest.raises(InputError):
        required_iterations(Fraction(1, 2), Fraction(1), Fraction(0))
    with pytest.raises(InputError):
        required_iterations(Fraction(-1, 2), Fraction(1), Fraction(1))


def test_certify_fixed_point(five_point):
    space, mapping = five_point
    assert certify_fixed_point(space, mapping, 0)
    assert not certify_fixed_point(space, mapping, 2)
    identity = SelfMap(list(range(5)), 5)
    assert all(certify_fixed_point(space, identity, z) for z in range(5))


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
    assert rep.has_weak_element and rep.preserving and rep.contraction_feasible
    assert rep.minimal_k == Fraction(2, 3)
    assert rep.o1_mode_holds
    rep1 = hypothesis_check(space, mapping, MODE_O1)
    assert rep1.all_hold and rep1.mode == MODE_O1


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


def test_o1_mode_detects_unrelated_limit():
    metric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    space = FiniteSpace(["0", "1"], metric, [(0, 0), (0, 1)])
    mapping = SelfMap([1, 1], 2)  # weak element 0 settles at 1, but 1 is unrelated to itself
    rep = hypothesis_check(space, mapping, MODE_O1)
    assert not rep.o1_mode_holds and not rep.all_hold


def test_hypothesis_check_bad_mode(five_point):
    space, mapping = five_point
    with pytest.raises(InputError):
        hypothesis_check(space, mapping, "banach")


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
