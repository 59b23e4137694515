"""The finite-space proof of the fixed point theorem, as executable lemmas.

The first test pins the smallest instance known where the two readings of
the generalized condition differ.  The oriented reading scans each related
pair as stored, and the symmetric reading scans both orientations, as the
certificate needs.  On the 4-point space below only the reversed pair
(2, 1) is stored, so its T^2 x term d(x_3, x_0) = 7 sets the symmetric
constant at 1, while the oriented one is 6/7.  The conclusion still holds:
3 is the one fixed point.  The rate d_{n+1} <= k d_n does not hold at
k = 6/7 along the orbit from 1, so that trace is not certified, and
forcing its certificate raises.

`test_lemmas_l1_to_l3_under_both_readings` checks the three lemmas that
give the conclusion on seeded random instances, once for each reading of
the constant: from each weak element w, consecutive orbit points are
related (L1), the orbit ends in a fixed point (L2), and that fixed point is
the only one (L3).  `test_lemma_l4_rate_under_both_readings` checks the
rate on the same instances (L4): under the symmetric reading every step
shrinks by k, and under the oriented reading every step whose pair is
stored; a step stored only reversed may not.
"""

import random
from fractions import Fraction

import pytest

from orthofix import CertificateError, ContractionKind, brute_force_fixed_points, check_contraction, picard_solve
from orthofix.space import FiniteSpace, SelfMap
from reference import one_witness, oracle_report

ORIENTED_GAP_METRIC = [[0, 7, 5, 7], [7, 0, 2, 7], [5, 2, 0, 6], [7, 7, 6, 0]]
ORIENTED_GAP_RELATION = [(0, 1), (1, 1), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 3)]
ORIENTED_GAP_MAP = [3, 2, 3, 3]


def test_oriented_gap_instance():
    space = FiniteSpace(["0", "1", "2", "3"], ORIENTED_GAP_METRIC, ORIENTED_GAP_RELATION)
    mapping = SelfMap(ORIENTED_GAP_MAP, 4)
    kind = ContractionKind.GENERALIZED_PERP

    oriented = check_contraction(kind, space, mapping, symmetric=False)
    symmetric = check_contraction(kind, space, mapping, symmetric=True)
    assert (oriented.minimal_k, oriented.witness) == (Fraction(6, 7), (0, 1))
    assert oriented.admissible
    assert (symmetric.minimal_k, symmetric.witness) == (Fraction(1), (1, 2))
    assert not symmetric.admissible
    for report, reading in ((oriented, False), (symmetric, True)):
        assert (report.minimal_k, report.witness) == one_witness(oracle_report(kind, space, mapping, reading))

    assert brute_force_fixed_points(space, mapping) == {3}

    trace = picard_solve(space, mapping, 1, k=Fraction(6, 7))
    assert not trace.certified and trace.apriori_bounds is None
    assert trace.iterates == (1, 2, 3) and trace.step_distances == (2, 6)
    assert trace.converged and trace.fixed_point == 3

    with pytest.raises(CertificateError, match="step inequality violated at n=0"):
        picard_solve(space, mapping, 1, k=Fraction(6, 7), allow_inadmissible_k=True)


def test_trace_encodes_by_the_one_rule():
    # `PicardTrace.to_dict()` is `records.to_dict`: indices as they are, and an int step distance stays an int
    space = FiniteSpace(["0", "1", "2", "3"], ORIENTED_GAP_METRIC, ORIENTED_GAP_RELATION)
    trace = picard_solve(space, SelfMap(ORIENTED_GAP_MAP, 4), 1, k=Fraction(6, 7))
    encoded = trace.to_dict()
    assert (encoded["iterates"], encoded["step_distances"], encoded["fixed_point"]) == ([1, 2, 3], [2, 6], 3)
    assert (encoded["k"], encoded["apriori_bounds"], encoded["applications"]) == ("6/7", None, 2)


def _random_instances(count, seed):
    """Seeded instances: n <= 5, the shortest-path metric of a complete graph with edge weights 1-6,
    a random relation plus one weak element (related to every point, in a random orientation), a random map."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = rng.randint(1, 6)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        relation = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.25}
        w = rng.randrange(n)
        relation |= {(w, y) if rng.random() < 0.5 else (y, w) for y in range(n)}
        yield n, d, relation, [rng.randrange(n) for _ in range(n)]


def _kept_instances():
    """The instances of `_random_instances(10000, 0)` that preserve on the symmetric closure, once per reading
    whose generalized constant (`tests/reference.py`) is below 1: (d, relation, closure, images, weak, symmetric, k)."""
    kind = ContractionKind.GENERALIZED_PERP
    for n, d, relation, images in _random_instances(10000, 0):
        closure = relation | {(y, x) for x, y in relation}
        if not all((images[x], images[y]) in closure for x, y in relation):
            continue  # not preserving on the symmetric closure
        space, mapping = FiniteSpace([str(i) for i in range(n)], d, sorted(relation)), SelfMap(images, n)
        weak = [w for w in range(n) if all((w, y) in closure for y in range(n))]
        for symmetric in (False, True):
            feasible, k, _, _ = oracle_report(kind, space, mapping, symmetric)
            if not (feasible and k < 1):
                break  # the symmetric constant is never below the oriented one
            yield d, relation, closure, images, weak, symmetric, k


def _orbit(images, w, length):
    """The first `length` points of w's orbit."""
    orbit = [w]
    while len(orbit) < length:
        orbit.append(images[orbit[-1]])
    return orbit


def test_lemmas_l1_to_l3_under_both_readings():
    kept = {False: 0, True: 0}
    for d, relation, closure, images, weak, symmetric, _ in _kept_instances():
        kept[symmetric] += 1
        for w in weak:
            orbit = _orbit(images, w, len(d) + 1)
            assert all(pair in closure for pair in zip(orbit, orbit[1:])), (d, relation, images, w)  # L1
            assert images[orbit[-1]] == orbit[-1], (d, relation, images, w)  # L2
        assert sum(images[x] == x for x in range(len(d))) == 1, (d, relation, images, symmetric)  # L3
    # seed 0: of 10,000 instances 3,189 preserve, 1,107 are kept under the oriented reading and 1,095 under
    # the symmetric one, so 12 are oriented-only
    assert kept[False] > kept[True] > 0, kept


def test_lemma_l4_rate_under_both_readings():
    # L4: d(x_i, x_{i+1}) <= k d(x_{i-1}, x_i) for i in 1..n along each weak element's orbit x_0 .. x_{n+1}.  It
    # holds at every step under the symmetric reading, and under the oriented one at every step whose pair
    # (x_{i-1}, x_i) is stored; at a pair stored only as (x_i, x_{i-1}) the T^2 x term reads d(x_{i+2}, x_{i-1}),
    # which can exceed both distances, so the rate may fail there.
    held, reversed_failures = {False: 0, True: 0}, 0
    for d, relation, _, images, weak, symmetric, k in _kept_instances():
        n = len(d)
        for w in weak:
            orbit = _orbit(images, w, n + 2)
            for i in range(1, n + 1):
                a, b, c = orbit[i - 1 : i + 2]
                if symmetric or (a, b) in relation:
                    assert d[b][c] <= k * d[a][b], (d, relation, images, w, i, symmetric)
                    held[symmetric] += 1
                else:
                    reversed_failures += not d[b][c] <= k * d[a][b]
    # seed 0: all 3,420 stored steps hold under the oriented reading and all 3,550 steps under the symmetric
    # one; 1 of the 183 steps stored only reversed fails under the oriented reading
    assert held[False] > 0 and held[True] > 0 and reversed_failures > 0, (held, reversed_failures)
