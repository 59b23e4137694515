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
"""

from fractions import Fraction

import pytest

from orthofix import CertificateError, ContractionKind, brute_force_fixed_points, check_contraction, picard_solve
from orthofix.space import FiniteSpace, SelfMap
from reference import oracle_report

ORIENTED_GAP_METRIC = [[0, 7, 5, 7], [7, 0, 2, 7], [5, 2, 0, 6], [7, 7, 6, 0]]
ORIENTED_GAP_RELATION = [(0, 1), (1, 1), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 3)]
ORIENTED_GAP_MAP = [3, 2, 3, 3]


def test_oriented_gap_instance():
    space = FiniteSpace(["0", "1", "2", "3"], ORIENTED_GAP_METRIC, ORIENTED_GAP_RELATION)
    mapping = SelfMap(ORIENTED_GAP_MAP, 4)
    kind = ContractionKind.GENERALIZED_PERP

    oriented = check_contraction(kind, space, mapping, symmetric=False)
    symmetric = check_contraction(kind, space, mapping, symmetric=True)
    assert (oriented.feasible, oriented.minimal_k, oriented.witness_max) == (True, Fraction(6, 7), (0, 1))
    assert oriented.admissible
    assert (symmetric.feasible, symmetric.minimal_k, symmetric.witness_max) == (True, Fraction(1), (1, 2))
    assert not symmetric.admissible
    for report, reading in ((oriented, False), (symmetric, True)):
        got = (report.feasible, report.minimal_k, report.witness_max, report.infeasible_witness)
        assert got == oracle_report(kind, space, mapping, reading)

    assert brute_force_fixed_points(space, mapping) == {3}

    trace = picard_solve(space, mapping, 1, k=Fraction(6, 7))
    assert not trace.certified and trace.apriori_bounds is None
    assert trace.iterates == (1, 2, 3) and trace.step_distances == (2, 6)
    assert trace.converged and trace.fixed_point == 3

    with pytest.raises(CertificateError, match="step inequality violated at n=0"):
        picard_solve(space, mapping, 1, k=Fraction(6, 7), allow_inadmissible_k=True)
