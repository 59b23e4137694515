import copy
import math
import operator
import pickle
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthofix import InputError, QuadExt


def test_compare_one_third_vs_radical_over_eleven():
    # Squaring oracle: (1/3)^2 = 1/9 and ((1/11) sqrt 11)^2 = 1/11; 1/9 > 1/11.
    assert Fraction(1, 9) > Fraction(1, 11)
    x = QuadExt(Fraction(1, 3), 0, 11)
    y = QuadExt(0, Fraction(1, 11), 11)
    assert (x - y).sign() == 1


def test_compare_reflexive_equal():
    x = QuadExt(Fraction(5, 7), Fraction(-2, 3), 11)
    assert (x - x).sign() == 0


def test_compare_sqrt2_vs_one():
    assert (QuadExt(0, 1, 2) - QuadExt(1, 0, 2)).sign() == 1


def test_mismatched_radicands_rejected():
    with pytest.raises(InputError, match="radicand"):
        QuadExt(0, 1, 2) - QuadExt(0, 1, 11)


def test_rational_values_mix_across_radicands():
    assert QuadExt(2, 0, 2) == QuadExt(2, 0, 11)
    assert QuadExt(1, 0, 7) + QuadExt(0, 1, 11) == QuadExt(1, 1, 11)


def test_is_rational():
    assert QuadExt(1, 0, 11).is_rational
    assert not QuadExt(1, Fraction(1, 11), 11).is_rational
    root2 = QuadExt(0, 1, 2)
    assert (root2 * root2).is_rational
    assert (root2 * root2) == 2


@pytest.mark.parametrize("args", [(0.1,), (1, 0.5), (True, 1), (1, False), ("1/2",), (0, "1")])
def test_coefficients_must_be_exact_rationals(args):
    # Fraction(0.1) is a binary approximation, a bool is not a number, and a string is not parsed here.
    with pytest.raises(InputError, match="int or a Fraction"):
        QuadExt(*args)


class _Radicand(IntEnum):
    TWO = 2


def test_invalid_radicand():
    # The radicand follows the index rule: an IntEnum member is not stored as d.
    for d in (0, 1, -3, 4, 12, 18, _Radicand.TWO, True, 2.0):
        with pytest.raises(InputError):
            QuadExt(1, 1, d)


def test_arithmetic_identities():
    w = QuadExt(1, Fraction(1, 11), 11)  # 1 + 1/sqrt(11)
    assert w - 1 == QuadExt(0, Fraction(1, 11), 11)
    assert w * 0 == QuadExt(0, 0, 11)
    assert (w / 3) * 3 == w
    assert w * (QuadExt(1, 0, 11) / w) == 1
    assert abs(QuadExt(1, -1, 11)) == QuadExt(-1, 1, 11)  # sqrt(11) > 1


@pytest.mark.parametrize("q", [QuadExt(1, Fraction(1, 11), 11), QuadExt(Fraction(1, 2), 0, 11), QuadExt(0, -1, 2)])
def test_only_the_operators_the_samples_and_scans_use(q):
    # A rational stands only on the right of - and /, and there are no powers.
    for op in (lambda: Fraction(1) - q, lambda: 2 / q, lambda: q**2):
        with pytest.raises(TypeError):
            op()
    assert q - 1 == QuadExt(q.a - 1, q.b, q.d)
    assert q / 2 == QuadExt(q.a / 2, q.b / 2, q.d)
    assert 1 + q == QuadExt(q.a + 1, q.b, q.d)
    # the value-domain kernel's `num{i} * k{f}` with num{i} still at its initial -1
    assert -1 * q == QuadExt(-q.a, -q.b, q.d)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 11) / QuadExt(0, 0, 11)


small = st.fractions(min_value=-12, max_value=12, max_denominator=12)


@given(small, small, small, small)
def test_product_rationality_rule(a, b, a2, b2):
    x = QuadExt(a, b, 11)
    y = QuadExt(a2, b2, 11)
    assert (x * y).is_rational == (a * b2 + a2 * b == 0)


@given(small, small, small, small)
def test_ordering_matches_float_when_separated(a, b, a2, b2):
    x = QuadExt(a, b, 11)
    y = QuadExt(a2, b2, 11)
    approx = (float(a) + float(b) * math.sqrt(11)) - (float(a2) + float(b2) * math.sqrt(11))
    if abs(approx) > 1e-6:
        assert (x - y).sign() == (1 if approx > 0 else -1)
    total = (x < y) + (x == y) + (x > y)
    assert total == 1


def test_str_rendering():
    assert str(QuadExt(1, Fraction(1, 11), 11)) == "1 + (1/11)*sqrt(11)"
    assert str(QuadExt(0, 1, 11)) == "sqrt(11)"
    assert str(QuadExt(Fraction(1, 3), 0, 11)) == "1/3"
    assert str(QuadExt(1, -1, 2)) == "1 - sqrt(2)"


def test_mixing_radicands_still_raises():
    root2, root3 = QuadExt(0, 1, 2), QuadExt(1, 1, 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        with pytest.raises(InputError, match="radicand"):
            op(root2, root3)
    assert root2 != root3


def _checked(result, expected):
    # `expected` goes through the public constructor: same value, radicand, hash and rendering.
    assert type(result.a) is type(result.b) is Fraction
    assert (result.a, result.b, result.d) == (expected.a, expected.b, expected.d)
    assert hash(result) == hash(expected) and str(result) == str(expected) and repr(result) == repr(expected)
    for clone in (pickle.loads(pickle.dumps(result)), copy.copy(result), copy.deepcopy(result)):
        assert type(clone.a) is type(clone.b) is Fraction
        assert repr(clone) == repr(result) and hash(clone) == hash(result)


@given(small, small, small, small, st.integers(-5, 5))
def test_arithmetic_results_are_well_formed(a, b, a2, b2, m):
    x, y = QuadExt(a, b, 11), QuadExt(a2, b2, 11)
    _checked(x + y, QuadExt(a + a2, b + b2, 11))
    _checked(x - y, QuadExt(a - a2, b - b2, 11))
    _checked(x * y, QuadExt(a * a2 + 11 * b * b2, a * b2 + a2 * b, 11))
    _checked(-x, QuadExt(-a, -b, 11))
    _checked(x + m, QuadExt(a + m, b, 11))
    _checked(x * m, QuadExt(a * m, b * m, 11))
    _checked(abs(x), x if x.sign() >= 0 else QuadExt(-a, -b, 11))
    if y:
        norm = a2 * a2 - 11 * b2 * b2
        _checked(x / y, QuadExt((a * a2 - 11 * b * b2) / norm, (a2 * b - a * b2) / norm, 11))


def test_rational_operand_of_another_radicand_is_relabelled():
    # A rational value of another radicand is relabelled, as the public constructor would.
    _checked(QuadExt(0, 1, 11) + QuadExt(2, 0, 7), QuadExt(2, 1, 11))
    _checked(QuadExt(2, 0, 7) + QuadExt(0, 1, 11), QuadExt(2, 1, 11))
    _checked(QuadExt(2, 0, 7) * QuadExt(3, 0, 11), QuadExt(6, 0, 7))
