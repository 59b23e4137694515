import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthofix import InputError, QuadExt, qext_compare, qext_is_rational


def test_compare_one_third_vs_radical_over_eleven():
    # Squaring oracle: (1/3)^2 = 1/9 and ((1/11) sqrt 11)^2 = 1/11; 1/9 > 1/11.
    assert Fraction(1, 9) > Fraction(1, 11)
    x = QuadExt(Fraction(1, 3), 0, 11)
    y = QuadExt(0, Fraction(1, 11), 11)
    assert qext_compare(x, y) == 1


def test_compare_reflexive_equal():
    x = QuadExt(Fraction(5, 7), Fraction(-2, 3), 11)
    assert qext_compare(x, x) == 0


def test_compare_sqrt2_vs_one():
    assert qext_compare(QuadExt(0, 1, 2), QuadExt(1, 0, 2)) == 1


def test_mismatched_radicands_rejected():
    with pytest.raises(InputError, match="radicand"):
        qext_compare(QuadExt(0, 1, 2), QuadExt(0, 1, 11))


def test_rational_values_mix_across_radicands():
    assert QuadExt(2, 0, 2) == QuadExt(2, 0, 11)
    assert QuadExt(1, 0, 7) + QuadExt(0, 1, 11) == QuadExt(1, 1, 11)


def test_is_rational():
    assert qext_is_rational(QuadExt(1, 0, 11))
    assert not qext_is_rational(QuadExt(1, Fraction(1, 11), 11))
    root2 = QuadExt(0, 1, 2)
    assert qext_is_rational(root2 * root2)
    assert (root2 * root2) == 2


@pytest.mark.parametrize("args", [(0.1,), (1, 0.5), (True, 1), (1, False), ("1/2",), (0, "1")])
def test_coefficients_must_be_exact_rationals(args):
    # Fraction(0.1) is a binary approximation, a bool is not a number, and a string is not parsed here.
    with pytest.raises(InputError, match="int or a Fraction"):
        QuadExt(*args)


def test_invalid_radicand():
    for d in (0, 1, -3, 4, 12, 18):
        with pytest.raises(InputError):
            QuadExt(1, 1, d)


def test_arithmetic_identities():
    w = QuadExt(1, Fraction(1, 11), 11)  # 1 + 1/sqrt(11)
    assert w - 1 == QuadExt(0, Fraction(1, 11), 11)
    assert w * 0 == QuadExt(0, 0, 11)
    assert (w / 3) * 3 == w
    assert w * (1 / w) == 1
    assert abs(QuadExt(1, -1, 11)) == QuadExt(-1, 1, 11)  # sqrt(11) > 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 11) / QuadExt(0, 0, 11)


def test_pow():
    w = QuadExt(1, 1, 2)
    assert w**2 == QuadExt(3, 2, 2)
    assert w**0 == 1


small = st.fractions(min_value=-12, max_value=12, max_denominator=12)


@given(small, small, small, small)
def test_product_rationality_rule(a, b, a2, b2):
    x = QuadExt(a, b, 11)
    y = QuadExt(a2, b2, 11)
    assert qext_is_rational(x * y) == (a * b2 + a2 * b == 0)


@given(small, small, small, small)
def test_ordering_matches_float_when_separated(a, b, a2, b2):
    x = QuadExt(a, b, 11)
    y = QuadExt(a2, b2, 11)
    approx = (float(a) + float(b) * math.sqrt(11)) - (float(a2) + float(b2) * math.sqrt(11))
    if abs(approx) > 1e-6:
        assert qext_compare(x, y) == (1 if approx > 0 else -1)
    total = (x < y) + (x == y) + (x > y)
    assert total == 1


@given(small, small, small, small)
def test_sub_then_sign_consistent_with_compare(a, b, a2, b2):
    x = QuadExt(a, b, 11)
    y = QuadExt(a2, b2, 11)
    assert qext_compare(x, y) == (x - y).sign()


def test_str_rendering():
    assert str(QuadExt(1, Fraction(1, 11), 11)) == "1 + (1/11)*sqrt(11)"
    assert str(QuadExt(0, 1, 11)) == "sqrt(11)"
    assert str(QuadExt(Fraction(1, 3), 0, 11)) == "1/3"
    assert str(QuadExt(1, -1, 2)) == "1 - sqrt(2)"
