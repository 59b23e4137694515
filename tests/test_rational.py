import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthofix import InputError, parse_rational


def test_parse_integer_literals():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(5) == Fraction(5)


def test_parse_fraction_canonicalizes():
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("6/3") == Fraction(2)
    assert parse_rational("3 / 4") == Fraction(3, 4)


@pytest.mark.parametrize("bad", ["1.5", "0.25", "", "one", "1/2/3", "2e3", None, 1.5, True])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


@pytest.mark.parametrize("text", ["\u0663", "\uff13", "1\u0663"], ids=["arabic-indic", "fullwidth", "mixed"])
def test_parse_rejects_non_ascii_digits(text):
    # `\d` matches every Unicode decimal digit: these read as 3, 3 and 13 before the pattern took [0-9] only.
    with pytest.raises(InputError, match="malformed rational"):
        parse_rational(text)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the interpreter has no digit limit")
@pytest.mark.parametrize("template", ["{}", "-{}", "1/{}", "{}/7"])
def test_parse_rejects_numerals_over_the_digit_limit(template):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InputError, match=f"numeral exceeds the interpreter's limit of {limit} digits"):
        parse_rational(template.format("9" * (limit + 1)))
    assert parse_rational(template.format("9" * limit)) != 0


def test_parse_zero_denominator():
    with pytest.raises(InputError, match="zero denominator"):
        parse_rational("1/0")


def test_format_round_trip():
    for text in ["0", "7", "-7", "1/3", "-22/7"]:
        assert str(parse_rational(text)) == text


rats = st.fractions(max_denominator=50)


@given(rats, rats, rats)
def test_arithmetic_is_exact_and_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(st.integers(-200, 200), st.integers(1, 200), st.integers(1, 20))
def test_canonical_form_is_unique(num, den, blow):
    x = Fraction(num, den)
    y = Fraction(num * blow, den * blow)
    assert x == y
    assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
    assert x.denominator > 0
