"""Exact rational scalars and indices: the rule for what counts as each, and a strict text syntax.

All distances, contraction constants and error bounds in this package are
exact rationals.  `_is_rational` is the one rule for them, applied to metric
entries, parameters, QuadExt coefficients and loaded numbers: a true `int`
or a `Fraction`.  A float is a binary approximation, and a bool, an int
subclass or a string is not a number here, so none is ever converted.
`Fraction("1.5")` happily parses a decimal, which invites silent precision
loss, so `parse_rational` accepts integer literals and "p/q" only.
`str()` of a Fraction is already "p" or "p/q"; `_past_digit_limit` is the
rule for when it cannot write one (the digit limit is never raised).
`_is_index` is the rule for point indices, sizes and counts, and for the
QuadExt radicand: a true `int`, never a bool, an `IntEnum` member, a float
or a string.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError

_RAT_RE = re.compile(r"^\s*(-?[0-9]+)\s*(?:/\s*(-?[0-9]+)\s*)?$")  # ASCII digits: `\d` takes any Unicode digit


def _is_rational(value) -> bool:
    """The exact-rational rule: `value` is a true int or a Fraction."""
    return value.__class__ is int or isinstance(value, Fraction)


def _is_index(value) -> bool:
    """The index rule: a true int; bools, IntEnum members, floats and strings are never coerced."""
    return value.__class__ is int


def parse_rational(text: str | int | Fraction) -> Fraction:
    """An exact rational (see `_is_rational`), or an integer literal or "p/q" string, as a Fraction.

    Decimals, non-ASCII digits, whitespace-embedded junk, zero denominators
    and numerals over the interpreter's digit limit raise InputError.
    """
    if _is_rational(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"expected integer or 'p/q' string, got {text!r}")
    m = _RAT_RE.match(text)
    if not m:
        raise InputError(f"malformed rational {text!r} (use an integer or 'p/q')")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # over the interpreter's digit limit, which is process-wide state and is not raised
        raise InputError(f"numeral exceeds the interpreter's limit of {sys.get_int_max_str_digits()} digits") from None
    if den == 0:
        raise InputError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def _past_digit_limit(value) -> bool:
    """Whether `str()` of `value`, a rational or None, would write an integer past `sys.get_int_max_str_digits()`."""
    limit = sys.get_int_max_str_digits()
    if value is None or not limit:
        return False
    big = max(abs(value.numerator), value.denominator)
    return big.bit_length() > 3 * limit and big >= 10**limit  # below 2^(3 limit) is below 10^limit


def _shown(value) -> str:
    """`str()` of a rational or None for a message; past the digit limit, a phrase that names the limit."""
    if _past_digit_limit(value):
        return f"<a rational past the interpreter's limit of {sys.get_int_max_str_digits()} digits>"
    return str(value)


def as_rational(value: Fraction | int, name: str) -> Fraction:
    """An exact rational parameter (see `_is_rational`) as a Fraction; anything else raises InputError."""
    if _is_rational(value):
        return Fraction(value)
    raise InputError(f"{name} must be an int or a Fraction, got {value!r}")
