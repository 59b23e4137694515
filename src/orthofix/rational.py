"""Exact rational scalars: the rule for what counts as one, and a strict text syntax.

All distances, contraction constants and error bounds in this package are
exact rationals.  `_is_rational` is the one rule for them, applied to metric
entries, parameters, QuadExt coefficients and loaded numbers: a true `int`
or a `Fraction`.  A float is a binary approximation, and a bool, an int
subclass or a string is not a number here, so none is ever converted.
`Fraction("1.5")` happily parses a decimal, which invites silent precision
loss, so `parse_rational` accepts integer literals and "p/q" only.
Rendering needs no helper: `str()` of a Fraction is already "p" or "p/q".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

_RAT_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def _is_rational(value) -> bool:
    """The exact-rational rule: `value` is a true int or a Fraction."""
    return value.__class__ is int or isinstance(value, Fraction)


def parse_rational(text: str | int | Fraction) -> Fraction:
    """An exact rational (see `_is_rational`), or an integer literal or "p/q" string, as a Fraction.

    Decimals, whitespace-embedded junk and zero denominators are rejected
    with InputError.
    """
    if _is_rational(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"expected integer or 'p/q' string, got {text!r}")
    m = _RAT_RE.match(text)
    if not m:
        raise InputError(f"malformed rational {text!r} (use an integer or 'p/q')")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise InputError(f"zero denominator in rational {text!r}")
    return Fraction(num, den)


def as_rational(value: Fraction | int, name: str) -> Fraction:
    """An exact rational parameter (see `_is_rational`) as a Fraction; anything else raises InputError."""
    if _is_rational(value):
        return Fraction(value)
    raise InputError(f"{name} must be an int or a Fraction, got {value!r}")
