"""Exact rational scalars and their strict text syntax.

All distances, contraction constants and error bounds in this package are
`fractions.Fraction` values (arbitrary-precision, always canonical).  The
only thing the standard type does not give us is a strict surface syntax:
`Fraction("1.5")` happily parses a decimal, and we must not accept decimals
anywhere (files, flags) because they invite silent precision loss.  The
helpers here accept integer literals and "p/q" only.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError

# Exact rational scalar used throughout the package.
Rat = Fraction

_RAT_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text: str | int) -> Fraction:
    """Parse an integer literal or "p/q" string into an exact rational.

    Decimals, whitespace-embedded junk and zero denominators are rejected
    with InputError.
    """
    if isinstance(text, bool):
        raise InputError(f"expected rational, got boolean {text!r}")
    if isinstance(text, int):
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
    """An int or Fraction parameter as a Fraction.

    Floats are binary approximations and bools are not numbers here, so
    both raise InputError instead of being converted.
    """
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return Fraction(value)
    raise InputError(f"{name} must be an int or a Fraction, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q" (the same syntax parse accepts; equal to `str(value)`)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
