"""Exact numbers of the form a + b*sqrt(d) with rational a, b.

These cover the analytic sample spaces whose points and distances are not
all rational (a pure radical, or a point like 1 + (1/11)*sqrt(11)).  A
single square-free radicand is shared per sample; values with b == 0 are
radicand-agnostic rationals, everything else refuses to mix radicands.
The coefficients follow the package's exact-rational rule
(`rational._is_rational`), and the radicand the index rule
(`rational._is_index`): a float, bool or string raises InputError.  The
public constructor applies those checks; arithmetic does not repeat them on
its own results (`QuadExt._make`), whose coefficients are Fraction
arithmetic on checked Fractions and whose radicand is an operand's.

Ordering is decided exactly by sign case analysis on a and b (comparing
a^2 against b^2*d where the signs differ), never by floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .rational import _is_index, _is_rational, as_rational


_set = object.__setattr__
_ZERO, _ONE = Fraction(0), Fraction(1)


def is_squarefree(n: int) -> bool:
    """True iff n >= 1 and no prime square divides n."""
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


class QuadExt:
    """Immutable exact value a + b*sqrt(d), d a square-free integer >= 2."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int | Fraction, b: int | Fraction = 0, d: int = 2):
        object.__setattr__(self, "a", as_rational(a, "QuadExt coefficient"))
        object.__setattr__(self, "b", as_rational(b, "QuadExt coefficient"))
        if not _is_index(d) or d < 2 or not is_squarefree(d):
            raise InputError(f"radicand must be a square-free integer >= 2, got {d!r}")
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """A value from already checked parts: Fractions a and b and a valid radicand d."""
        new = object.__new__(cls)
        _set(new, "a", a)
        _set(new, "b", b)
        _set(new, "d", d)
        return new

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        # pickle and copy restore slots with setattr; rebuild from the constructor instead
        return QuadExt, (self.a, self.b, self.d)

    # -- classification -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other
            if other.b == 0:
                return QuadExt._make(other.a, other.b, self.d)
            if self.b == 0:
                return other
            raise InputError(f"mismatched radicands sqrt({self.d}) vs sqrt({other.d})")
        if _is_rational(other):
            return QuadExt._make(Fraction(other), _ZERO, self.d)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.d if self.b == 0 else self.d
        return QuadExt._make(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.d if self.b == 0 else self.d
        return QuadExt._make(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.d if self.b == 0 else self.d
        # (a + b sqrt(d)) (a' + b' sqrt(d)) = (aa' + bb'd) + (ab' + a'b) sqrt(d)
        return QuadExt._make(self.a * o.a + self.b * o.b * d, self.a * o.b + o.a * self.b, d)

    __rmul__ = __mul__

    def _inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadExt")
        return QuadExt._make(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt._make(_ONE, _ZERO, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the represented real number (-1, 0 or 1)."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: |a| vs |b| sqrt(d), squared (equality impossible for
        # square-free d >= 2, kept for safety).
        lhs, rhs = a * a, b * b * d
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign()

    def __eq__(self, other):
        try:
            c = self._cmp(other)
        except InputError:
            return False
        if c is NotImplemented:
            return NotImplemented
        return c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        rad = f"sqrt({self.d})" if mag == 1 else f"({str(mag)})*sqrt({self.d})"
        if self.a == 0:
            return rad if self.b > 0 else f"-{rad}"
        sign = "+" if self.b > 0 else "-"
        return f"{str(self.a)} {sign} {rad}"


def qext_compare(x: QuadExt, y: QuadExt) -> int:
    """Exact three-way comparison: -1 if x < y, 0 if equal, 1 if x > y.

    Operands must share a radicand unless one of them is rational.
    """
    if not isinstance(x, QuadExt) or not isinstance(y, QuadExt):
        raise InputError("qext_compare expects QuadExt operands")
    if x.b != 0 and y.b != 0 and x.d != y.d:
        raise InputError(f"mismatched radicands sqrt({x.d}) vs sqrt({y.d})")
    return (x - y).sign()


def qext_is_rational(x: QuadExt) -> bool:
    """True iff the irrational coefficient vanishes."""
    if not isinstance(x, QuadExt):
        raise InputError("qext_is_rational expects a QuadExt")
    return x.is_rational
