"""The named choices of the library: contraction kinds, corpus cases and the audit's parameters.

Kept apart from the code that uses them (`contraction`, `solver`, `corpus`,
`oracle`), so that the command line can offer them as choices and defaults,
and `corpus --list` can list the cases, without importing that code.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import InputError

_HALF, _ONE = Fraction(1, 2), Fraction(1)


class ContractionKind(str, Enum):
    BANACH_PERP = "banach_perp"
    CIRIC = "ciric"
    KANNAN = "kannan"
    CHATTERJEA = "chatterjea"
    GENERALIZED_PERP = "generalized_perp"
    UNRESTRICTED_LIPSCHITZ = "unrestricted_lipschitz"

    @property
    def k_bound(self) -> Fraction:
        """Upper end of the admissible constant range for this kind."""
        if self in (ContractionKind.KANNAN, ContractionKind.CHATTERJEA):
            return _HALF
        return _ONE

    @classmethod
    def _missing_(cls, value):
        """The kind-name rule: `ContractionKind(name)` raises InputError for an unknown name."""
        valid = ", ".join(k.value for k in cls)
        raise InputError(f"unknown contraction kind {value!r} (expected one of: {valid})")


# the corpus's case names and one-line summaries, in stable order
CASES = {
    "five-point": "five-point weak orthogonal space with a generalized contraction",
    "rational-product": "real line with rationality-of-products orthogonality",
    "r2-counterexample": "orthogonally continuous but discontinuous plane map",
    "leq-relation": "total order sample under <=",
    "orbit-space": "positive-reals sample with a two-cycle orbit",
}


# the fields of `oracle.GenParams` in order, with their defaults, and the range of `max_points`
_AUDIT_DEFAULTS = {"seed": 0, "trials": 500, "max_points": 8, "relation_density": Fraction(1, 4), "map_attempts": 64}
_MAX_POINTS = (2, 32)


def list_cases() -> list[tuple[str, str]]:
    """Registered case names with one-line summaries, in stable order."""
    return list(CASES.items())
