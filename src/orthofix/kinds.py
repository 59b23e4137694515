"""The named choices of the library: contraction kinds and hypothesis-check modes.

Kept apart from the code that uses them (`contraction`, `solver`), so that
the command line can offer them as choices without importing that code.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import InputError

MODE_ORBITAL_CONTINUITY = "orbital-continuity"
MODE_O1 = "O1"


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
            return Fraction(1, 2)
        return Fraction(1)

    @classmethod
    def _missing_(cls, value):
        """The kind-name rule: `ContractionKind(name)` raises InputError for an unknown name."""
        valid = ", ".join(k.value for k in cls)
        raise InputError(f"unknown contraction kind {value!r} (expected one of: {valid})")
