"""Finite metric spaces with a directed orthogonality relation, and self maps.

A FiniteSpace is a labelled point set, an exact distance matrix and a set of
ordered index pairs (i, j) meaning "point i is orthogonal to point j".  The
relation is stored exactly as given: it is not assumed reflexive, symmetric
or transitive.  Two points count as *orthogonally related* when either
orientation is present.  That symmetric closure is built once, at
construction, together with the other views every layer reads: the stored
pairs and the closure in sorted order (the order scans and reports use), and
the weak orthogonal elements.

Distance entries are Fractions for ordinary spaces; analytic sample spaces
may carry QuadExt entries (one shared radicand).  A rational metric also
gets an *integer form* at construction: every entry multiplied by the lcm of
the denominators.  Scaling by a positive constant preserves every order,
sum and ratio comparison, so metric validation and the contraction scans
run on plain ints; values are rendered from the exact metric.  Every value
is immutable after construction, so spaces, maps and reports are safe to
share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Sequence

from .errors import InputError
from .quadext import QuadExt

Scalar = Fraction | QuadExt


@dataclass(frozen=True)
class Violation:
    """One broken metric axiom with a concrete witness."""

    axiom: str                 # "diagonal" | "symmetry" | "positivity" | "triangle"
    witness: tuple[int, ...]   # pair, or (i, j, k) meaning d(i,j) > d(i,k) + d(k,j)
    values: tuple[str, ...]    # offending entries, rendered exactly

    def to_dict(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness), "values": list(self.values)}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


def _is_index(value) -> bool:
    """A point index is a true int; bools, floats and strings are never coerced."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_point(space: FiniteSpace, value, what: str = "index") -> None:
    """Raise InputError unless `value` is an index (see `_is_index`) of a point of `space`."""
    if not _is_index(value):
        raise InputError(f"{what} {value!r} is not an index")
    if not (0 <= value < space.n):
        raise InputError(f"{what} {value} out of range")


def _is_exact(value) -> bool:
    """A metric entry is an int, a Fraction or a QuadExt; floats and bools are never accepted."""
    return isinstance(value, (Fraction, QuadExt)) or _is_index(value)


def _integer_form(rows: tuple[tuple[Scalar, ...], ...]) -> tuple[tuple[int, ...], ...] | None:
    """The metric scaled by the lcm of its denominators, or None unless every entry is a Fraction."""
    if not all(isinstance(e, Fraction) for row in rows for e in row):
        return None
    scale = lcm(*{e.denominator for row in rows for e in row})
    return tuple(tuple(e.numerator * (scale // e.denominator) for e in row) for row in rows)


def _integer_form_mismatch(
    rows: tuple[tuple[Fraction, ...], ...], int_rows: tuple[tuple[int, ...], ...]
) -> tuple[int, int] | None:
    """The first (i, j) where `int_rows` is not `rows` times the lcm of its denominators, or None."""
    scale = lcm(*{e.denominator for row in rows for e in row})
    for i, (row, int_row) in enumerate(zip(rows, int_rows, strict=True)):
        for j, (e, v) in enumerate(zip(row, int_row, strict=True)):
            if v * e.denominator != e.numerator * scale:
                return i, j
    return None


class FiniteSpace:
    """Immutable labelled point set + exact metric + directed relation."""

    __slots__ = (
        "points", "metric", "int_metric", "relation", "sorted_relation", "sorted_closure", "weak_elements", "_related"
    )

    def __init__(
        self,
        points: Sequence[str],
        metric: Sequence[Sequence[Scalar]],
        relation: Sequence[tuple[int, int]],
    ):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise InputError("point labels must be unique")
        n = len(points)
        if n == 0:
            raise InputError("space needs at least one point")
        rows = tuple(tuple(row) for row in metric)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError(f"metric must be a {n}x{n} matrix matching the point count")
        int_metric = _integer_form(rows)
        if int_metric is None:  # an all-Fraction metric needs no entry check
            for i, row in enumerate(rows):
                for j, entry in enumerate(row):
                    if not _is_exact(entry):
                        raise InputError(f"metric entry {entry!r} at ({i}, {j}) is not exact (int, Fraction or QuadExt)")
        rel = []
        for pair in relation:
            if len(pair) != 2 or not all(_is_index(v) for v in pair):
                raise InputError(f"relation entry {pair!r} is not an index pair")
            i, j = pair
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"relation pair ({i}, {j}) out of range for {n} points")
            rel.append((i, j))
        self.points = points
        self.metric = rows
        self.int_metric = int_metric
        self.relation = frozenset(rel)
        self._related = closure = self.relation | frozenset((j, i) for (i, j) in self.relation)
        self.sorted_relation = tuple(sorted(self.relation))
        self.sorted_closure = tuple(sorted(closure))
        # related, in some direction that may vary with y, to every point y (itself included)
        self.weak_elements = frozenset(x for x in range(n) if all((x, y) in closure for y in range(n)))

    @property
    def n(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> Scalar:
        return self.metric[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise InputError(f"unknown point label {label!r}") from None

    def related(self, i: int, j: int) -> bool:
        """True iff i and j are orthogonally related (either orientation)."""
        _check_point(self, i)
        _check_point(self, j)
        return (i, j) in self._related

    def __repr__(self):
        return f"FiniteSpace(n={self.n}, |relation|={len(self.relation)})"


class SelfMap:
    """Total map on a space's points, stored as an image table."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int], n: int | None = None):
        imgs = tuple(images)
        bound = len(imgs) if n is None else n
        if n is not None and len(imgs) != n:
            raise InputError(f"map must list exactly {n} images, got {len(imgs)}")
        for idx, img in enumerate(imgs):
            if not _is_index(img):
                raise InputError(f"map image {img!r} of point {idx} is not an index")
            if not (0 <= img < bound):
                raise InputError(f"map image {img} of point {idx} out of range")
        self.images = imgs

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __len__(self):
        return len(self.images)

    def __repr__(self):
        return f"SelfMap({list(self.images)})"


def validate_metric(space: FiniteSpace) -> ValidationReport:
    """Check every metric axiom exhaustively and report all violations.

    Axioms: zero diagonal, symmetry, strict positivity off the diagonal,
    and the triangle inequality over all ordered triples.  Each violation
    carries a concrete witness so failures are actionable.  The comparisons
    run on the integer form when there is one; witness values are rendered
    from the exact metric.

    The triangle inequality is screened pair by pair before the exact loop
    over k runs, and only on the pairs the screen flags, in sorted (i, j)
    order -- so the violations and their order are those of the full loop.
    The screen is exact: on a symmetric matrix row j equals column j, so
    d(i, j) > d(i, k) + d(k, j) holds for some k exactly when
    d(i, j) > min over all k of d(i, k) + d(j, k), a test that is the same
    for (i, j) and (j, i) and runs as one C-level min per pair.  The terms
    k = i and k = j are d(i, j) plus a diagonal entry, so they flag a pair
    only when that entry is negative, and the exact loop then decides.
    Without symmetry the screen does not apply and every pair is flagged.
    """
    exact = space.metric
    m = exact if space.int_metric is None else space.int_metric
    n = space.n
    violations: list[Violation] = []
    for i in range(n):
        if m[i][i] != 0:
            violations.append(Violation("diagonal", (i,), (str(exact[i][i]),)))
    symmetric = True
    for i in range(n):
        for j in range(n):
            if i < j and m[i][j] != m[j][i]:
                symmetric = False
                violations.append(Violation("symmetry", (i, j), (str(exact[i][j]), str(exact[j][i]))))
            if i != j and m[i][j] <= 0:
                violations.append(Violation("positivity", (i, j), (str(exact[i][j]),)))
    if symmetric:
        flagged = []
        for i in range(n):
            row = m[i]
            for j in range(i + 1, n):
                if row[j] > min(map(add, row, m[j])):
                    flagged += [(i, j), (j, i)]
        flagged.sort()
    else:
        flagged = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in flagged:
        for k in range(n):
            if k == i or k == j:
                continue
            if m[i][j] > m[i][k] + m[k][j]:
                violations.append(
                    Violation(
                        "triangle",
                        (i, j, k),
                        (str(exact[i][j]), str(exact[i][k]), str(exact[k][j])),
                    )
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))
