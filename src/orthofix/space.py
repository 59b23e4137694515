"""Finite metric spaces with a directed orthogonality relation, and self maps.

A FiniteSpace is a labelled point set, an exact distance matrix and a set of
ordered index pairs (i, j) meaning "point i is orthogonal to point j".  The
relation is stored exactly as given: it is not assumed reflexive, symmetric
or transitive.  Two points count as *orthogonally related* when either
orientation is present; that symmetric view is computed at query time and
never materialized.

Distance entries are Fractions for ordinary spaces; analytic sample spaces
may carry QuadExt entries (one shared radicand).  Every value is immutable
after construction, so spaces, maps and reports are safe to share between
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class FiniteSpace:
    """Immutable labelled point set + exact metric + directed relation."""

    __slots__ = ("points", "metric", "relation", "_related", "_rescale_cache")

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
        self.relation = frozenset(rel)
        self._related = self.relation | frozenset((j, i) for (i, j) in self.relation)
        self._rescale_cache = None  # memo for the contraction engines

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
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InputError(f"index pair ({i}, {j}) out of range for {self.n} points")
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


def related(space: FiniteSpace, i: int, j: int) -> bool:
    """True iff i and j are orthogonally related (either orientation)."""
    return space.related(i, j)


def _fmt(value: Scalar) -> str:
    from .rational import format_rational

    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def validate_metric(space: FiniteSpace) -> ValidationReport:
    """Check every metric axiom exhaustively and report all violations.

    Axioms: zero diagonal, symmetry, strict positivity off the diagonal,
    and the triangle inequality over all ordered triples.  Each violation
    carries a concrete witness so failures are actionable.
    """
    m = space.metric
    n = space.n
    violations: list[Violation] = []
    for i in range(n):
        if m[i][i] != 0:
            violations.append(Violation("diagonal", (i,), (_fmt(m[i][i]),)))
    for i in range(n):
        for j in range(n):
            if i < j and m[i][j] != m[j][i]:
                violations.append(Violation("symmetry", (i, j), (_fmt(m[i][j]), _fmt(m[j][i]))))
            if i != j and m[i][j] <= 0:
                violations.append(Violation("positivity", (i, j), (_fmt(m[i][j]),)))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                if m[i][j] > m[i][k] + m[k][j]:
                    violations.append(
                        Violation(
                            "triangle",
                            (i, j, k),
                            (_fmt(m[i][j]), _fmt(m[i][k]), _fmt(m[k][j])),
                        )
                    )
    return ValidationReport(ok=not violations, violations=tuple(violations))
