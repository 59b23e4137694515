"""Point sets with a directed orthogonality relation, finite metric spaces, and self maps.

A PointRelation is a labelled point set and a set of ordered index pairs
(i, j) meaning "point i is orthogonal to point j": the facts of the paper's
(weak) orthogonal sets, which need no metric.  The relation is stored
exactly as given: it is not assumed reflexive, symmetric or transitive.
Two points count as *orthogonally related* when either orientation is
present.  The relation is held as one int bitmask per row (bit j of
`relation_rows[i]` is set iff (i, j) is stored), and so is its symmetric
closure (`closure_rows`).  Construction screens the entries in bulk, walking
them one by one only to name a bad entry, and builds the bit rows, the stored
pairs in sorted order (read off the bit rows; scans and reports use it) and
the weak orthogonal elements (the full closure rows).  The frozenset
`relation` and the sorted closure are built on first read.

A FiniteSpace is a PointRelation with an exact rational distance matrix.
Each input rule has one definition: a distance entry is an exact rational
(`rational._is_rational`: a true int or a Fraction), a point index a true
int (`rational._is_index`), a relation entry a tuple or list of two indices,
and a map has one image per point (`_check_map`); anything else raises
InputError.  The metric also gets an *integer form* at construction: every
entry multiplied by the lcm of the denominators.  Scaling by a positive
constant preserves every order, sum and ratio comparison, so metric
validation and the contraction scans run on plain ints; values are rendered
from the exact metric.  Validation screens the triangle inequality with each
row of the integer form packed into one int, one lane per entry, and tests
only the lanes above the diagonal: on a symmetric form the pairs below it
mirror those above, and on any other form a pass over the transpose covers
them (see `validate_metric`).  Relations, spaces and maps refuse attribute assignment.
Pickling or copying one rebuilds it from its constructor arguments (a map's
memo of facts is not carried over), so callers can pickle and copy them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import InputError
from .rational import _is_index, _is_rational, _shown
from .records import to_dict


class Violation(namedtuple("Violation", "axiom witness values")):
    """One broken metric axiom with a concrete witness.

    axiom: "diagonal" | "symmetry" | "positivity" | "triangle"; witness: a pair, or (i, j, k) meaning
    d(i,j) > d(i,k) + d(k,j); values: the offending entries, rendered exactly.
    """

    __slots__ = ()
    to_dict = to_dict


class ValidationReport(namedtuple("ValidationReport", "ok violations")):
    __slots__ = ()
    to_dict = to_dict


def _check_point(space: PointRelation, value, what: str = "index") -> None:
    """Raise InputError unless `value` is an index (see `_is_index`) of a point of `space`."""
    if not _is_index(value):
        raise InputError(f"{what} {value!r} is not an index")
    if not (0 <= value < space.n):
        raise InputError(f"{what} {value} out of range")


def _check_map(space: PointRelation, mapping: SelfMap) -> None:
    """Raise InputError unless `mapping` has exactly one image per point of `space`."""
    if len(mapping) != space.n:
        raise InputError("map size does not match the space")


def _integer_form(rows: tuple[tuple[int | Fraction, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The metric scaled by the lcm of its denominators.

    The one check of the metric entries: each distinct entry object (a loaded metric shares one
    Fraction per value) is checked and scaled once.  An int's denominator is 1, so ints,
    Fractions and any mix get the same form (an all-int metric is its own); any other entry raises InputError.
    """
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) == {int}:
        return rows  # an all-int metric is its own integer form
    distinct = dict(zip(map(id, entries), entries))
    for e in distinct.values():
        if not _is_rational(e):
            i, j = divmod(next(p for p, x in enumerate(entries) if x is e), len(rows))
            raise InputError(f"metric entry {e!r} at ({i}, {j}) is not an exact rational (int or Fraction)")
    scale = lcm(*{e.denominator for e in distinct.values()})
    scaled = {key: e.numerator * (scale // e.denominator) for key, e in distinct.items()}.__getitem__
    return tuple(tuple(map(scaled, map(id, row))) for row in rows)


def _integer_form_mismatch(
    rows: tuple[tuple[int | Fraction, ...], ...], int_rows: tuple[tuple[int, ...], ...]
) -> tuple[int, int] | None:
    """The first (i, j) where `int_rows` is not `rows` times the lcm of its denominators, or None."""
    scale = lcm(*set(map(attrgetter("denominator"), chain.from_iterable(rows))))
    if scale == 1 and rows == int_rows:
        return None
    for i, (row, int_row) in enumerate(zip(rows, int_rows, strict=True)):
        for j, (e, v) in enumerate(zip(row, int_row, strict=True)):
            if v * e.denominator != e.numerator * scale:
                return i, j
    return None


def _pairs(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (i, j) with bit j of `rows[i]` set, in sorted order."""
    return [(i, j) for i, mask in enumerate(rows) for j, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class PointRelation:
    """Immutable labelled point set + directed relation."""

    __slots__ = (
        "points", "relation_rows", "closure_rows", "sorted_relation", "weak_elements", "_relation", "_sorted_closure",
    )

    def __init__(self, points: Sequence[str], relation: Iterable[tuple[int, int]]):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise InputError("point labels must be unique")
        n = len(points)
        if n == 0:
            raise InputError("space needs at least one point")
        pairs = list(relation)  # screened in bulk; when the screen fails, the loop names the first bad entry
        shaped = set(map(type, pairs)) <= {tuple, list} and set(map(len, pairs)) <= {2}
        flat = list(chain.from_iterable(pairs)) if shaped else [None]
        if not (set(map(type, flat)) <= {int} and set(flat) <= set(range(n))):
            for pair in pairs:
                i, j = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
                if not (_is_index(i) and _is_index(j)):
                    raise InputError(f"relation entry {pair!r} is not an index pair; expected a pair of indices")
                if not (0 <= i < n and 0 <= j < n):
                    raise InputError(f"relation pair ({i}, {j}) out of range for {n} points")
        out = [0] * n  # bit j of out[i]: (i, j) is stored
        col = [0] * n  # bit i of col[j]: (i, j) is stored
        for i, j in pairs:
            out[i] |= 1 << j
            col[j] |= 1 << i
        both = list(map(int.__or__, out, col))  # bit j of both[i]: (i, j) or (j, i) is stored
        full = (1 << n) - 1
        init = object.__setattr__
        init(self, "points", points)
        init(self, "relation_rows", tuple(out))
        init(self, "closure_rows", tuple(both))
        init(self, "sorted_relation", tuple(_pairs(out)))
        # related, in some direction that may vary with y, to every point y (itself included)
        init(self, "weak_elements", frozenset(i for i in range(n) if both[i] == full))
        init(self, "_relation", None)
        init(self, "_sorted_closure", None)

    @property
    def relation(self) -> frozenset[tuple[int, int]]:
        """The stored pairs as a set, built on first read."""
        if self._relation is None:
            object.__setattr__(self, "_relation", frozenset(self.sorted_relation))
        return self._relation

    @property
    def sorted_closure(self) -> tuple[tuple[int, int], ...]:
        """The symmetric closure's pairs in sorted order, read off `closure_rows` on first read."""
        if self._sorted_closure is None:
            object.__setattr__(self, "_sorted_closure", tuple(_pairs(self.closure_rows)))
        return self._sorted_closure

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy restore slots with setattr; rebuild from the constructor instead
        return PointRelation, (self.points, self.sorted_relation)

    @property
    def n(self) -> int:
        return len(self.points)

    def index_of(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise InputError(f"unknown point label {label!r}") from None

    def related(self, i: int, j: int) -> bool:
        """True iff i and j are orthogonally related (either orientation)."""
        _check_point(self, i)
        _check_point(self, j)
        return bool(self.closure_rows[i] >> j & 1)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, |relation|={len(self.sorted_relation)})"


class FiniteSpace(PointRelation):
    """Immutable PointRelation + exact rational metric and its integer form."""

    __slots__ = ("metric", "int_metric")

    def __init__(
        self,
        points: Sequence[str],
        metric: Sequence[Sequence[int | Fraction]],
        relation: Iterable[tuple[int, int]],
    ):
        super().__init__(points, relation)
        n = self.n
        rows = tuple(tuple(row) for row in metric)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError(f"metric must be a {n}x{n} matrix matching the point count")
        object.__setattr__(self, "int_metric", _integer_form(rows))
        object.__setattr__(self, "metric", rows)

    def __reduce__(self):
        return FiniteSpace, (self.points, self.metric, self.sorted_relation)

    def d(self, i: int, j: int) -> int | Fraction:
        return self.metric[i][j]


class SelfMap:
    """Immutable total map on a space's points, stored as an image table.

    A map also keeps the facts computed about it on one space (preservation
    and the contraction reports, see `contraction.report`): one slot holds
    (space, memo), and using the map with another space starts a fresh memo.
    """

    __slots__ = ("images", "_facts")

    def __init__(self, images: Sequence[int], n: int | None = None):
        imgs = tuple(images)
        if n is not None and not _is_index(n):
            raise InputError(f"map size {n!r} is not an index")
        if n is not None and len(imgs) != n:
            raise InputError(f"map must list exactly {n} images, got {len(imgs)}")
        for idx, img in enumerate(imgs):
            if not _is_index(img):
                raise InputError(f"map image {img!r} of point {idx} is not an index")
            if not (0 <= img < len(imgs)):
                raise InputError(f"map image {img} of point {idx} out of range")
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_facts", None)

    def __setattr__(self, name, value):
        raise AttributeError("SelfMap is immutable")

    def __reduce__(self):
        # the memo is not carried over: the copy starts with none
        return SelfMap, (self.images,)

    def _memo(self, space: FiniteSpace) -> dict:
        """The facts of this map on `space`; a fresh memo when the map was last used with another space."""
        facts = self._facts
        if facts is None or facts[0] is not space:
            facts = (space, {})
            object.__setattr__(self, "_facts", facts)
        return facts[1]

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __len__(self):
        return len(self.images)

    def __repr__(self):
        return f"SelfMap({list(self.images)})"


def _upper_lanes_lost(m: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """The pairs (i, j), j > i, in sorted order, whose lane loses its guard bit in the packed test of `validate_metric`."""
    n, low = len(m), min(map(min, m))
    bits = max(-low, max(map(max, m))).bit_length()
    byte_lanes = low >= 0 and bits <= 5  # each row is then one from_bytes, and its offsets one add
    width, offset = (8 if byte_lanes else bits + 3), 1 << bits
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)
    if byte_lanes:
        packed = [int.from_bytes(bytes(row), "little") + offset * ones for row in m]
    else:
        packed = []
        for row in m:
            lanes = 0
            for entry in reversed(row):
                lanes = lanes << width | entry + offset
            packed.append(lanes)
    guards = ones << (width - 1)
    flagged = []
    for i, row in enumerate(m):
        first = i - i % 8  # rows first to first + 7 share one shift, which drops the lanes up to first
        if i == first:
            shift = width * (first + 1)
            shifted, upper_guards, upper_ones = [lanes >> shift for lanes in packed], guards >> shift, ones >> shift
        lower = upper_guards - shifted[i]
        kept = upper_guards
        for lanes, entry in zip(shifted, row):
            kept &= lanes + lower + entry * upper_ones
        skip = width * (i - first)  # lanes first + 1 to i are still there, and not read
        lost = upper_guards >> skip << skip & ~kept
        while lost:
            low = lost & -lost
            flagged.append((i, first + 1 + (low.bit_length() - 1) // width))
            lost ^= low
    return flagged


def _triangle_screen(m: tuple[tuple[int, ...], ...], symmetric: bool) -> list[tuple[int, int]]:
    """The sorted pairs (i, j), i != j, whose lane loses its guard bit in the packed test of `validate_metric`.

    Only the lanes j > i of row i are tested.  On a symmetric `m` each flagged (i, j) is also
    reported as (j, i); otherwise the lower pairs are the upper pairs of the transpose.
    """
    upper = _upper_lanes_lost(m)
    mirrored = upper if symmetric else _upper_lanes_lost(tuple(zip(*m)))
    return sorted(upper + [(j, i) for i, j in mirrored])


def validate_metric(space: FiniteSpace) -> ValidationReport:
    """Check every metric axiom exhaustively and report all violations.

    Axioms: zero diagonal, symmetry, strict positivity off the diagonal,
    and the triangle inequality over all ordered triples.  Each violation
    carries a concrete witness so failures are actionable.  The comparisons
    run on the integer form; witness values are rendered from the exact
    metric by `rational._shown`, so an entry past the interpreter's digit
    limit is written as a phrase that names the limit.

    The triangle inequality is screened pair by pair before the exact loop
    over k runs, and only on the pairs the screen flags, in sorted (i, j)
    order -- so the violations and their order are those of the full loop.
    On an integer form m the screen (`_triangle_screen`) packs row k into
    one int P_k, entry j in lane j, each entry raised by offset = 2^b, where
    b is the bit length of the largest |entry|; a lane has b + 3 bits, or
    one byte when they fit and no entry is negative (a row is then one
    `int.from_bytes`), and its top bit is its guard.  For each i it ANDs,
    over all k, P_k + (G - P_i) + m[i][k] * ONES, where G holds every guard
    bit and ONES a 1 in every lane.  The offsets cancel, so lane j holds
    guard + m[i][k] + m[k][j] - m[i][j], and no lane borrows from or carries
    into its neighbour: with every |entry| < offset and guard >= 4 * offset,
    a lane of G - P_i lies in [guard - 2 * offset, guard], adding P_k and
    then m[i][k] keeps it within 3 * offset of guard, inside the 2 * guard
    values a lane holds.  Whatever the signs of the entries, and with or
    without symmetry, lane j keeps its guard bit exactly when
    m[i][k] + m[k][j] >= m[i][j] for every k.

    Row i tests only its lanes j > i (`_upper_lanes_lost`).  Rows i0 to
    i0 + 7, i0 a multiple of 8, share one shift of every P_k, of G and of
    ONES right by i0 + 1 lanes: whole lanes drop off the bottom and, since
    no lane borrows or carries, every lane left holds what it held before,
    at half the width on average; lanes i0 + 1 to i are then left unread.
    On a symmetric form, (i, j, k) breaks exactly when (j, i, k) does, and
    the terms k = i and k = j fail for (i, j) exactly when they fail for
    (j, i), so each flagged (i, j) is also flagged as (j, i).  On any other
    form, lane i of row j is lane j of row i in the test of the transpose
    (m[j][k] + m[k][i] >= m[j][i] reads m'[i][k] + m'[k][j] >= m'[i][j]
    with m' the transpose), so one more pass over the transpose's upper
    lanes flags the pairs below the diagonal.  Either way the screen flags
    exactly the pairs a test of every lane would.  The terms k = i and
    k = j fail only on a negative diagonal entry, and lane j = i is never
    read, so the exact loop decides each flagged pair.
    """
    exact, m = space.metric, space.int_metric
    n = space.n
    violations = [Violation("diagonal", (i,), (_shown(exact[i][i]),)) for i in range(n) if m[i][i] != 0]
    symmetric = m == tuple(zip(*m))
    # symmetric, nothing negative and the diagonal the only zeros: no pair can fail, so only a failing screen loops
    if violations or not symmetric or min(map(min, m)) < 0 or sum(row.count(0) for row in m) != n:
        for i in range(n):
            for j in range(n):
                if i < j and m[i][j] != m[j][i]:
                    violations.append(Violation("symmetry", (i, j), (_shown(exact[i][j]), _shown(exact[j][i]))))
                if i != j and m[i][j] <= 0:
                    violations.append(Violation("positivity", (i, j), (_shown(exact[i][j]),)))
    for i, j in _triangle_screen(m, symmetric):
        for k in range(n):
            if k == i or k == j:
                continue
            if m[i][j] > m[i][k] + m[k][j]:
                violations.append(
                    Violation(
                        "triangle",
                        (i, j, k),
                        (_shown(exact[i][j]), _shown(exact[i][k]), _shown(exact[k][j])),
                    )
                )
    return ValidationReport(ok=not violations, violations=tuple(violations))
