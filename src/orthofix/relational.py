"""Orthogonality structure of a space: elements, sequences, preservation, orbits, fixed points.

Terminology used below:

* a *strong* orthogonal element x0 is related to every point uniformly in
  one direction: (for all y: x0 _|_ y) or (for all y: y _|_ x0);
* a *weak* orthogonal element only needs, per point y, one of x0 _|_ y or
  y _|_ x0 (the direction may vary with y);
* every strong element is weak, so a space with a strong element is an
  orthogonal set, one with only weak elements is a weak orthogonal set.

Quantifiers range over all points including x0 itself, so a weak element
must in particular be related to itself.  Nothing here reads a distance:
every function takes a `PointRelation`, and a `FiniteSpace` is one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import and_
from typing import Iterator, Sequence

from .errors import InputError
from .records import to_dict
from .space import PointRelation, SelfMap, _check_map, _check_point


class OrthoClassification(namedtuple("OrthoClassification", "strong_elements weak_elements verdict")):
    __slots__ = ()  # verdict: "O-set" | "O_w-set-only" | "neither"
    to_dict = to_dict


class PreservationReport(namedtuple("PreservationReport", "preserving violations")):
    __slots__ = ()
    to_dict = to_dict


class SequenceCheck(namedtuple("SequenceCheck", "ok first_violation")):
    __slots__ = ()


class OrbitInfo(namedtuple("OrbitInfo", "prefix cycle")):
    __slots__ = ()
    _json_extra = ("enters_fixed_point",)
    to_dict = to_dict

    @property
    def enters_fixed_point(self) -> bool:
        return len(self.cycle) == 1


def strong_orthogonal_elements(space: PointRelation) -> frozenset[int]:
    """Points related to every point uniformly in one direction."""
    rows = space.relation_rows
    full = (1 << space.n) - 1
    full_columns = reduce(and_, rows)  # bit x is set iff every y has (y, x) stored
    return frozenset(x for x in range(space.n) if rows[x] == full or full_columns >> x & 1)


def weak_orthogonal_elements(space: PointRelation) -> frozenset[int]:
    """Points related (in some direction, possibly varying) to every point.

    The set is built once, with the space (`PointRelation.weak_elements`).
    """
    return space.weak_elements


def classify_orthogonality(space: PointRelation) -> OrthoClassification:
    strong = strong_orthogonal_elements(space)
    weak = weak_orthogonal_elements(space)
    if strong:
        verdict = "O-set"
    elif weak:
        verdict = "O_w-set-only"
    else:
        verdict = "neither"
    return OrthoClassification(strong, weak, verdict)


def is_ow_sequence(space: PointRelation, seq: Sequence[int]) -> SequenceCheck:
    """Check a finite window: every adjacent pair must be orthogonally related.

    Returns (True, None), or (False, n) for the least n whose pair
    (seq[n], seq[n+1]) is unrelated.
    """
    if len(seq) == 0:
        raise InputError("sequence must be non-empty")
    for idx in seq:
        _check_point(space, idx, "sequence index")
    for n in range(len(seq) - 1):
        if not space.related(seq[n], seq[n + 1]):
            return SequenceCheck(False, n)
    return SequenceCheck(True, None)


def is_ow_preserving(space: PointRelation, mapping: SelfMap) -> PreservationReport:
    """Does the map send orthogonally related pairs to orthogonally related pairs?

    Every related pair is scanned once (the premise is the symmetric view:
    either orientation in the stored relation).  Violations are listed
    exhaustively, each in the first of its stored orientations in sorted
    order.
    """
    _check_map(space, mapping)
    violations = tuple(_violations(space, mapping.images))
    return PreservationReport(preserving=not violations, violations=violations)


def _violations(space: PointRelation, images: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The related pairs whose images are unrelated, lazily, in the order of `is_ow_preserving`.

    `images` is a raw image list of length n with entries in range, unchecked:
    the audit's sampler asks for the first item of a candidate it has just drawn.
    """
    rows, closure = space.relation_rows, space.closure_rows
    return (
        (i, j)
        for (i, j) in space.sorted_relation
        if not (i > j and rows[j] >> i & 1) and not closure[images[i]] >> images[j] & 1
    )


def orbit(space: PointRelation, mapping: SelfMap, start: int) -> OrbitInfo:
    """Iterate the map from `start` and split the orbit into prefix + cycle.

    Finite spaces guarantee an eventual cycle; the first revisited point
    marks its entry.  Concatenating the prefix with the cycle repeated
    reproduces the full iterate sequence.
    """
    _check_map(space, mapping)
    _check_point(space, start, "start index")
    first_seen: dict[int, int] = {}
    walk: list[int] = []
    x = start
    while x not in first_seen:
        first_seen[x] = len(walk)
        walk.append(x)
        x = mapping(x)
    entry = first_seen[x]
    return OrbitInfo(prefix=tuple(walk[:entry]), cycle=tuple(walk[entry:]))


def brute_force_fixed_points(space: PointRelation, mapping: SelfMap) -> frozenset[int]:
    """Exhaustive scan: exactly the points mapped to themselves."""
    _check_map(space, mapping)
    return frozenset(z for z in range(space.n) if mapping(z) == z)
