"""Strict loader for the JSON space-definition format.

    {
      "points":   ["0", "1", "2", "3", "4"],
      "metric":   [[0, 1, "2", ...], ...],      // integers or "p/q" strings
      "relation": [[0, 0], [1, 0], ...],
      "map":      [0, 0, 1, 0, 2]               // optional
    }

Unknown keys are rejected, metric entries are parsed as exact rationals
(decimals and numerals over `sys.get_int_max_str_digits` refused), and the
metric axioms are validated on load so nothing downstream sees a non-metric.
An integral JSON number loads as an int and a string as a Fraction.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .errors import InputError
from .rational import _is_rational, parse_rational
from .space import FiniteSpace, SelfMap, validate_metric

_ALLOWED_KEYS = {"points", "metric", "relation", "map"}


def parse_space_data(data: dict) -> tuple[FiniteSpace, SelfMap | None]:
    """Parse an already-decoded space definition object."""
    if not isinstance(data, dict):
        raise InputError("space definition must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise InputError(f"unknown keys in space definition: {sorted(unknown)}")
    for key in ("points", "metric", "relation"):
        if key not in data:
            raise InputError(f"space definition is missing required key {key!r}")

    points = data["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputError("'points' must be a list of string labels")
    n = len(points)

    metric_rows = data["metric"]
    if not isinstance(metric_rows, list) or len(metric_rows) != n:
        raise InputError(f"'metric' must have {n} rows")
    metric = _parse_metric(metric_rows, n)

    relation = data["relation"]
    if not isinstance(relation, list):
        raise InputError("'relation' must be a list of index pairs")  # `PointRelation` checks each entry

    space = FiniteSpace(points, metric, relation)
    report = validate_metric(space)
    if not report.ok:
        first = report.violations[0]
        raise InputError(
            f"metric is not a metric: {first.axiom} violated at {first.witness} "
            f"(values {', '.join(first.values)})"
        )

    mapping = None
    if "map" in data:
        images = data["map"]
        if not isinstance(images, list):
            raise InputError("'map' must be a list of point indices")
        try:
            mapping = SelfMap(images, n)
        except InputError as exc:
            raise InputError(f"map: {exc}") from None
    return space, mapping


def _parse_metric(rows: list, n: int) -> list[list[int | Fraction]]:
    """The metric's entries, an int as it is and a string parsed as a Fraction; equal entries share one value."""
    if all([isinstance(row, list) and len(row) == n for row in rows]):
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {int, str}:
            try:
                shared = {e: e if e.__class__ is int else parse_rational(e) for e in set(flat)}
                return [list(map(shared.__getitem__, row)) for row in rows]
            except InputError:
                pass  # the loop below names the first bad entry
    # The type is part of the key, so True and 1.0 never reuse the value parsed for 1.
    parsed: dict[tuple[type, object], int | Fraction] = {}
    metric: list[list[int | Fraction]] = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"metric row {i} must have {n} entries")
        values = []
        for j, entry in enumerate(row):
            try:
                value = parsed[type(entry), entry]
            except (KeyError, TypeError):  # TypeError: unhashable, so never a rational
                try:
                    value = parsed[type(entry), entry] = entry if entry.__class__ is int else parse_rational(entry)
                except InputError as exc:
                    raise InputError(f"metric entry ({i}, {j}): {exc}") from None
            values.append(value)
        metric.append(values)
    return metric


def load_space_file(path: str | Path) -> tuple[FiniteSpace, SelfMap | None]:
    """Load and validate a space-definition file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # a bare number over the interpreter's digit limit, which is not raised
        raise InputError(f"{path}: a JSON number exceeds the interpreter's limit of {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested deeper than the interpreter's recursion limit") from None
    return parse_space_data(data)


def space_to_dict(space: FiniteSpace, mapping: SelfMap | None = None) -> dict:
    """Render an instance in the space-definition format (round-trips exactly)."""
    def entry(v):
        return v.numerator if _is_rational(v) and v.denominator == 1 else str(v)

    out = {
        "points": list(space.points),
        "metric": [[entry(v) for v in row] for row in space.metric],
        "relation": [list(p) for p in space.sorted_relation],
    }
    if mapping is not None:
        out["map"] = list(mapping.images)
    return out
