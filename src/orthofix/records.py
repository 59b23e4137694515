"""The JSON form of every result record, by one rule.

`to_dict(record)` is the `to_dict` of every record class but `PicardTrace`,
whose `to_dict(space)` builds on it.  A record is a NamedTuple, or an object
whose `vars()` are its fields (`GenParams`); its dict holds those fields,
then the properties its class names in `_json_extra`.  Values convert
recursively: a record or a dict the same way, an enum member to its value,
a tuple or list to a list, a frozenset to a sorted list, None, bool, int
and str as they are, and any other value, an exact scalar (a Fraction or a
QuadExt), to its `str()`.
"""

from __future__ import annotations

from enum import Enum

_AS_IS = frozenset([type(None), bool, int, str])


def to_dict(record) -> dict:
    """The JSON-ready dict of `record`: its fields, then the properties named in `_json_extra`."""
    fields = record._asdict() if isinstance(record, tuple) else vars(record)
    out = {name: _value(value) for name, value in fields.items()}
    for name in getattr(record, "_json_extra", ()):
        out[name] = _value(getattr(record, name))
    return out


def _value(value):
    cls = value.__class__
    if cls in _AS_IS:
        return value
    if cls is tuple or cls is list or isinstance(value, (tuple, list)) and not hasattr(cls, "to_dict"):
        return [_value(item) for item in value]  # a plain sequence; a NamedTuple record is a tuple too
    if isinstance(value, Enum):
        return value.value
    if hasattr(cls, "to_dict"):
        return to_dict(value)
    if isinstance(value, dict):
        return {key: _value(item) for key, item in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    return str(value)
