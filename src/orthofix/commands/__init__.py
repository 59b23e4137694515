"""The commands' handlers, one module each, and the helpers they share.

`cli.main` imports one handler module, after parsing, and calls its `run`
with the parsed options; a handler prints its report and returns the exit
code.  No module here imports `orthofix.cli`: under `python -m orthofix.cli`
the running cli is `__main__`, and that import would run `cli.py` again.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from ..errors import InputError
from ..rational import _past_digit_limit, parse_rational

SCHEMA = 4


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True))


def _fmt_k(value) -> str:
    return "none" if value is None else str(value)


def _labels(space, pair) -> str:
    return "(" + ", ".join(space.points[i] for i in pair) + ")"


def _element_lines(space, cls) -> list[str]:
    """The weak and strong orthogonal elements of a classification, by label."""
    return [
        f"{kind} orthogonal elements: {{" + ", ".join(space.points[i] for i in sorted(elements)) + "}"
        for kind, elements in (("weak", cls.weak_elements), ("strong", cls.strong_elements))
    ]


def _load(path: str, need_map: bool):
    from ..spacefile import load_space_file

    space, mapping = load_space_file(path)
    if need_map and mapping is None:
        raise InputError(f"{path} has no 'map' entry, required by this command")
    return space, mapping


def _rat_option(value: str | None, name: str) -> Fraction | None:
    if value is None:
        return None
    try:
        return parse_rational(value)
    except InputError as exc:
        raise InputError(f"--{name}: {exc}") from None


def _writable(named_values) -> None:
    """Refuse a report before any of it is written if `str()` cannot write one of its (name, rational) pairs."""
    for what, value in named_values:
        if _past_digit_limit(value):
            limit = sys.get_int_max_str_digits()
            raise InputError(f"{what} has more digits than the interpreter's limit of {limit} for integer string conversion")
