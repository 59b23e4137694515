"""No input reaches the user as a traceback.

Hypothesis mutates the five-point space file (its entries, its shapes, the
types of its values, long and non-ASCII numerals) and the command line's
rational and integer options.  Every run must end in one of three ways:

* exit 0 or 1 with a report on stdout and nothing on stderr;
* exit 2 with one `input error:` line and nothing on stdout;
* exit 2 with argparse's usage and its `error:` line, and nothing on stdout.

Counts that ask for work (`--trials`, `--max-iter`) are drawn small when
they are valid: a valid count of a million trials is a long run, not a
fault.  Numerals past the interpreter's digit limit are drawn for them too,
and so are numerals `int()` would take but an integer option refuses:
other scripts' digits, underscores, blanks and a leading "+".
"""

import json
import re
import sys

from hypothesis import given, settings, strategies as st

from orthofix.cli import main
from cli_runner import CliRunner

FIVE_POINT = {
    "points": ["0", "1", "2", "3", "4"],
    "metric": [[abs(i - j) for j in range(5)] for i in range(5)],
    "relation": [[0, 0], [0, 2], [1, 0], [3, 0], [3, 4], [4, 0]],
    "map": [0, 0, 1, 0, 2],
}
LIMIT = sys.get_int_max_str_digits() or 4300
BARE = "@bare@"  # a string entry that starts with this is written into the file as a bare JSON number

_digits = st.integers(0, 12).map(lambda n: "1" + "0" * n) | st.integers(LIMIT - 2, LIMIT + 2).map(lambda n: "7" * n)
_numerals = st.one_of(
    st.integers(-3, 12).map(str),
    st.builds("{}/{}".format, st.integers(-3, 12), st.integers(-2, 12)),
    _digits,
    st.builds("1/{}".format, _digits),
    st.sampled_from(["٣", "３", "1٣", "²", "①", "1/٣", "0.5", "1e3", " 2 ", "-0", "+1", "1/", "/2", "", " "]),
    st.text(max_size=4),
)
_values = st.one_of(
    _numerals,
    st.integers(-3, 12),
    _digits.map(lambda d: BARE + d),
    st.sampled_from([True, False, None, 0.5, 1e400, -1e400, [], {}, [0, 1], [0, 1, 2], {"0": 1}]),
)
_mutation = st.tuples(st.sampled_from(["metric", "entry", "row", "relation", "map", "points", "key"]), st.integers(0, 6), st.integers(0, 6), _values)


def _mutate(data: dict, mutations) -> None:
    """Apply each (where, i, j, value): set, add or drop an entry, a row or a key of the space definition."""
    for where, i, j, value in mutations:
        if where == "key":
            key = ["points", "metric", "relation", "map", "extra"][i % 5]
            if j == 6:
                data.pop(key, None)
            else:
                data[key] = value
            continue
        entries = data.get("metric" if where in ("entry", "row") else where)
        if not isinstance(entries, list) or not entries:
            continue
        at = i % len(entries)
        target = entries[at]
        if where == "row":
            if j % 2:
                entries.append(value)
            else:
                del entries[at]
        elif where == "entry" and isinstance(target, list):
            if j % 2:
                target.append(value)
            elif target:
                target.pop()
        elif where in ("metric", "relation") and isinstance(target, list) and target:
            target[j % len(target)] = value
        elif j == 6:
            del entries[at]
        else:
            entries[at] = value


def _unquote_bare(text: str) -> str:
    """The JSON text with each BARE-marked string written as the bare number it carries."""
    out, start = [], 0
    marker = f'"{BARE}'
    while (at := text.find(marker, start)) >= 0:
        end = text.index('"', at + len(marker))
        out += [text[start:at], text[at + len(marker):end]]
        start = end + 1
    return "".join(out) + text[start:]


_file_commands = st.sampled_from(
    [
        ["verify"],
        ["verify", "--json"],
        ["classify", "--orbit", "4"],
        ["estimate-k", "--kind", "generalized_perp"],
        ["estimate-k", "--kind", "kannan", "--symmetric", "--json"],
        ["solve", "--start", "0"],
        ["solve", "--start", "0", "--json"],
    ]
)
_counts = st.one_of(
    st.integers(-2, 3).map(str),
    st.integers(LIMIT + 1, LIMIT + 2).map(lambda n: "9" * n),
    st.sampled_from(["٣", "３", "-٣", "1_0", "1_2", "٣_٣", " 2", "2 ", "+1", "2\n"]),
    _numerals.filter(lambda text: not re.fullmatch("-?[0-9]+", text)),  # a valid count is drawn small above
)
_option = st.one_of(
    st.tuples(st.sampled_from(["--k", "--eps"]), _numerals),
    st.tuples(st.just("--max-iter"), _counts),
)


def _check(result, args) -> None:
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    if result.exit_code in (0, 1):
        assert result.stdout and not result.stderr, (args, result.output)
        return
    assert result.exit_code == 2 and result.stdout == "", (args, result.output)
    lines = result.stderr.splitlines()
    usage = lines[0].startswith("usage: orthofix") and lines[-1].startswith("orthofix") and ": error: " in lines[-1]
    assert usage or (result.stderr.startswith("input error: ") and len(lines) == 1), (args, result.stderr)


@settings(max_examples=150)
@given(mutations=st.lists(_mutation, max_size=3), command=_file_commands, options=st.lists(_option, max_size=2))
def test_mutated_space_files_and_options_never_escape(tmp_path_factory, mutations, command, options):
    data = json.loads(json.dumps(FIVE_POINT))
    _mutate(data, mutations)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(_unquote_bare(json.dumps(data, ensure_ascii=False)), encoding="utf-8")
    if command[0] != "solve":
        options = []
    args = [*command, *(part for option in options for part in option), str(path)]
    _check(CliRunner().invoke(main, args), args)


@settings(max_examples=40)
@given(trials=_counts, max_points=_numerals, density=_numerals, seed=_counts)
def test_audit_options_never_escape(trials, max_points, density, seed):
    args = ["audit", "--trials", trials, "--max-points", max_points, "--density", density, "--seed", seed, "--json"]
    _check(CliRunner().invoke(main, args), args)
