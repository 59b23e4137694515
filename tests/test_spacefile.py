import json
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from orthofix import InputError, PointRelation, load_space_file, parse_space_data, space_to_dict, spacefile
from orthofix.corpus import five_point_example
from orthofix.rational import parse_rational

FIVE_POINT = {
    "points": ["0", "1", "2", "3", "4"],
    "metric": [
        [0, 1, 2, 3, 4],
        [1, 0, 1, 2, 3],
        [2, 1, 0, 1, 2],
        [3, 2, 1, 0, 1],
        [4, 3, 2, 1, 0],
    ],
    "relation": [[0, 0], [1, 0], [0, 2], [3, 4], [3, 0], [4, 0]],
    "map": [0, 0, 1, 0, 2],
}


def test_parse_five_point():
    space, mapping = parse_space_data(FIVE_POINT)
    want, want_map = five_point_example()
    assert space.points == want.points
    assert space.metric == want.metric
    assert space.relation == want.relation
    assert mapping.images == want_map.images


def test_round_trip(five_point):
    space, mapping = five_point
    again, again_map = parse_space_data(space_to_dict(space, mapping))
    assert again.points == space.points
    assert again.metric == space.metric
    assert again.relation == space.relation
    assert again_map.images == mapping.images


def test_fractional_entries():
    data = {
        "points": ["a", "b"],
        "metric": [[0, "1/3"], ["1/3", 0]],
        "relation": [[0, 1]],
    }
    space, mapping = parse_space_data(data)
    assert space.d(0, 1) == Fraction(1, 3)
    assert mapping is None


def test_integral_entries_load_as_ints():
    # An all-int metric is its own integer form; a string, "3/1" included, loads as a Fraction.
    space, _ = parse_space_data(FIVE_POINT)
    assert all(type(v) is int for row in space.metric for v in row)
    assert space.int_metric is space.metric
    metric = [[0, 2, "3/1"], [2, 0, "3/2"], ["3", "3/2", 0]]
    mixed, _ = parse_space_data({"points": ["a", "b", "c"], "metric": metric, "relation": []})
    assert [[type(v) for v in row] for row in mixed.metric] == [[int, int, Fraction], [int, int, Fraction], [Fraction, Fraction, int]]
    assert mixed.metric == ((0, 2, 3), (2, 0, Fraction(3, 2)), (3, Fraction(3, 2), 0))
    assert mixed.int_metric == ((0, 4, 6), (4, 0, 3), (6, 3, 0))
    # Decoded data may hold Fraction objects: the entry loop keeps ints as they are and shares equal entries.
    metric = [[0, 2, Fraction(3)], [2, 0, Fraction(3, 2)], [Fraction(6, 2), Fraction(3, 2), 0]]
    objects, _ = parse_space_data({"points": ["a", "b", "c"], "metric": metric, "relation": []})
    assert [[type(v) for v in row] for row in objects.metric] == [[int, int, Fraction], [int, int, Fraction], [Fraction, Fraction, int]]
    assert objects.metric[2][0] is objects.metric[0][2] and objects.metric[2][1] is objects.metric[1][2]
    assert objects.int_metric == mixed.int_metric


def test_load_space_file(tmp_path):
    path = tmp_path / "five.json"
    path.write_text(json.dumps(FIVE_POINT), encoding="utf-8")
    space, mapping = load_space_file(path)
    assert space.n == 5 and mapping is not None


def _broken(**overrides):
    data = {k: (v.copy() if isinstance(v, list) else v) for k, v in FIVE_POINT.items()}
    data.update(overrides)
    return data


def test_zero_denominator_entry():
    bad = _broken(metric=[[0, "1/0", 2, 3, 4]] + FIVE_POINT["metric"][1:])
    with pytest.raises(InputError, match="zero denominator"):
        parse_space_data(bad)


def test_decimal_entry_rejected():
    bad = _broken(metric=[[0, "1.5", 2, 3, 4]] + FIVE_POINT["metric"][1:])
    with pytest.raises(InputError, match="malformed rational"):
        parse_space_data(bad)


@pytest.mark.parametrize("entry", [True, 1.0, [1], None])
def test_entry_equal_to_a_parsed_one_is_still_checked(entry):
    # Entries are parsed once per distinct value; (0, 1) = 1 is parsed before (1, 0), and
    # True == 1.0 == 1, so the type must be part of what makes a value distinct.
    rows = [list(row) for row in FIVE_POINT["metric"]]
    rows[1][0] = entry
    with pytest.raises(InputError, match=r"metric entry \(1, 0\)"):
        parse_space_data(_broken(metric=rows))


def test_map_index_out_of_range():
    with pytest.raises(InputError, match="out of range"):
        parse_space_data(_broken(map=[0, 0, 1, 0, 7]))


def test_unknown_key_rejected():
    with pytest.raises(InputError, match="unknown keys"):
        parse_space_data(_broken(extra=1))


def test_missing_key_rejected():
    data = _broken()
    del data["relation"]
    with pytest.raises(InputError, match="missing required key"):
        parse_space_data(data)


def test_ragged_matrix_rejected():
    bad = _broken(metric=[[0, 1], [1, 0]])
    with pytest.raises(InputError, match="rows"):
        parse_space_data(bad)


def test_metric_axioms_enforced_on_load():
    bad = _broken(metric=[
        [0, 1, 9, 3, 4],
        [1, 0, 1, 2, 3],
        [9, 1, 0, 1, 2],
        [3, 2, 1, 0, 1],
        [4, 3, 2, 1, 0],
    ])
    with pytest.raises(InputError, match="triangle"):
        parse_space_data(bad)


def test_relation_entry_shape():
    with pytest.raises(InputError, match="pair"):
        parse_space_data(_broken(relation=[[0, 1, 2]]))


@pytest.mark.parametrize("entry", ["01", 5])
def test_non_list_relation_entry_rejected(entry):
    # A string or number is not a pair; the message names the entry.
    with pytest.raises(InputError, match=rf"relation entry {entry!r} .*pair of indices"):
        parse_space_data(_broken(relation=[entry]))


def test_boolean_relation_entry_rejected():
    # JSON true/false would otherwise become the indices 1 and 0.
    with pytest.raises(InputError, match="pair of indices"):
        parse_space_data(_broken(relation=[[True, False]]))


def test_boolean_map_entry_rejected():
    with pytest.raises(InputError, match="not an index"):
        parse_space_data(_broken(map=[0, 0, True, 0, 2]))


def test_non_json_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        load_space_file(path)


def test_file_that_is_not_utf8(tmp_path):
    # The decode error is a ValueError, not an OSError, and escaped as a traceback.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"points": ["\xff"]}')
    with pytest.raises(InputError, match="cannot read .*latin1.json: 'utf-8' codec can't decode"):
        load_space_file(path)


def test_json_nested_past_the_recursion_limit(tmp_path):
    # `json.loads` raises RecursionError, which escaped as a traceback.
    path = tmp_path / "deep.json"
    depth = sys.getrecursionlimit() * 10
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    with pytest.raises(InputError, match="deep.json: JSON nested deeper than the interpreter's recursion limit"):
        load_space_file(path)


_OVER_LIMIT = sys.get_int_max_str_digits() + 1
_no_limit = pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="the interpreter has no digit limit")


@_no_limit
def test_metric_string_over_the_digit_limit_rejected():
    with pytest.raises(InputError, match=r"metric entry \(0, 1\): numeral exceeds the interpreter's limit of \d+ digits"):
        parse_space_data(_broken(metric=[[0, "1" * _OVER_LIMIT, 2, 3, 4]] + FIVE_POINT["metric"][1:]))


@_no_limit
def test_json_number_over_the_digit_limit_rejected(tmp_path):
    # `json.loads` raises a plain ValueError here, not a JSONDecodeError.
    path = tmp_path / "long.json"
    path.write_text('{"points": ["0", "1"], "metric": [[0, %s], [1, 0]], "relation": []}' % ("1" * _OVER_LIMIT), encoding="utf-8")
    with pytest.raises(InputError, match=f"long.json: a JSON number exceeds the interpreter's limit of {_OVER_LIMIT - 1} digits"):
        load_space_file(path)


def _rational_texts():
    """Metric strings near the "p/q" syntax: non-ASCII digits, `_` and `+`, blanks, zero denominators, long numerals."""
    blank = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u2003"])
    sign = st.sampled_from(["", "-", "+"])
    digits = st.one_of(
        st.text("0123456789", min_size=1, max_size=6),
        st.sampled_from(["0", "00", "\u0663", "\uff11", "1_0", "_1", "1" * _OVER_LIMIT, "0" * _OVER_LIMIT]),
    )
    denominator = st.one_of(st.just(""), st.builds("/{}{}{}{}".format, blank, sign, digits, blank))
    structured = st.builds("{}{}{}{}{}".format, blank, sign, digits, blank, denominator)
    pieces = st.sampled_from(["0", "7", "-", "+", "_", "/", " ", "\n", "\u2003", "\u0663", ".", "e"])
    return st.one_of(structured, st.lists(pieces, max_size=8).map("".join))


@given(_rational_texts())
def test_metric_fast_path_parses_as_parse_rational(text):
    try:
        expected = parse_rational(text)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            spacefile._parse_metric([[text]], 1)
        assert str(raised.value) == f"metric entry (0, 0): {exc}"
    else:
        with mock.patch.object(spacefile, "parse_rational", side_effect=AssertionError("not on the fast path")):
            ((value,),) = spacefile._parse_metric([[text]], 1)
        assert value == expected and type(value) is Fraction


def test_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        load_space_file("/nonexistent/nope.json")


# One space whose every relation pair and metric entry is valid; a table plants one bad entry in it.
_N = 6
_VALID = {
    "points": [str(i) for i in range(_N)],
    "metric": [[abs(i - j) for j in range(_N)] for i in range(_N)],
    "relation": [[i, j] for i in range(_N) for j in range(_N)],
}
_PLACES = {"first": 0, "middle": _N * _N // 2, "last": _N * _N - 1}

# each rule a relation entry can break, with the message it has always raised
_BAD_PAIRS = {
    "not a pair": (5, "relation entry 5 is not an index pair; expected a pair of indices"),
    "three items": ([0, 1, 2], "relation entry [0, 1, 2] is not an index pair; expected a pair of indices"),
    "a bool": ([True, 0], "relation entry [True, 0] is not an index pair; expected a pair of indices"),
    "a float": ([0, 1.0], "relation entry [0, 1.0] is not an index pair; expected a pair of indices"),
    "a string index": (["0", 1], "relation entry ['0', 1] is not an index pair; expected a pair of indices"),
    "negative": ([-1, 0], "relation pair (-1, 0) out of range for 6 points"),
    "n or more": ([0, _N], "relation pair (0, 6) out of range for 6 points"),
}

# each rule a metric entry can break, with the message it has always raised after "metric entry (i, j): "
_BAD_ENTRIES = {
    "a bool": (True, "expected integer or 'p/q' string, got True"),
    "a float": (1.5, "expected integer or 'p/q' string, got 1.5"),
    "a list": ([1], "expected integer or 'p/q' string, got [1]"),
    "a decimal": ("1.5", "malformed rational '1.5' (use an integer or 'p/q')"),
    "a word": ("one", "malformed rational 'one' (use an integer or 'p/q')"),
    "a zero denominator": ("1/0", "zero denominator in rational '1/0'"),
}


def _planted(key, place, bad, later):
    """`_VALID` with `bad` at `place` among the row-major entries of `key`, and `later`, another bad entry, last."""
    data = json.loads(json.dumps(_VALID))
    pos = _PLACES[place]
    for at, value in [(_N * _N - 1, later), (pos, bad)]:
        if key == "relation":
            data["relation"][at] = value
        else:
            data["metric"][at // _N][at % _N] = value
    return data, divmod(pos, _N)


@pytest.mark.parametrize("place", sorted(_PLACES))
@pytest.mark.parametrize("rule", sorted(_BAD_PAIRS))
def test_bad_relation_entry_is_named_as_it_always_was(rule, place):
    bad, message = _BAD_PAIRS[rule]
    data, _ = _planted("relation", place, bad, later=[_N, _N])
    with pytest.raises(InputError) as raised:
        parse_space_data(data)
    assert str(raised.value) == message
    with pytest.raises(InputError) as raised:
        PointRelation(data["points"], iter(data["relation"]))
    assert str(raised.value) == message


@pytest.mark.parametrize("place", sorted(_PLACES))
@pytest.mark.parametrize("rule", sorted(_BAD_ENTRIES))
def test_bad_metric_entry_is_named_as_it_always_was(rule, place):
    bad, message = _BAD_ENTRIES[rule]
    data, (i, j) = _planted("metric", place, bad, later="bad")
    with pytest.raises(InputError) as raised:
        parse_space_data(data)
    assert str(raised.value) == f"metric entry ({i}, {j}): {message}"
