import json
import sys
from fractions import Fraction

import pytest

from orthofix import InputError, load_space_file, parse_space_data, space_to_dict
from orthofix.corpus import five_point_example

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


def test_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        load_space_file("/nonexistent/nope.json")
