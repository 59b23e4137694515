"""The result records are immutable `collections.namedtuple` subclasses
(`__slots__ = ()`) with a pinned JSON form.

`EXPECTED_DICTS` writes out the `to_dict()` of every record `_records()`
builds, derived keys included, so a change to any report's JSON shows here.
Each record refuses attribute assignment, survives `pickle` and keeps
the `Name(field=...)` repr: the audit embeds a `Violation` repr in its
discrepancy strings.  A command that builds records loads no
`dataclasses` (nor `inspect`, which it imports): the audit's `GenParams`
is a namedtuple subclass too, whose constructor, `_make` and `_replace`
check every field.
"""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orthofix import (
    ContractionKind,
    GenParams,
    InputError,
    PicardTrace,
    check_contraction,
    classify_orthogonality,
    hierarchy_check,
    hypothesis_check,
    is_ow_preserving,
    orbit,
    picard_solve,
    theorem_audit,
    validate_metric,
)
from orthofix.corpus import five_point_example, run_case
from orthofix.oracle import AuditFailure
from orthofix.records import to_dict
from orthofix.space import Violation
from orthofix.spacefile import space_to_dict

SRC = Path(__file__).resolve().parent.parent / "src"


def _records():
    space, mapping = five_point_example()
    summary = theorem_audit(GenParams(seed=1, trials=2))
    case = run_case("orbit-space")
    return [
        Violation("triangle", (0, 1, 2), ("3", "1", "1")),
        validate_metric(space),
        classify_orthogonality(space),
        is_ow_preserving(space, mapping),
        orbit(space, mapping, 4),
        check_contraction(ContractionKind.GENERALIZED_PERP, space, mapping, symmetric=True),
        hierarchy_check(space, mapping)[0],
        picard_solve(space, mapping, 0),
        hypothesis_check(space, mapping),
        AuditFailure(seed=7, space=space_to_dict(space), map=list(mapping.images), discrepancy="planted"),
        summary,
        case,
        case.assertions[0],
        case.annotations[0],
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record in RECORDS]


def _assertion(name, value, provenance):
    return {"name": name, "expected": value, "actual": value, "passed": True, "provenance": provenance}


_FIRST_ASSERTION = _assertion("1 is a strong orthogonal element", "true", "stated")
_FIRST_ANNOTATION = {
    "name": "the positive reals with this relation are not orthogonally complete",
    "note": "witnessed by the reciprocal sequence converging to 0 outside the space; unbounded, analytic-only",
}

# the JSON form of each record of `_records()`, written out; compared as JSON text, so that
# a bool cannot pass for an int, nor an int for the string of its digits
EXPECTED_DICTS = {
    "Violation": {"axiom": "triangle", "witness": [0, 1, 2], "values": ["3", "1", "1"]},
    "ValidationReport": {"ok": True, "violations": []},
    "OrthoClassification": {"strong_elements": [], "weak_elements": [0], "verdict": "O_w-set-only"},
    "PreservationReport": {"preserving": True, "violations": []},
    "OrbitInfo": {"prefix": [4, 2, 1], "cycle": [0], "enters_fixed_point": True},
    "ContractionReport": {
        "minimal_k": "2/3", "witness": [4, 3], "admissible": True,
    },
    "HierarchyVerdict": {"name": "integer-form-exact", "holds": True, "witness": None},
    "PicardTrace": {
        "iterates": [0], "step_distances": [], "k": "2/3", "apriori_bounds": ["0"], "converged": True,
        "fixed_point": 0, "certified": True, "stop_reason": "fixed_point", "applications": 0,
    },
    "HypothesisReport": {
        "has_weak_element": True, "preserving": True, "minimal_k": "2/3", "all_hold": True,
    },
    "AuditFailure": {
        "seed": 7,
        "space": {
            "points": ["0", "1", "2", "3", "4"],
            "metric": [[abs(i - j) for j in range(5)] for i in range(5)],
            "relation": [[0, 0], [0, 2], [1, 0], [3, 0], [3, 4], [4, 0]],
        },
        "map": [0, 0, 1, 0, 2],
        "discrepancy": "planted",
    },
    "AuditSummary": {
        "params": {"seed": 1, "trials": 2, "max_points": 8, "relation_density": "1/4", "map_attempts": 64},
        "trials_run": 2, "conclusion_verified": 2, "failures": [], "spaces_generated": 2,
        "maps_tried": 3, "spaces_without_accepted_map": 0, "hierarchy_failures": 0,
        "traces_checked": 3, "ok": True,
    },
    "CaseReport": {
        "name": "orbit-space",
        "title": "orbit structure on a positive-reals sample, cycle of length two",
        "ok": True,
        "assertions": [
            _FIRST_ASSERTION,
            _assertion("strong orthogonal elements", "{0, 1, 2}", "derived"),
            _assertion("classification", "O-set", "derived"),
            _assertion("orbit from 1/2 (values)", "(('1/2',), ('2', '1/3'))", "stated"),
            _assertion("orbit from 1/2 enters a fixed point", "False", "derived"),
            _assertion("orbit from 1", "((), (2,))", "stated"),
            _assertion("orbit from 1 enters a fixed point", "true", "trivial"),
            _assertion("fixed points (brute force)", "{2}", "derived"),
            _assertion("hierarchy implication failures", "[]", "derived"),
        ],
        "annotations": [
            _FIRST_ANNOTATION,
            {
                "name": "the map is not orthogonally continuous on the full space",
                "note": "witnessed by a sequence increasing to 1 whose images stay at 2; analytic-only",
            },
        ],
    },
    "Assertion": _FIRST_ASSERTION,
    "Annotation": _FIRST_ANNOTATION,
}


def test_every_record_class_is_covered():
    assert sorted(IDS) == sorted(
        [
            "Violation", "ValidationReport",
            "OrthoClassification", "PreservationReport", "OrbitInfo",
            "ContractionReport", "HierarchyVerdict",
            "PicardTrace", "HypothesisReport",
            "AuditFailure", "AuditSummary",
            "CaseReport", "Assertion", "Annotation",
        ]
    )


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_json_form_is_pinned(record):
    expected = EXPECTED_DICTS[type(record).__name__]
    assert json.dumps(record.to_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_refuses_assignment(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_pickles(record):
    copy = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is type(record)
    assert copy == record
    assert copy.to_dict() == record.to_dict()


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_repr_names_each_field(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_record_modules_load_no_dataclasses():
    script = (
        "import json, sys\n"
        "import orthofix.cli, orthofix.spacefile, orthofix.solver, orthofix.corpus, orthofix.oracle\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in ('dataclasses', 'inspect') or m.startswith('orthofix'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "orthofix.corpus" in loaded and "orthofix.solver" in loaded and "orthofix.oracle" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("seed", 1.5), ("trials", True), ("trials", -1), ("max_points", 1), ("max_points", 33), ("map_attempts", 0),
        ("relation_density", 0.25), ("relation_density", Fraction(3, 2)),
    ],
)
def test_params_check_every_way_in(name, value):
    # the constructor (which unpickling calls), `_make` and `_replace` (which calls `_make`) all check the field
    fields = dict(GenParams()._asdict(), **{name: value})
    with pytest.raises(InputError):
        GenParams(**{name: value})
    with pytest.raises(InputError):
        GenParams()._replace(**{name: value})
    with pytest.raises(InputError):
        GenParams._make(fields.values())


def test_params_convert_and_pickle():
    params = GenParams(seed=3, relation_density=1)
    assert type(params.relation_density) is Fraction
    assert params._replace(relation_density=Fraction(1, 2)).relation_density == Fraction(1, 2)
    copy = pickle.loads(pickle.dumps(params, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is GenParams and copy == params and copy.to_dict() == params.to_dict()


def test_every_record_encodes_by_the_one_rule():
    # `PicardTrace` too: `solve` labels its trace's points before encoding it, as `classify` labels its orbit
    import orthofix

    exported = {getattr(orthofix, name) for name in orthofix.__all__}
    classes = {cls for cls in exported if isinstance(cls, type) and hasattr(cls, "to_dict")}
    classes |= {type(record) for record in RECORDS} | {GenParams}
    assert PicardTrace in classes and len(classes) == 15
    assert all(cls.to_dict is to_dict for cls in classes), sorted(c.__name__ for c in classes if c.to_dict is not to_dict)


def test_value_domain_report_encodes_its_quadext_scalars_as_text():
    # a value-domain scan's constant and witness are QuadExt numbers: each is written with `str()`
    from orthofix import scan_value_pairs
    from orthofix.corpus import rational_product_sample

    _, values, dist, _, apply_map = rational_product_sample()
    pairs = [(x, y) for x in values for y in values]
    report = scan_value_pairs(ContractionKind.UNRESTRICTED_LIPSCHITZ, pairs, dist, apply_map)
    assert json.loads(json.dumps(report.to_dict())) == {
        "minimal_k": "(1/3)*sqrt(11)", "witness": ["1", "1 + (1/11)*sqrt(11)"], "admissible": False,
    }
