"""The result records are immutable NamedTuples.

Each record refuses attribute assignment, survives `pickle` (an
`AuditFailure` crosses the audit's pipe that way) and keeps the
`Name(field=...)` repr: the audit embeds a `Violation` repr in its
discrepancy strings.  A command that builds records loads no
`dataclasses`: only the audit's `GenParams`, which validates its fields on
construction, is a dataclass.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from orthofix import (
    ContractionKind,
    GenParams,
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
        "import orthofix.cli, orthofix.spacefile, orthofix.solver, orthofix.corpus\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'dataclasses' or m.startswith('orthofix'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "orthofix.corpus" in loaded and "orthofix.solver" in loaded
    assert "dataclasses" not in loaded
