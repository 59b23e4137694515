"""`orthofix corpus`: the registered cases' assertions, or their list."""

from ..kinds import list_cases
from . import _emit_json


def run(case_name, list_only, as_json):
    if list_only:
        if as_json:
            _emit_json({"command": "corpus", "cases": [{"name": n, "summary": s} for n, s in list_cases()]})
        else:
            for name, summary in list_cases():
                print(f"{name}: {summary}")
        return 0
    from .. import corpus

    reports = [corpus.run_case(case_name)] if case_name else corpus.run_all()
    ok = all(r.ok for r in reports)
    if as_json:
        _emit_json({"command": "corpus", "ok": ok, "cases": [r.to_dict() for r in reports]})
    else:
        for rep in reports:
            print(f"== {rep.name}: {rep.title}")
            for a in rep.assertions:
                mark = "pass" if a.passed else "FAIL"
                print(f"  [{mark}] {a.name}: expected {a.expected}, actual {a.actual} [{a.provenance}]")
            for note in rep.annotations:
                print(f"  [analytic-only] {note.name}: {note.note}")
            print(f"  {sum(a.passed for a in rep.assertions)}/{len(rep.assertions)} assertions pass")
    return 0 if ok else 1
