"""`orthofix verify`: every check on a space file, in one report."""

from ..contraction import hierarchy_check, hypothesis_check, preservation, reports
from ..kinds import ContractionKind
from ..relational import classify_orthogonality
from . import _element_lines, _emit_json, _fmt_k, _labels, _load, _writable


def run(file, as_json):
    space, mapping = _load(file, need_map=True)
    cls = classify_orthogonality(space)
    pres = preservation(space, mapping)
    # every report verify prints, in one pass; the checks below read them from the map
    *oriented, certified = reports(
        space, mapping, [(kind, False) for kind in ContractionKind] + [(ContractionKind.GENERALIZED_PERP, True)]
    )
    contractions = dict(zip(ContractionKind, oriented))
    verdicts = hierarchy_check(space, mapping)
    hyp = hypothesis_check(space, mapping)
    ok = hyp.all_hold and all(v.holds for v in verdicts)
    _writable([*((f"{kind.value} k", rep.minimal_k) for kind, rep in contractions.items()), ("certified k", certified.minimal_k)])

    if as_json:
        _emit_json(
            {
                "command": "verify",
                "file": str(file),
                "classification": cls.to_dict(),
                "preservation": pres.to_dict(),
                "contractions": {k.value: r.to_dict() for k, r in contractions.items()},
                "certified_generalized": certified.to_dict(),
                "hierarchy": [v.to_dict() for v in verdicts],
                "hypotheses": hyp.to_dict(),
                "ok": ok,
            }
        )
    else:
        print(f"metric: valid ({space.n} points, {len(space.sorted_relation)} relation pairs)")
        print(f"classification: {cls.verdict}")
        for line in _element_lines(space, cls):
            print(line)
        print(f"preserving: {str(pres.preserving).lower()}")
        for (i, j) in pres.violations:
            print(f"  preservation violated at {_labels(space, (i, j))}")
        for kind, rep in contractions.items():
            name = "generalized" if kind is ContractionKind.GENERALIZED_PERP else kind.value
            if rep.minimal_k is None:
                print(f"{name}: infeasible, witness {_labels(space, rep.witness)}")
                continue
            status = "admissible" if rep.admissible else "inadmissible"
            witness = f", witness {_labels(space, rep.witness)}" if rep.witness else ""
            print(f"{name} k = {_fmt_k(rep.minimal_k)} ({status}{witness})")
        print(f"certified generalized k (both orientations) = {_fmt_k(certified.minimal_k)}")
        for v in verdicts:
            mark = "holds" if v.holds else f"FAILS at {v.witness}"
            print(f"hierarchy {v.name}: {mark}")
        print(f"hypotheses: {'all hold' if hyp.all_hold else 'NOT satisfied'}")
    return 0 if ok else 1
