"""`orthofix classify`: the classification, a sequence check and an orbit."""

from ..relational import classify_orthogonality, is_ow_sequence, orbit
from . import _element_lines, _emit_json, _load


def run(file, seq, orbit_start, as_json):
    space, mapping = _load(file, need_map=orbit_start is not None)
    cls = classify_orthogonality(space)
    payload: dict = {"command": "classify", "file": str(file), "classification": cls.to_dict()}
    lines = [f"classification: {cls.verdict}", *_element_lines(space, cls)]
    ok = True
    if seq is not None:
        indices = [space.index_of(lbl.strip()) for lbl in seq.split(",")]
        check = is_ow_sequence(space, indices)
        payload["sequence"] = {"indices": indices, "ok": check.ok, "first_violation": check.first_violation}
        if check.ok:
            lines.append("sequence: weak orthogonal sequence")
        else:
            ok = False
            lines.append(f"sequence: adjacent pair at position {check.first_violation} is not orthogonally related")
    if orbit_start is not None:
        info = orbit(space, mapping, space.index_of(orbit_start))
        labelled = info._replace(prefix=[space.points[i] for i in info.prefix], cycle=[space.points[i] for i in info.cycle])
        payload["orbit"] = {"start": orbit_start, **labelled.to_dict()}
        lines.append(f"orbit from {orbit_start}: prefix [{' '.join(labelled.prefix)}] cycle [{' '.join(labelled.cycle)}]")
    if as_json:
        _emit_json(payload)
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1
