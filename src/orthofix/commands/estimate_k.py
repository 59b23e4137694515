"""`orthofix estimate-k`: one kind's scan, its minimal constant and witness."""

from ..contraction import check_contraction
from . import _emit_json, _fmt_k, _labels, _load, _writable


def run(file, kind, symmetric, as_json):
    space, mapping = _load(file, need_map=True)
    rep = check_contraction(kind, space, mapping, symmetric=symmetric)
    _writable([(f"{kind} k", rep.minimal_k)])
    if as_json:
        _emit_json({"command": "estimate-k", "file": str(file), "kind": kind, "symmetric": symmetric, "report": rep.to_dict()})
    else:
        if rep.minimal_k is None:
            print(f"{kind}: infeasible, witness {_labels(space, rep.witness)} has zero denominator but moves")
        else:
            status = "admissible" if rep.admissible else "inadmissible"
            witness = f", witness {_labels(space, rep.witness)}" if rep.witness else ""
            print(f"{kind}: {status}, minimal k = {_fmt_k(rep.minimal_k)}{witness}")
    return 0 if rep.admissible else 1
