"""`orthofix audit`: the randomized theorem audit against the brute-force oracle."""

import json

from ..oracle import GenParams, theorem_audit
from . import _emit_json, _rat_option


def run(trials, seed, max_points, density, map_attempts, dump_dir, as_json):
    params = GenParams(
        seed=seed,
        trials=trials,
        max_points=max_points,
        relation_density=_rat_option(density, "density"),
        map_attempts=map_attempts,
    )
    summary = theorem_audit(params)
    if dump_dir is not None and summary.failures:
        from pathlib import Path

        out = Path(dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        for failure in summary.failures:
            payload = dict(failure.space)
            payload["map"] = failure.map
            (out / f"failure_{failure.seed}.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    if as_json:
        _emit_json({"command": "audit", **summary.to_dict()})
    else:
        d = summary.to_dict()
        for key in ("trials_run", "conclusion_verified", "spaces_generated", "maps_tried",
                    "spaces_without_accepted_map", "traces_checked", "hierarchy_failures"):
            print(f"{key.replace('_', ' ')}: {d[key]}")
        for failure in summary.failures:
            print(f"FAILURE seed={failure.seed}: {failure.discrepancy}")
        print("audit: " + ("all conclusions verified" if summary.ok else "DISCREPANCIES FOUND"))
    return 0 if summary.ok else 1
