#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload in both modes on a dense space of 8 points, a ratio
chain of 8 points and audits of 5 trials, and checks that

* each run is correct and emits exactly the metrics BENCHMARK.json names,
  each with its unit;
* the pinned digests of the default-seed inputs still match;
* a deliberately corrupted report is counted as a failure, in `failed` and
  in the metadata's `failed_ratio`.

Exits with 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import inputs
import run

TINY = run.Sizes(dense_n=8, chain_n=8, audit_trials=5)
SEED = 3


def _corrupt_solve(real):
    def corrupted(args, deadline):
        outcome = real(args, deadline)
        if args[0] == "solve":
            outcome.out = outcome.out.replace('"certified": true', '"certified": false')
        return outcome

    return corrupted


def main() -> int:
    os.chdir(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    for workload in spec["workloads"]:
        name = workload["name"]
        if run.WORKLOADS[name].default_digest() != inputs.DEFAULT_DIGESTS[name]:
            problems.append(f"{name}: default-seed input no longer matches its pinned digest")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, meta = run.run(name, SEED, 1, trace, TINY)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {metric: value["unit"] for metric, value in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{name} trace={trace}: emitted {emitted}, expected {expected}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']}/{result['attempted']} failed: {meta['failures']}")
            print(f"{name} trace={trace}: {result['attempted']} checks, {result['failed']} failed", flush=True)

    real = run.run_cli
    run.run_cli = _corrupt_solve(real)
    try:
        result, meta = run.run("exact_wide", SEED, 1, 0, TINY)
    finally:
        run.run_cli = real
    if result["correct"] or result["failed"] < 1 or meta["failed_ratio"] != result["failed"] / result["attempted"]:
        problems.append(f"a corrupted solve report was not counted: {result}, failed_ratio={meta['failed_ratio']}")
    print(f"corrupted solve reports: {result['failed']}/{result['attempted']} failed", flush=True)

    for problem in problems:
        print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
