#!/usr/bin/env python3
"""Seeded benchmark of the orthofix command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify_dense --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

    verify_dense  `verify --json` on a dense shortest-path space, n = 128
    audit         `audit --trials 500 --seed <s> --json`, a new seed per round
    exact_wide    `verify --json` and `solve --start 0 --json` on a ratio-chain
                  line metric (n = 64, rescaled entries beyond 2^61), then
                  `corpus --json`

`--trace 0` is a closed loop with one client: each command runs as users
run it, `python -m orthofix.cli` with PYTHONPATH=src, one subprocess at a
time, and its output is checked.  It reports the end-to-end metrics:

    setup_s        median wall time of a bare start (`corpus --list`)
    round_p50_ref  median time of one round, each command's wall time taken
                   in units of a fixed reference task timed next to it
                   (REFERENCE_TASK below); the wall-time median, round_p50_s,
                   is in the metadata
    peak_rss_mb    the largest resident set of any command
`--trace 1` runs the same round in process, alternately untraced and with
spans around the public calls of every layer (see tracing.py), and reports
the per-layer metrics.

The last line of standard output is the result object; the line before it
holds the run's metadata.  Both are also written to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
from tracing import COUNT_NAMES, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
OUT = ROOT / "perfbench" / "_out"
ENV = dict(os.environ, PYTHONPATH="src")
HARD_LIMIT_S = 165.0  # every run, with its set-up, ends within 180 s
SETUP_PROBES = 15
ENGINE_CHECK_INSTANCES = 25

# A fixed exact-arithmetic task, run in a fresh interpreter after every
# command.  It never touches orthofix, so its wall time tracks only the speed
# of the machine, which on a shared host drifts by tens of percent over tens
# of seconds.  Dividing each command's wall time by the mean of the reference
# times just before and after it cancels that drift.  After a long command the
# task is repeated until it has run for REFERENCE_SHARE of the command's time,
# so that the reference's own noise stays small next to the command's.
REFERENCE_SHARE = 0.1
REFERENCE_TASK = """
from fractions import Fraction
values = [Fraction(i * 7919 % 101, 1 + i % 13) for i in range(56)]
count = 0
for a in values:
    for b in values:
        total = a + b
        for c in values[::2]:
            count += total > c
"""


@dataclass(frozen=True)
class Sizes:
    dense_n: int = inputs.DENSE_N
    chain_n: int = inputs.CHAIN_N
    audit_trials: int = inputs.AUDIT_TRIALS


FULL = Sizes()


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


class RoundFailed(Exception):
    """A traced run cannot go on; no result is printed."""


class Tally:
    """Commands and checks attempted, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# running the command line
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    code: int
    out: str
    rss_mb: float


def _timed(argv: list[str], deadline: float, stdout) -> tuple[float, int, object]:
    """Run a subprocess to its end, timed from spawn to reaping; killed at `deadline`."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    return seconds, proc.returncode, usage


def run_cli(args: list[str], deadline: float) -> Outcome:
    """One `python -m orthofix.cli` subprocess."""
    with tempfile.TemporaryFile(dir=WORK) as out_f:
        seconds, code, usage = _timed([sys.executable, "-m", "orthofix.cli", *args], deadline, out_f)
        out_f.seek(0)
        out = out_f.read().decode("utf-8", "replace")
    return Outcome(seconds, code, out, usage.ru_maxrss / 1024)


def run_references(at_least_s: float, deadline: float) -> list[float]:
    """Wall times of REFERENCE_TASK in an isolated interpreter, run at least
    once and until they add up to `at_least_s`."""
    times: list[float] = []
    while not times or sum(times) < at_least_s:
        seconds, code, _ = _timed([sys.executable, "-I", "-c", REFERENCE_TASK], deadline, subprocess.DEVNULL)
        if code != 0:
            raise SetupError(f"the reference task exited with {code}")
        times.append(seconds)
    return times


def run_cli_in_process(args: list[str]) -> tuple[int, str]:
    """Invoke the command line's entry point in this process; returns (exit code, stdout)."""
    from orthofix import cli

    out = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main.main(args=args, prog_name="orthofix", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash, which a subprocess would report as exit code 1
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def _report(code: int, out: str, allowed_codes=(0,)) -> dict:
    if code not in allowed_codes:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SpaceFileWorkload:
    """A workload whose commands read one generated space file."""

    def _write(self, work: Path, label: str, space: dict) -> None:
        data = inputs.encode(space)
        (work / f"{label}.json").write_bytes(data)
        self.path = str((work / f"{label}.json").relative_to(ROOT))
        self.digests = {label: inputs.digest(data)}

    def spaces(self):
        """The (space, map) pairs the traced run checks the engines on."""
        from orthofix.spacefile import load_space_file

        return [load_space_file(ROOT / self.path)]


class VerifyDense(SpaceFileWorkload):
    """`verify` where metric validation over n^3 triples dominates."""

    name = "verify_dense"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        space = inputs.dense_space(seed, sizes.dense_n)
        self._write(work, "dense", space)
        self.info = {"n": sizes.dense_n, "relation_pairs": len(space["relation"])}
        self.expected = _classify(space)

    @staticmethod
    def default_digest() -> str:
        return inputs.digest(inputs.encode(inputs.dense_space(inputs.DEFAULT_SEED)))

    def commands(self, round_index: int) -> list[tuple[str, list[str]]]:
        return [("verify", ["verify", "--json", self.path])]

    def check(self, kind: str, code: int, out: str) -> None:
        report = _report(code, out, allowed_codes=(0, 1))
        _expect(report["ok"] == (code == 0), f"exit code {code} disagrees with ok={report['ok']}")
        classification, preservation = self.expected
        _expect(report["classification"] == classification, "classification differs from the recomputation")
        _expect(report["preservation"] == preservation, "preservation differs from the recomputation")
        hyp = report["hypotheses"]
        _expect(hyp["has_weak_element"] == bool(classification["weak_elements"]), "has_weak_element is wrong")
        _expect(hyp["preserving"] == preservation["preserving"], "hypotheses.preserving is wrong")
        _expect(not hyp["all_hold"] or (hyp["has_weak_element"] and hyp["preserving"]), "all_hold without its premises")
        _expect(all(v["holds"] for v in report["hierarchy"]), "a hierarchy implication fails")


class ExactWide(SpaceFileWorkload):
    """`verify`, certified `solve` and `corpus` on entries beyond the int64 guard."""

    name = "exact_wide"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        space = inputs.chain_space(seed, sizes.chain_n)
        self._write(work, "chain", space)
        self.n = sizes.chain_n
        self.info = {"n": self.n, "scaled_bits": inputs.scaled_bits(space)}

    @staticmethod
    def default_digest() -> str:
        return inputs.digest(inputs.encode(inputs.chain_space(inputs.DEFAULT_SEED)))

    def commands(self, round_index: int) -> list[tuple[str, list[str]]]:
        return [
            ("verify", ["verify", "--json", self.path]),
            ("solve", ["solve", "--start", "0", "--json", self.path]),
            ("corpus", ["corpus", "--json"]),
        ]

    def check(self, kind: str, code: int, out: str) -> None:
        report = _report(code, out)
        if kind == "verify":
            _expect(report["ok"] is True and report["hypotheses"]["all_hold"] is True, "hypotheses should hold")
        elif kind == "solve":
            trace = report["trace"]
            last = str(self.n - 1)
            _expect(trace["certified"] is True, "trace is not certified")
            _expect(trace["converged"] is True and trace["fixed_point"] == last, f"did not converge at {last}")
            _expect(trace["iterates"] == [str(i) for i in range(self.n)], "iterates are not 0, 1, ..., n-1")
            _expect(trace["applications"] == self.n - 1, f"{trace['applications']} applications")
            _expect(Fraction(trace["k"]) <= Fraction(1, 2), f"certified k = {trace['k']} exceeds 1/2")
        else:
            _expect(report["ok"] is True, "corpus reports a failed assertion")


class Audit:
    """The randomized theorem audit: thousands of tiny instances filtered by map."""

    name = "audit"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.trials = sizes.audit_trials
        self.digests = {"audit_seeds": inputs.audit_digest(seed)}
        self.info = {"trials": self.trials}

    @staticmethod
    def default_digest() -> str:
        return inputs.audit_digest(inputs.DEFAULT_SEED)

    def round_seed(self, round_index: int) -> int:
        return inputs.audit_seeds(self.seed, round_index + 1)[round_index]

    def commands(self, round_index: int) -> list[tuple[str, list[str]]]:
        seed = str(self.round_seed(round_index))
        return [("audit", ["audit", "--trials", str(self.trials), "--seed", seed, "--json"])]

    def check(self, kind: str, code: int, out: str) -> None:
        report = _report(code, out)
        _expect(report["ok"] is True, "audit reports ok=false")
        _expect(report["trials_run"] == self.trials, f"trials_run = {report['trials_run']}")
        _expect(report["conclusion_verified"] == report["trials_run"], "not every trial was verified")
        _expect(report["failures"] == [] and report["hierarchy_failures"] == 0, "audit failures reported")

    def replay(self, round_index: int) -> dict:
        """theorem_audit's seed stream through the public generators, and the
        calls the audit makes on each accepted instance."""
        from orthofix import contraction, oracle, relational, solver, space as space_mod

        params = oracle.GenParams(seed=self.round_seed(round_index), trials=self.trials)
        master = random.Random(params.seed)
        trials_run = spaces_generated = 0
        instances = []
        while trials_run < params.trials:
            rng = random.Random(master.getrandbits(64))
            space = oracle.generate_space(params, rng)
            spaces_generated += 1
            mapping = oracle.generate_map(params, space, rng)
            if mapping is None:
                continue
            trials_run += 1
            instances.append((space, mapping))
            space_mod.validate_metric(space)
            hyp = solver.hypothesis_check(space, mapping)
            for w in sorted(relational.weak_orthogonal_elements(space)):
                solver.picard_solve(space, mapping, w, k=hyp.minimal_k)
            contraction.hierarchy_check(space, mapping)
        return {"trials_run": trials_run, "spaces_generated": spaces_generated, "instances": instances}


WORKLOADS = {w.name: w for w in (VerifyDense, Audit, ExactWide)}


def _classify(space: dict) -> tuple[dict, dict]:
    """Classification and preservation, recomputed from the raw input."""
    n = len(space["points"])
    stored = {tuple(p) for p in space["relation"]}
    related = stored | {(j, i) for (i, j) in stored}
    weak = [x for x in range(n) if all((x, y) in related for y in range(n))]
    strong = [
        x for x in range(n)
        if all((x, y) in stored for y in range(n)) or all((y, x) in stored for y in range(n))
    ]
    verdict = "O-set" if strong else ("O_w-set-only" if weak else "neither")
    images = space["map"]
    seen = set()
    violations = []
    for i, j in sorted(stored):
        if frozenset((i, j)) in seen:
            continue
        seen.add(frozenset((i, j)))
        if (images[i], images[j]) not in related:
            violations.append([i, j])
    classification = {"strong_elements": strong, "weak_elements": weak, "verdict": verdict}
    return classification, {"preserving": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _check(workload, tally: Tally, what: str, kind: str, code: int, out: str) -> bool:
    try:
        workload.check(kind, code, out)
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        tally.record(what, f"{type(exc).__name__}: {exc}")
        return False
    tally.record(what, None)
    return True


def _keep_going(started: float, seconds: float, samples: list[float], deadline: float) -> bool:
    if not samples:
        return True
    elapsed = time.perf_counter() - started
    typical = statistics.median(samples)
    return elapsed + typical <= seconds and time.monotonic() + 2 * typical < deadline


def measure_end_to_end(workload, seconds: float, deadline: float, tally: Tally) -> tuple[dict, dict]:
    run_cli(["corpus", "--list"], deadline)  # the first start writes bytecode; users pay that once
    probes: list[float] = []

    def probe_setup(up_to: int) -> None:
        while len(probes) < up_to:
            probe = run_cli(["corpus", "--list"], deadline)
            tally.record("setup probe", None if probe.code == 0 and probe.out else f"exit code {probe.code}")
            probes.append(probe.seconds)

    rounds: list[float] = []  # wall seconds of each round's commands
    rounds_ref: list[float] = []  # the same, each command in units of its reference
    round_walls: list[float] = []  # whole rounds, with references and checks
    per_kind: dict[str, list[float]] = {}
    rss = []
    verified = 0
    before = run_references(0, deadline)
    references = list(before)
    started = time.perf_counter()
    while _keep_going(started, seconds, round_walls, deadline):
        # Spread the set-up probes over the run, so that they see the same
        # machine as the rounds do.
        probe_setup(1 + int(SETUP_PROBES * (time.perf_counter() - started) / seconds))
        round_start = time.perf_counter()
        round_s = round_ref = 0.0
        for kind, args in workload.commands(len(rounds)):
            outcome = run_cli(args, deadline)
            after = run_references(REFERENCE_SHARE * outcome.seconds, deadline)
            references += after
            round_s += outcome.seconds
            round_ref += outcome.seconds / statistics.mean(before + after)
            before = after
            per_kind.setdefault(kind, []).append(outcome.seconds)
            rss.append(outcome.rss_mb)
            passed = _check(workload, tally, f"round {len(rounds)} {kind}", kind, outcome.code, outcome.out)
            if kind == "audit" and passed:
                verified += json.loads(outcome.out)["conclusion_verified"]
        rounds.append(round_s)
        rounds_ref.append(round_ref)
        round_walls.append(time.perf_counter() - round_start)
    probe_setup(SETUP_PROBES)

    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "round_p50_ref": (statistics.median(rounds_ref), "ref"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    details = {
        "round_samples": len(rounds),
        "round_p50_s": statistics.median(rounds),
        "reference_p50_s": statistics.median(references),
        "rounds_s": rounds,
        "rounds_ref": rounds_ref,
        "setup_probes_s": probes,
        "setup_samples": len(probes),
        "command_p50_s": {kind: statistics.median(v) for kind, v in per_kind.items()},
        "command_samples": {kind: len(v) for kind, v in per_kind.items()},
    }
    if "audit" in per_kind:
        details["audit_trials_per_s"] = verified / sum(per_kind["audit"])
    return metrics, details


def _engines_agree(space, mapping) -> str | None:
    from orthofix.contraction import ContractionKind, check_contraction

    for kind in ContractionKind:
        for symmetric in (False, True):
            scaled = check_contraction(kind, space, mapping, symmetric=symmetric, engine="scaled")
            generic = check_contraction(kind, space, mapping, symmetric=symmetric, engine="generic")
            if scaled != generic:
                return f"scaled and generic engines disagree on {kind.value} (symmetric={symmetric})"
    return None


def measure_traced(workload, seconds: float, deadline: float, tally: Tally) -> tuple[dict, dict, list]:
    _import_path()
    import orthofix.cli  # noqa: F401  (loads every module the wrappers patch)

    oracle_counts = {"maps_tried": 0, "acceptance": 0.0, "exhausted_ratio": 0.0}
    if isinstance(workload, Audit):
        # The counts the public generators do not return come from the CLI's report.
        (kind, args), = workload.commands(0)
        outcome = run_cli(args, deadline)
        if not _check(workload, tally, "audit counts", kind, outcome.code, outcome.out):
            raise RoundFailed("the audit whose counts the replay is checked against failed")
        report = json.loads(outcome.out)
        oracle_counts = {
            "maps_tried": report["maps_tried"],
            "acceptance": report["trials_run"] / report["maps_tried"],
            "exhausted_ratio": report["spaces_without_accepted_map"] / report["spaces_generated"],
        }

        def one_round():
            result = workload.replay(0)
            for key in ("trials_run", "spaces_generated"):
                problem = None if result[key] == report[key] else f"replay {key} {result[key]} != CLI {report[key]}"
                tally.record(f"replay {key}", problem)
            return result
    else:
        def one_round():
            outputs = []
            for kind, args in workload.commands(0):
                code, out = run_cli_in_process(args)
                _check(workload, tally, f"in-process {kind}", kind, code, out)
                outputs.append(out)
            return outputs

    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    results = []
    started = time.perf_counter()
    pair = 0
    while _keep_going(started, seconds, [a + b for a, b in zip(untraced, traced)], deadline):
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer = Tracer()
            with tracer.installed() if with_trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result = one_round()
                except Exception as exc:  # a crash inside orthofix ends the run as failed
                    traceback.print_exc()
                    raise RoundFailed(f"{type(exc).__name__}: {exc}") from exc
                elapsed = time.perf_counter() - t0
            (traced if with_trace else untraced).append(elapsed)
            if with_trace:
                tracers.append(tracer)
            results.append(result)
        pair += 1

    if not isinstance(workload, Audit):
        tally.record("traced output equals untraced output", None if all(r == results[0] for r in results) else "outputs differ")
        instances = workload.spaces()
    else:
        instances = results[0]["instances"][:ENGINE_CHECK_INSTANCES]
    for space, mapping in instances:
        tally.record("engine agreement", _engines_agree(space, mapping))

    self_times = [t.self_seconds() for t in tracers]
    metrics = {f"{name}_s": (statistics.median(st[name] for st in self_times), "s") for name in SPAN_NAMES}
    counts = tracers[0].counts
    metrics.update({name: (counts[name], "count") for name in COUNT_NAMES})
    metrics["oracle.maps_tried"] = (oracle_counts["maps_tried"], "count")
    metrics["oracle.acceptance"] = (oracle_counts["acceptance"], "ratio")
    metrics["oracle.exhausted_ratio"] = (oracle_counts["exhausted_ratio"], "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    details = {
        "traced_rounds": len(traced),
        "untraced_round_p50_s": statistics.median(untraced),
        "traced_round_p50_s": statistics.median(traced),
        "counts_repeat": all(t.counts == counts for t in tracers),
    }
    tally.record("counts repeat across traced rounds", None if details["counts_repeat"] else "counts differ")
    spans = [{"name": s[0], "parent": s[1], "start_ns": s[2], "end_ns": s[3]} for s in tracers[0].spans]
    return metrics, details, spans


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _import_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _backend() -> str | None:
    _import_path()
    from orthofix import contraction

    name = getattr(contraction, "backend_name", None)
    return name() if name is not None else None


def run(name: str, seed: int, seconds: float, trace: int, sizes: Sizes = FULL) -> tuple[dict, dict]:
    """One benchmark run; returns (result, metadata)."""
    if not (SRC / "orthofix" / "cli.py").is_file():
        raise SetupError(f"no orthofix sources under {SRC}")
    deadline = time.monotonic() + HARD_LIMIT_S
    cls = WORKLOADS[name]
    if sizes == FULL:
        pinned = inputs.DEFAULT_DIGESTS[name]
        actual = cls.default_digest()
        if actual != pinned:
            raise SetupError(f"default-seed input of {name} drifted: sha256 {actual}, pinned {pinned}")
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload = cls(seed, sizes, work)
        tally = Tally()
        if trace:
            metrics, details, spans = measure_traced(workload, seconds, deadline, tally)
        else:
            metrics, details = measure_end_to_end(workload, seconds, deadline, tally)
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": _backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "inputs": workload.digests,
        "input_info": workload.info,
        "failed_ratio": len(tally.failures) / tally.attempted,
        "failures": tally.failures[:20],
        **details,
    }
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "result": result}
    if spans is not None:
        record["spans_first_traced_round"] = spans
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record), encoding="utf-8")
    return result, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        result, meta = run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, RoundFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
