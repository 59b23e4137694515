"""Brute-force oracle and randomized audit of the fixed point theorem.

Instances are generated deterministically from a seed: metrics come from
the all-pairs shortest-path closure of random positive integer edge
weights (which constructively guarantees the triangle inequality), the
relation is sampled pairwise and then augmented so one randomly chosen
point is a weak orthogonal element, and candidate maps are biased toward a
random attractor and kept only when every theorem hypothesis holds.  A
candidate is first tested on its raw image list and dropped at its first
preservation violation, so a candidate rejected there never becomes a map;
only a preserving one is built as a `SelfMap` and checked against the rest.

For each accepted instance the audit verifies the theorem's conclusion
against exhaustive enumeration: exactly one fixed point, reached by Picard
iteration from every weak orthogonal element, with every step and tail
inequality re-checked here in exact arithmetic, independently of the
solver's own runtime certificates.  Any discrepancy is recorded with full
reproduction data.

Randomness comes from ``random.Random`` (MT19937) using only getrandbits
and randrange, so instance streams are stable across platforms and runs
for a given seed.

Each trial is a pure function of its seed, drawn from the master stream.
The audit draws its seeds in batches, splits each batch across the usable
CPUs in forked processes (one process when there is no ``os.fork``, one
CPU, a small batch or a second live thread), and folds the results in
seed order, so its output does not depend on the number of CPUs.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import BinaryIO

from .contraction import hierarchy_check
from .errors import InputError, OrthofixError
from .rational import _is_index, as_rational
from .relational import _violations, brute_force_fixed_points
from .solver import _hypotheses_hold, hypothesis_check, picard_solve
from .space import FiniteSpace, SelfMap, validate_metric
from .spacefile import space_to_dict


@dataclass(frozen=True)
class GenParams:
    """Deterministic instance-generation parameters (identical params, identical stream)."""

    seed: int = 0
    trials: int = 500
    max_points: int = 8
    weight_range: tuple[int, int] = (1, 10)
    relation_density: Fraction = Fraction(1, 4)
    map_attempts: int = 64

    def __post_init__(self):
        for name in ("seed", "trials", "max_points", "map_attempts"):
            if not _is_index(getattr(self, name)):
                raise InputError(f"{name} must be an int, got {getattr(self, name)!r}")
        if not (2 <= self.max_points <= 32):
            raise InputError("max_points must lie in [2, 32]")
        lo, hi = self.weight_range
        if not (_is_index(lo) and _is_index(hi) and 1 <= lo <= hi):
            raise InputError("weight_range must be two ints with 1 <= lo <= hi")
        density = as_rational(self.relation_density, "relation_density")
        if not (0 <= density <= 1):
            raise InputError("relation_density must lie in [0, 1]")
        object.__setattr__(self, "relation_density", density)
        if self.trials < 0:
            raise InputError("trials must be non-negative")
        if self.map_attempts < 1:
            raise InputError("map_attempts must be positive")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "max_points": self.max_points,
            "weight_range": list(self.weight_range),
            "relation_density": str(self.relation_density),
            "map_attempts": self.map_attempts,
        }


def _shortest_path_metric(n: int, rng: random.Random, lo: int, hi: int) -> list[list[Fraction]]:
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = lo + rng.randrange(hi - lo + 1)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = w[i][k] + w[k][j]
                if via < w[i][j]:
                    w[i][j] = via
    # one Fraction per distinct distance, shared as the loader shares them, so that
    # `FiniteSpace` checks and scales each distinct value once
    shared = {v: Fraction(v) for v in set(chain.from_iterable(w))}
    return [[shared[v] for v in row] for row in w]


def generate_space(params: GenParams, rng: random.Random | None = None) -> FiniteSpace:
    """Sample a valid space whose relation has a weak orthogonal element.

    The relation is sampled per ordered pair at `relation_density`, then a
    random point x0 is promoted to a weak orthogonal element by adding, per
    point y, one of (x0, y) or (y, x0) on a coin flip wherever neither is
    already present.
    """
    rng = rng if rng is not None else random.Random(params.seed)
    n = 2 + rng.randrange(params.max_points - 1)
    lo, hi = params.weight_range
    metric = _shortest_path_metric(n, rng, lo, hi)
    density = params.relation_density
    relation = set()
    for i in range(n):
        for j in range(n):
            if rng.randrange(density.denominator) < density.numerator:
                relation.add((i, j))
    x0 = rng.randrange(n)
    for y in range(n):
        if (x0, y) not in relation and (y, x0) not in relation:
            relation.add((x0, y) if rng.getrandbits(1) else (y, x0))
    return FiniteSpace([str(i) for i in range(n)], metric, relation)


def _sample_map(params: GenParams, space: FiniteSpace, rng: random.Random) -> tuple[SelfMap | None, int]:
    """The accepted candidate (or None) and the number of candidates tried.

    All n images are drawn first, so the stream does not depend on the
    outcome.  The raw image list is then tested for preservation up to its
    first violation, where most candidates fail; such a candidate never
    becomes a map.  Only a preserving one is built as a `SelfMap` and judged
    by `_hypotheses_hold`, which keeps its facts on the map it accepts.
    """
    n = space.n
    for attempt in range(params.map_attempts):
        attractor = rng.randrange(n)
        images = [attractor if rng.getrandbits(1) else rng.randrange(n) for _ in range(n)]
        if next(_violations(space, images), None) is not None:
            continue
        candidate = SelfMap(images, n)
        if _hypotheses_hold(space, candidate):
            return candidate, attempt + 1
    return None, params.map_attempts


def generate_map(
    params: GenParams, space: FiniteSpace, rng: random.Random | None = None
) -> SelfMap | None:
    """Sample attractor-biased maps; keep the first satisfying every hypothesis.

    Returns None when `map_attempts` candidates were all rejected (a value,
    not an error: the caller decides whether to draw a fresh space).
    """
    rng = rng if rng is not None else random.Random(params.seed)
    return _sample_map(params, space, rng)[0]


@dataclass(frozen=True)
class AuditFailure:
    seed: int
    space: dict
    map: list[int]
    discrepancy: str

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "space": self.space,
            "map": self.map,
            "discrepancy": self.discrepancy,
        }


@dataclass(frozen=True)
class AuditSummary:
    params: GenParams
    trials_run: int
    hypotheses_satisfied: int
    conclusion_verified: int
    failures: tuple[AuditFailure, ...]
    spaces_generated: int
    maps_tried: int
    spaces_without_accepted_map: int
    hierarchy_failures: int
    trace_count: int

    @property
    def ok(self) -> bool:
        return not self.failures and self.hierarchy_failures == 0

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "trials_run": self.trials_run,
            "hypotheses_satisfied": self.hypotheses_satisfied,
            "conclusion_verified": self.conclusion_verified,
            "failures": [f.to_dict() for f in self.failures],
            "spaces_generated": self.spaces_generated,
            "maps_tried": self.maps_tried,
            "spaces_without_accepted_map": self.spaces_without_accepted_map,
            "acceptance_rate": f"{self.trials_run}/{self.maps_tried}" if self.maps_tried else "0/0",
            "hierarchy_failures": self.hierarchy_failures,
            "traces_checked": self.trace_count,
            "ok": self.ok,
        }


def _audit_instance(space: FiniteSpace, mapping: SelfMap) -> tuple[list[str], int]:
    """Verify the theorem's conclusion on one accepted instance.

    Returns (discrepancies, traces_checked).  All inequalities are
    re-evaluated here from the raw trace data, independently of the
    solver's internal enforcement; the hypothesis check and the traces reuse
    the scan the instance filter kept on the map.
    """
    problems: list[str] = []
    report = validate_metric(space)
    if not report.ok:
        problems.append(f"generated metric invalid: {report.violations[0]}")
    fixed = brute_force_fixed_points(space, mapping)
    if len(fixed) != 1:
        problems.append(f"fixed point set {sorted(fixed)} is not a singleton")
        return problems, 0
    (z,) = fixed
    hyp = hypothesis_check(space, mapping)
    k = hyp.minimal_k
    traces = 0
    for w in sorted(space.weak_elements):
        trace = picard_solve(space, mapping, w, k=k)
        traces += 1
        if not trace.converged or trace.fixed_point != z:
            problems.append(f"Picard from {w} reached {trace.fixed_point}, brute force says {z}")
            continue
        steps = trace.step_distances
        d0 = steps[0] if steps else Fraction(0)
        for i in range(1, len(steps)):
            if not (steps[i] <= k * steps[i - 1]):
                problems.append(f"step inequality fails at n={i - 1} from start {w}")
        scale = d0 / (1 - k)
        for n in range(len(trace.iterates)):
            bound = k**n * scale
            for m in range(n + 1, len(trace.iterates)):
                if not (space.d(trace.iterates[n], trace.iterates[m]) <= bound):
                    problems.append(f"tail bound fails for (n={n}, m={m}) from start {w}")
    return problems, traces


def _trial(params: GenParams, trial_seed: int) -> tuple[int, tuple[int, int, AuditFailure | None] | None]:
    """One trial, a pure function of its seed: (maps tried, outcome).

    The outcome is None when the space ran out of map attempts; otherwise it
    is (traces checked, hierarchy failures, the failure record or None).
    """
    rng = random.Random(trial_seed)
    space = generate_space(params, rng)
    mapping, tried = _sample_map(params, space, rng)
    if mapping is None:
        return tried, None
    problems, traces = _audit_instance(space, mapping)
    hierarchy_failures = 0
    for verdict in hierarchy_check(space, mapping):
        if not verdict.holds:
            hierarchy_failures += 1
            problems.append(f"hierarchy implication {verdict.name} fails at {verdict.witness}")
    failure = None
    if problems:
        failure = AuditFailure(
            seed=trial_seed,
            space=space_to_dict(space),
            map=list(mapping.images),
            discrepancy="; ".join(problems),
        )
    return tried, (traces, hierarchy_failures, failure)


_SEEDS_PER_PROCESS = 32  # below this a forked process costs more than it saves


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _single_threaded() -> bool:
    """Whether this process runs one thread: a fork with more may deadlock the child."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no procfs: count the threads Python knows of
        return threading.active_count() == 1


def _processes(batch: int) -> int:
    """How many processes share a batch of `batch` seeds; 1 runs it in this process."""
    if not hasattr(os, "fork") or not _single_threaded():
        return 1
    return max(1, min(_usable_cpus(), batch // _SEEDS_PER_PROCESS))


def _run_child(params: GenParams, seeds: list[int], write_fd: int) -> None:
    """A forked process's share: pickle its trials, or its exception, to the pipe and exit."""
    status = 1
    try:
        try:
            payload = (True, [_trial(params, seed) for seed in seeds])
        except BaseException as exc:
            import traceback

            try:  # an exception that would not unpickle still reports its type and message
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = OrthofixError(f"{type(exc).__name__}: {exc}")
            payload = (False, (exc, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_trials(params: GenParams, seeds: list[int]) -> list:
    """`_trial` of every seed, in seed order.

    With W processes the caller takes positions 0::W and forked child i
    takes i::W, returning its results pickled over a pipe; W = 1 runs the
    same code with no child.  A child's exception is raised here with its
    type and message.  Any exception kills and reaps every child still
    running.  When several seeds raise, the one raised may not be the first
    in seed order.
    """
    workers = _processes(len(seeds))
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, in stride order
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_child(params, seeds[i::workers], write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        results: list = [None] * len(seeds)
        results[0::workers] = [_trial(params, seed) for seed in seeds[0::workers]]
        for i, (pid, pipe) in enumerate(list(children.items()), start=1):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if not data:
                code = os.waitstatus_to_exitcode(status)
                raise OrthofixError(f"audit process {pid} ended without results (exit code {code})")
            done, value = pickle.loads(data)
            if not done:
                exc, child_traceback = value
                raise exc from OrthofixError(f"raised in audit process {pid}:\n{child_traceback}")
            results[i::workers] = value
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def theorem_audit(params: GenParams) -> AuditSummary:
    """Generate, filter and audit instances until `params.trials` are verified.

    A trial is a pure function of its seed (`_trial`).  The master stream's
    seeds are drawn in batches of the trials still missing; a seed yields at
    most one trial, so no batch overshoots and the seeds drawn are the ones a
    one-at-a-time loop would draw.  A batch is split across the usable CPUs
    in forked processes, and its results are folded here in seed order, so
    the summary, byte for byte, does not depend on the number of CPUs.
    """
    master = random.Random(params.seed)
    trials_run = 0
    verified = 0
    failures: list[AuditFailure] = []
    spaces_generated = 0
    maps_tried = 0
    exhausted = 0
    hierarchy_failures = 0
    trace_count = 0

    while trials_run < params.trials:
        seeds = [master.getrandbits(64) for _ in range(params.trials - trials_run)]
        for tried, outcome in _run_trials(params, seeds):
            spaces_generated += 1
            maps_tried += tried
            if outcome is None:
                exhausted += 1
                continue
            trials_run += 1
            traces, failed_verdicts, failure = outcome
            trace_count += traces
            hierarchy_failures += failed_verdicts
            if failure is not None:
                failures.append(failure)
            else:
                verified += 1

    return AuditSummary(
        params=params,
        trials_run=trials_run,
        hypotheses_satisfied=trials_run,
        conclusion_verified=verified,
        failures=tuple(failures),
        spaces_generated=spaces_generated,
        maps_tried=maps_tried,
        spaces_without_accepted_map=exhausted,
        hierarchy_failures=hierarchy_failures,
        trace_count=trace_count,
    )
