"""Brute-force oracle and randomized audit of the fixed point theorem.

Instances are generated deterministically from a seed: metrics come from
the all-pairs shortest-path closure of random positive integer edge
weights (which constructively guarantees the triangle inequality), the
relation is sampled pairwise and then augmented so one randomly chosen
point is a weak orthogonal element, and candidate maps are biased toward a
random attractor and kept only when every theorem hypothesis holds.  A
candidate is first tested on its raw image list and dropped at its first
preservation violation, so a candidate rejected there never becomes a map;
only a preserving one is built as a `SelfMap`, and it is accepted when its
symmetric generalized report is admissible.  `hypothesis_check` stays the
one definition of the hypotheses: the audit runs it on accepted maps only,
so their full preservation report is computed once, there.

For each accepted instance the audit verifies the theorem's conclusion
against exhaustive enumeration: exactly one fixed point, reached by Picard
iteration from every weak orthogonal element, with every step and tail
inequality re-checked here in exact arithmetic, independently of the
solver's own runtime certificates.  Any discrepancy is recorded with full
reproduction data.

Randomness comes from ``random.Random`` (MT19937) through getrandbits only:
a draw below n is the rejection loop of CPython's ``randrange(n)``, which
`_below` runs for a single draw and the edge weights, the relation and the
candidate images run inline, one loop per entry and no call.  So instance
streams depend on MT19937's output alone and are stable across platforms,
Python versions and runs for a given seed.

Each trial is a pure function of its seed, drawn from the master stream,
and reports one record (`_Trial`).  The audit draws its seeds in batches,
splits each batch across the usable CPUs in forked processes (one process
when there is no ``os.fork``, one CPU, a small batch or a second live
thread), and keeps the records in seed order; every count of the summary
is a `len` or a `sum` over them, so its output does not depend on the
number of CPUs.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
from fractions import Fraction
from typing import BinaryIO, NamedTuple

from .contraction import hierarchy_check, report
from .errors import CertificateError, InputError, OrthofixError
from .kinds import ContractionKind
from .rational import _is_index, as_rational
from .records import to_dict
from .relational import _violations, brute_force_fixed_points
from .solver import hypothesis_check, picard_solve
from .space import FiniteSpace, SelfMap, validate_metric
from .spacefile import space_to_dict


class _GenFields(NamedTuple):
    # GenParams's fields and defaults; a NamedTuple may not define `__new__`, so its checks live on the subclass
    seed: int = 0
    trials: int = 500
    max_points: int = 8
    weight_range: tuple[int, int] = (1, 10)
    relation_density: Fraction = Fraction(1, 4)
    map_attempts: int = 64


class GenParams(_GenFields):
    """Deterministic instance-generation parameters (identical params, identical stream).

    The constructor, which unpickling calls, checks every field and stores
    `relation_density` as a Fraction; `_make`, and so `_replace`, go through it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = _GenFields(*args, **kwargs)
        for name in ("seed", "trials", "max_points", "map_attempts"):
            if not _is_index(getattr(fields, name)):
                raise InputError(f"{name} must be an int, got {getattr(fields, name)!r}")
        seed, trials, max_points, weight_range, density, map_attempts = fields
        if not (2 <= max_points <= 32):
            raise InputError("max_points must lie in [2, 32]")
        lo, hi = weight_range
        if not (_is_index(lo) and _is_index(hi) and 1 <= lo <= hi):
            raise InputError("weight_range must be two ints with 1 <= lo <= hi")
        density = as_rational(density, "relation_density")
        if not (0 <= density <= 1):
            raise InputError("relation_density must lie in [0, 1]")
        if trials < 0:
            raise InputError("trials must be non-negative")
        if map_attempts < 1:
            raise InputError("map_attempts must be positive")
        return tuple.__new__(cls, (seed, trials, max_points, weight_range, density, map_attempts))

    @classmethod
    def _make(cls, iterable) -> GenParams:
        return cls(*iterable)

    to_dict = to_dict


def _below(rng: random.Random, n: int) -> int:
    """A draw from range(n), n >= 1: the value and the words CPython's ``randrange`` with one argument takes, in one frame, not three."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _shortest_path_metric(n: int, rng: random.Random, lo: int, hi: int) -> list[list[int]]:
    getrandbits, width = rng.getrandbits, hi - lo + 1
    bits = width.bit_length()
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            r = getrandbits(bits)
            while r >= width:  # `_below(rng, width)`, inline
                r = getrandbits(bits)
            w[i][j] = w[j][i] = lo + r
    for k, row_k in enumerate(w):  # in place: step k changes no entry of row k or column k, as w[k][k] = 0
        for row_i in w:
            via_k = row_i[k]
            for j, b in enumerate(row_k):
                if via_k + b < row_i[j]:
                    row_i[j] = via_k + b
    return w


def generate_space(params: GenParams, rng: random.Random | None = None) -> FiniteSpace:
    """Sample a valid space whose relation has a weak orthogonal element.

    The relation is sampled per ordered pair at `relation_density`, then a
    random point x0 is promoted to a weak orthogonal element by adding, per
    point y, one of (x0, y) or (y, x0) on a coin flip wherever neither is
    already present.
    """
    rng = rng if rng is not None else random.Random(params.seed)
    n = 2 + _below(rng, params.max_points - 1)
    lo, hi = params.weight_range
    metric = _shortest_path_metric(n, rng, lo, hi)
    num, den = params.relation_density.as_integer_ratio()
    getrandbits, bits = rng.getrandbits, den.bit_length()
    relation = set()
    for i in range(n):
        for j in range(n):
            r = getrandbits(bits)
            while r >= den:  # `_below(rng, den)`, inline
                r = getrandbits(bits)
            if r < num:
                relation.add((i, j))
    x0 = _below(rng, n)
    for y in range(n):
        if (x0, y) not in relation and (y, x0) not in relation:
            relation.add((x0, y) if getrandbits(1) else (y, x0))
    return FiniteSpace([str(i) for i in range(n)], metric, relation)


def _sample_map(params: GenParams, space: FiniteSpace, rng: random.Random) -> tuple[SelfMap | None, int]:
    """The accepted candidate (or None) and the number of candidates tried.

    All n images are drawn first, so the stream does not depend on the
    outcome.  The raw image list is then tested for preservation up to its
    first violation, where most candidates fail; such a candidate never
    becomes a map.  A preserving one is built as a `SelfMap` and accepted
    when the space has a weak orthogonal element and the map's symmetric
    generalized report, which stays on the map, is admissible.
    """
    n, weak = space.n, bool(space.weak_elements)
    getrandbits, bits = rng.getrandbits, n.bit_length()
    for attempt in range(params.map_attempts):
        attractor = _below(rng, n)
        images = []
        for _ in range(n):
            if getrandbits(1):
                images.append(attractor)
                continue
            r = getrandbits(bits)
            while r >= n:  # `_below(rng, n)`, inline
                r = getrandbits(bits)
            images.append(r)
        if not weak or next(_violations(space, images), None) is not None:
            continue
        candidate = SelfMap(images, n)
        if report(ContractionKind.GENERALIZED_PERP, space, candidate, symmetric=True).admissible:
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


class AuditFailure(NamedTuple):
    seed: int
    space: dict
    map: list[int]
    discrepancy: str

    to_dict = to_dict


class AuditSummary(NamedTuple):
    params: GenParams
    trials_run: int
    hypotheses_satisfied: int
    conclusion_verified: int
    failures: tuple[AuditFailure, ...]
    spaces_generated: int
    maps_tried: int
    spaces_without_accepted_map: int
    hierarchy_failures: int
    traces_checked: int

    _json_extra = ("acceptance_rate", "ok")
    to_dict = to_dict

    @property
    def acceptance_rate(self) -> str:
        """Accepted trials over candidate maps tried, unreduced: "trials_run/maps_tried"."""
        return f"{self.trials_run}/{self.maps_tried}" if self.maps_tried else "0/0"

    @property
    def ok(self) -> bool:
        return not self.failures and self.hierarchy_failures == 0


def _audit_instance(space: FiniteSpace, mapping: SelfMap) -> tuple[list[str], int]:
    """Verify the theorem's conclusion on one accepted instance.

    Returns (discrepancies, traces_checked).  All inequalities are
    re-evaluated here from the raw trace data, independently of the
    solver's internal enforcement; the hypothesis check and the traces reuse
    the scan the instance filter kept on the map.  A trace the solver
    refuses with CertificateError is recorded as a discrepancy, so the
    trial keeps its reproduction data; it is not counted as checked.
    """
    problems: list[str] = []
    validation = validate_metric(space)
    if not validation.ok:
        problems.append(f"generated metric invalid: {validation.violations[0]}")
    fixed = brute_force_fixed_points(space, mapping)
    if len(fixed) != 1:
        problems.append(f"fixed point set {sorted(fixed)} is not a singleton")
        return problems, 0
    (z,) = fixed
    hyp = hypothesis_check(space, mapping)
    k = hyp.minimal_k
    traces = 0
    for w in sorted(space.weak_elements):
        try:
            trace = picard_solve(space, mapping, w, k=k)
        except CertificateError as exc:
            problems.append(f"Picard from {w}: {exc}")
            continue
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


class _Trial(NamedTuple):
    """What one trial reports; a seed whose space ran out of map attempts is `_Trial(maps_tried)`."""

    maps_tried: int
    accepted: bool = False
    traces_checked: int = 0
    hierarchy_failures: int = 0
    failure: AuditFailure | None = None


def _trial(params: GenParams, trial_seed: int) -> _Trial:
    """One trial, a pure function of its seed."""
    rng = random.Random(trial_seed)
    space = generate_space(params, rng)
    mapping, tried = _sample_map(params, space, rng)
    if mapping is None:
        return _Trial(tried)
    problems, traces = _audit_instance(space, mapping)
    failed = [verdict for verdict in hierarchy_check(space, mapping) if not verdict.holds]
    problems += [f"hierarchy implication {verdict.name} fails at {verdict.witness}" for verdict in failed]
    failure = None
    if problems:
        failure = AuditFailure(trial_seed, space_to_dict(space), list(mapping.images), "; ".join(problems))
    return _Trial(tried, True, traces, len(failed), failure)


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


def _run_trials(params: GenParams, seeds: list[int]) -> list[_Trial]:
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
    in forked processes, and its records are kept in seed order.  Every count
    of the summary is a `len` or a `sum` over the records, so the summary,
    byte for byte, does not depend on the number of CPUs.
    """
    master = random.Random(params.seed)
    trials: list[_Trial] = []
    while (missing := params.trials - sum(trial.accepted for trial in trials)) > 0:
        trials += _run_trials(params, [master.getrandbits(64) for _ in range(missing)])
    accepted = [trial for trial in trials if trial.accepted]
    failures = tuple(trial.failure for trial in accepted if trial.failure is not None)
    return AuditSummary(
        params=params,
        trials_run=len(accepted),
        hypotheses_satisfied=len(accepted),
        conclusion_verified=len(accepted) - len(failures),
        failures=failures,
        spaces_generated=len(trials),
        maps_tried=sum(trial.maps_tried for trial in trials),
        spaces_without_accepted_map=len(trials) - len(accepted),
        hierarchy_failures=sum(trial.hierarchy_failures for trial in accepted),
        traces_checked=sum(trial.traces_checked for trial in accepted),
    )
