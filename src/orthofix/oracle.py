"""Brute-force oracle and randomized audit of the fixed point theorem.

Instances are generated deterministically from a seed: metrics come from
the all-pairs shortest-path closure of random positive integer edge
weights (which constructively guarantees the triangle inequality), the
relation is sampled pairwise and then augmented so one randomly chosen
point is a weak orthogonal element, and candidate maps are biased toward a
random attractor and kept only when every theorem hypothesis holds.

For each accepted instance the audit verifies the theorem's conclusion
against exhaustive enumeration: exactly one fixed point, reached by Picard
iteration from every weak orthogonal element, with every step and tail
inequality re-checked here in exact arithmetic, independently of the
solver's own runtime certificates.  Any discrepancy is recorded with full
reproduction data.

Randomness comes from ``random.Random`` (MT19937) using only getrandbits
and randrange, so instance streams are stable across platforms and runs
for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .contraction import Analysis, hierarchy_check
from .errors import InputError
from .rational import as_rational
from .solver import _hypotheses_hold, hypothesis_check, picard_solve
from .space import FiniteSpace, SelfMap, _check_map, _is_index, validate_metric
from .spacefile import space_to_dict


def brute_force_fixed_points(space: FiniteSpace, mapping: SelfMap) -> frozenset[int]:
    """Exhaustive scan: exactly the points mapped to themselves."""
    _check_map(space, mapping)
    return frozenset(z for z in range(space.n) if mapping(z) == z)


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
    return [[Fraction(w[i][j]) for j in range(n)] for i in range(n)]


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


def _sample_map(params: GenParams, space: FiniteSpace, rng: random.Random) -> tuple[Analysis | None, int]:
    """The accepted candidate's Analysis (or None) and the number of candidates tried."""
    n = space.n
    for attempt in range(params.map_attempts):
        attractor = rng.randrange(n)
        images = [attractor if rng.getrandbits(1) else rng.randrange(n) for _ in range(n)]
        candidate = SelfMap(images, n)
        analysis = Analysis(space, candidate)
        if _hypotheses_hold(space, candidate, analysis):
            return analysis, attempt + 1
    return None, params.map_attempts


def generate_map(
    params: GenParams, space: FiniteSpace, rng: random.Random | None = None
) -> SelfMap | None:
    """Sample attractor-biased maps; keep the first satisfying every hypothesis.

    Returns None when `map_attempts` candidates were all rejected (a value,
    not an error: the caller decides whether to draw a fresh space).
    """
    rng = rng if rng is not None else random.Random(params.seed)
    analysis, _ = _sample_map(params, space, rng)
    return analysis.mapping if analysis is not None else None


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


def _audit_instance(
    space: FiniteSpace, mapping: SelfMap, analysis: Analysis | None = None
) -> tuple[list[str], int]:
    """Verify the theorem's conclusion on one accepted instance.

    Returns (discrepancies, traces_checked).  All inequalities are
    re-evaluated here from the raw trace data, independently of the
    solver's internal enforcement; the hypotheses and scans are read from
    `analysis`, which the instance filter already filled.
    """
    analysis = Analysis.of(space, mapping, analysis)
    problems: list[str] = []
    report = validate_metric(space)
    if not report.ok:
        problems.append(f"generated metric invalid: {report.violations[0]}")
    fixed = brute_force_fixed_points(space, mapping)
    if len(fixed) != 1:
        problems.append(f"fixed point set {sorted(fixed)} is not a singleton")
        return problems, 0
    (z,) = fixed
    hyp = hypothesis_check(space, mapping, analysis=analysis)
    k = hyp.minimal_k
    traces = 0
    for w in sorted(space.weak_elements):
        trace = picard_solve(space, mapping, w, k=k, analysis=analysis)
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


def theorem_audit(params: GenParams) -> AuditSummary:
    """Generate, filter and audit instances until `params.trials` are verified."""
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
        trial_seed = master.getrandbits(64)
        rng = random.Random(trial_seed)
        space = generate_space(params, rng)
        spaces_generated += 1
        analysis, tried = _sample_map(params, space, rng)
        maps_tried += tried
        if analysis is None:
            exhausted += 1
            continue
        trials_run += 1
        mapping = analysis.mapping
        problems, traces = _audit_instance(space, mapping, analysis)
        trace_count += traces
        for verdict in hierarchy_check(space, mapping, analysis=analysis):
            if not verdict.holds:
                hierarchy_failures += 1
                problems.append(f"hierarchy implication {verdict.name} fails at {verdict.witness}")
        if problems:
            failures.append(
                AuditFailure(
                    seed=trial_seed,
                    space=space_to_dict(space),
                    map=list(mapping.images),
                    discrepancy="; ".join(problems),
                )
            )
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
