"""Seeded workload inputs, built with the standard library only.

The generators here do not call into orthofix, so a change to the program
(its oracle in particular) cannot change the load the benchmark applies.
Every input is a pure function of its seed: the same seed gives the same
bytes.  `DEFAULT_DIGESTS` pins the default-seed inputs so that any drift in
these generators, or in `random.Random`, is caught before a run measures.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

DEFAULT_SEED = 0

# Full-size parameters of the workloads.
DENSE_N = 128
DENSE_WEIGHTS = (1, 50)
DENSE_DENSITY = Fraction(3, 5)
CHAIN_N = 64
CHAIN_RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(4, 9))
AUDIT_TRIALS = 500

# sha256 of each workload's default-seed inputs at the full sizes above.
DEFAULT_DIGESTS = {
    "verify_dense": "5bfb1f949cb880d5817ae13777b4845972a98e4601bef0f9eda39eb74443002e",
    "exact_wide": "5274c55862f8e603524611b7bbf86ab5b79fbc4840665790beb6a5aff959ed8f",
    "audit": "2bb292b38f500832a8be674f9909c877d110681f1db4c1a22129fc6b96fadd59",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode(space: dict) -> bytes:
    """The exact bytes written to a space file (stable key order, compact)."""
    return json.dumps(space, sort_keys=True, separators=(",", ":")).encode()


def _rat(value: Fraction):
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def dense_space(seed: int, n: int = DENSE_N) -> dict:
    """Shortest-path closure of a complete graph with random integer weights.

    The relation holds each ordered pair (diagonal included) with
    probability DENSE_DENSITY, and the map is uniformly random.
    """
    rng = random.Random(seed)
    lo, hi = DENSE_WEIGHTS
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = lo + rng.randrange(hi - lo + 1)
    for k in range(n):
        row_k = w[k]
        for i in range(n):
            row_i = w[i]
            via_k = row_i[k]
            w[i] = [a if a <= via_k + b else via_k + b for a, b in zip(row_i, row_k)]
    num, den = DENSE_DENSITY.numerator, DENSE_DENSITY.denominator
    relation = [[i, j] for i in range(n) for j in range(n) if rng.randrange(den) < num]
    images = [rng.randrange(n) for _ in range(n)]
    return {"points": [str(i) for i in range(n)], "metric": w, "relation": relation, "map": images}


def chain_space(seed: int, n: int = CHAIN_N) -> dict:
    """A line metric whose gaps shrink, each by a ratio from CHAIN_RATIOS.

    Every ratio is used equally often (up to one) in a seeded order, so the
    size of the exact entries barely depends on the seed.  The relation is
    <= on indices and the map is the shift i -> min(i + 1, n - 1), so every
    hypothesis holds, point 0 is a strong orthogonal element and the
    certified trace from 0 ends at n - 1.
    """
    rng = random.Random(seed)
    ratios = [CHAIN_RATIOS[i % len(CHAIN_RATIOS)] for i in range(n - 2)]
    rng.shuffle(ratios)
    gap = Fraction(1)
    positions = [Fraction(0), gap]
    for ratio in ratios:
        gap *= ratio
        positions.append(positions[-1] + gap)
    metric = [[_rat(abs(p - q)) for q in positions] for p in positions]
    relation = [[i, j] for i in range(n) for j in range(i, n)]
    images = [min(i + 1, n - 1) for i in range(n)]
    return {"points": [str(i) for i in range(n)], "metric": metric, "relation": relation, "map": images}


def scaled_bits(space: dict) -> int:
    """Bit length of the largest entry once the metric is rescaled to integers
    by twice the common denominator (the form the exact scans work on)."""
    entries = [Fraction(e) for row in space["metric"] for e in row]
    scale = 2 * lcm(*(e.denominator for e in entries))
    return max(int(e * scale) for e in entries).bit_length()


def audit_seeds(seed: int, count: int) -> list[int]:
    """One `audit --seed` value per round."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def audit_digest(seed: int) -> str:
    return digest(json.dumps(audit_seeds(seed, 64)).encode())
