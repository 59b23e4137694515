from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from orthofix import GenParams, generate_map, generate_space
from orthofix.corpus import five_point_example

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def five_point():
    return five_point_example()


@pytest.fixture
def ratio_chain():
    """Builds the line metric on n points whose gaps shrink by 1/2, 1/3, 2/5, 3/7 and 4/9 in turn."""

    def build(n):
        ratios = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(4, 9))
        xs, gap = [Fraction(0)], Fraction(1)
        for i in range(n - 1):
            xs.append(xs[-1] + gap)
            gap *= ratios[i % len(ratios)]
        return [[abs(x - y) for y in xs] for x in xs]

    return build


@pytest.fixture(scope="session")
def accepted_instances():
    """A batch of generated (space, map) instances satisfying every hypothesis.

    Shared across property tests; drawn by the audit's own generators, seed
    stream and sampler at a smaller trial count.
    """
    instances = []
    params = GenParams(seed=2024, trials=25)
    master = random.Random(params.seed)
    while len(instances) < params.trials:
        rng = random.Random(master.getrandbits(64))
        space = generate_space(params, rng)
        mapping = generate_map(params, space, rng)
        if mapping is not None:
            instances.append((space, mapping))
    return instances
