from __future__ import annotations

import random

import pytest
from hypothesis import settings

from orthofix import GenParams, generate_map, generate_space
from orthofix.corpus import five_point_example

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def five_point():
    return five_point_example()


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
