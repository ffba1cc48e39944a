"""Hypothesis strategies and seeded query families shared across the suite.

Networks are drawn by seeding the generators in synth.py; shrinking
then happens over the seed, which is crude but keeps the generator code
in one place and the failures reproducible by seed.
"""

import random

from hypothesis import strategies as st

from synth import random_network, random_observations, random_taxonomy

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def networks(draw, max_events=12, max_causal=14, max_isa=8):
    rng = random.Random(draw(seeds))
    return random_network(rng, max_events=max_events, max_causal=max_causal, max_isa=max_isa)


@st.composite
def tiny_networks(draw):
    """Small enough for exhaustive arborescence sweeps (2^edges subsets)."""
    rng = random.Random(draw(seeds))
    return random_network(rng, max_events=6, max_causal=6, max_isa=4)


@st.composite
def networks_with_observations(draw, max_events=12, max_causal=14, max_isa=8):
    rng = random.Random(draw(seeds))
    net = random_network(rng, max_events=max_events, max_causal=max_causal, max_isa=max_isa)
    return net, random_observations(rng, net)


@st.composite
def taxonomies(draw):
    rng = random.Random(draw(seeds))
    return random_taxonomy(rng)


# random_network's size limits for each sweep family.
FAMILIES = {
    "small": {},
    "dense": dict(max_events=40, max_causal=80, max_isa=20),
    "isa-rich": dict(max_events=8, max_causal=10, max_isa=6),
}


def family_queries(family, seed=0, count=30):
    """The first ``count`` (network, observations) queries of a family,
    each a random_network and then its observations, drawn from
    Random(seed)."""
    rng = random.Random(seed)
    for _ in range(count):
        net = random_network(rng, **FAMILIES[family])
        yield net, random_observations(rng, net)
