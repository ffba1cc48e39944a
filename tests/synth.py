"""Synthetic networks and taxonomies for tests and experiment scripts.

Random generators take an explicit random.Random so suites stay
reproducible; the fixed fixtures (complexity, locality, two-disorder)
are deterministic constructions used by the acceptance suite.
"""

from __future__ import annotations

import random
from fractions import Fraction

from abducer.kb import CausalLink, CausalNetwork, EventNode, IsaLink
from abducer.recognition import Concept, PropertySpec, RecognitionKB


def random_network(
    rng: random.Random,
    max_events: int = 12,
    max_causal: int = 14,
    max_isa: int = 8,
    p_low: float = 0.05,
    p_high: float = 0.95,
) -> CausalNetwork:
    """A random valid network; edges follow the index order, which keeps
    the causal/isa union acyclic by construction."""
    n = rng.randint(3, max_events)
    names = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    n_causal = rng.randint(1, min(max_causal, len(pairs)))
    causal_pairs = rng.sample(pairs, n_causal)
    remaining = [p for p in pairs if p not in set(causal_pairs)]
    n_isa = rng.randint(0, min(max_isa, len(remaining)))
    isa_pairs = rng.sample(remaining, n_isa) if n_isa else []

    causes = {i for i, _ in causal_pairs}
    disorders = {i for i in causes if rng.random() < 0.6}
    if not disorders:
        disorders = {min(causes)}

    events = []
    for i in range(n):
        if i in disorders:
            prior = rng.uniform(p_low, p_high)
            events.append(EventNode(names[i], prior=prior, is_disorder=True))
        else:
            events.append(EventNode(names[i]))
    causal = [
        CausalLink(names[i], names[j], rng.uniform(p_low, p_high))
        for i, j in causal_pairs
    ]
    isa = [IsaLink(names[i], names[j]) for i, j in isa_pairs]
    return CausalNetwork(events, causal, isa)


def random_observations(rng: random.Random, net: CausalNetwork, max_size: int = 3) -> frozenset[str]:
    """Observation sets biased toward causal effects so that explanations
    usually exist (uncaused picks still occur and exercise the empty case)."""
    effects = sorted({l.effect for l in net.causal})
    everything = [n.id for n in net.events]
    size = rng.randint(1, max_size)
    pool = effects if rng.random() < 0.8 else everything
    size = min(size, len(pool))
    return frozenset(rng.sample(pool, size))


def two_disorder_network() -> CausalNetwork:
    """Two independent disorder/symptom pairs; only the augmented-root mode
    can explain both symptoms at once."""
    events = [
        EventNode("d1", prior=0.1, is_disorder=True),
        EventNode("d2", prior=0.1, is_disorder=True),
        EventNode("s1"),
        EventNode("s2"),
    ]
    causal = [CausalLink("d1", "s1", 0.9), CausalLink("d2", "s2", 0.9)]
    return CausalNetwork(events, causal, [])


COMPLEXITY_NODES = 50
COMPLEXITY_EDGES = 80
COMPLEXITY_ROOT = "n00"
COMPLEXITY_TERMINALS = ("n45", "n46", "n47", "n48", "n49")


def complexity_network() -> CausalNetwork:
    """Fixed 50-node, 80-edge network for the relaxation-count budget.

    A backbone n00 -> n01 -> ... -> n49 guarantees every node reaches every
    later node, so the DP genuinely visits the whole graph for every
    terminal subset; 31 seeded forward chords bring the edge count to 80.
    """
    rng = random.Random(0xC0FFEE)
    names = [f"n{i:02d}" for i in range(COMPLEXITY_NODES)]
    links: dict[tuple[int, int], float] = {}
    for i in range(COMPLEXITY_NODES - 1):
        links[(i, i + 1)] = rng.uniform(0.05, 0.95)
    while len(links) < COMPLEXITY_EDGES:
        i = rng.randrange(0, COMPLEXITY_NODES - 2)
        j = rng.randrange(i + 2, COMPLEXITY_NODES)
        if (i, j) not in links:
            links[(i, j)] = rng.uniform(0.05, 0.95)
    events = [
        EventNode(names[0], prior=0.5, is_disorder=True)
    ] + [EventNode(n) for n in names[1:]]
    causal = [
        CausalLink(names[i], names[j], p) for (i, j), p in sorted(links.items())
    ]
    return CausalNetwork(events, causal, [])


LOCALITY_COMPONENT = (
    "d0", "d1", "m0", "m1", "m2", "m3", "m4", "m5", "m6", "o0", "o1", "o2",
)
LOCALITY_OBSERVATIONS = ("o0", "o1", "o2")


def locality_network() -> CausalNetwork:
    """200 nodes: a 12-node component that can explain the observations and
    188 nodes in disconnected chains that must never enter the DP table."""
    events = [
        EventNode("d0", prior=0.2, is_disorder=True),
        EventNode("d1", prior=0.3, is_disorder=True),
    ]
    events += [EventNode(f"m{i}") for i in range(7)]
    events += [EventNode(o) for o in LOCALITY_OBSERVATIONS]
    causal = [
        CausalLink("d0", "m0", 0.9),
        CausalLink("d1", "m0", 0.8),
        CausalLink("d1", "m1", 0.7),
    ]
    causal += [CausalLink(f"m{i}", f"m{i+1}", 0.9) for i in range(6)]
    causal += [
        CausalLink("m6", "o0", 0.9),
        CausalLink("m6", "o1", 0.8),
        CausalLink("m6", "o2", 0.7),
    ]
    # 47 disconnected four-node chains account for the other 188 nodes.
    for c in range(47):
        head = f"x{c:02d}a"
        events += [
            EventNode(head, prior=0.3, is_disorder=True),
            EventNode(f"x{c:02d}b"),
            EventNode(f"x{c:02d}c"),
            EventNode(f"x{c:02d}d"),
        ]
        causal += [
            CausalLink(head, f"x{c:02d}b", 0.5),
            CausalLink(f"x{c:02d}b", f"x{c:02d}c", 0.5),
            CausalLink(f"x{c:02d}c", f"x{c:02d}d", 0.5),
        ]
    return CausalNetwork(events, causal, [])


def random_taxonomy(
    rng: random.Random,
    max_concepts: int = 8,
    max_pairs: int = 3,
) -> tuple[RecognitionKB, frozenset[tuple[str, str]]]:
    """A tree-shaped taxonomy (every concept has at most one parent), all
    spec counts positive and every described pair specified at the root, so
    the unique-relevant-concept assumption holds for every candidate."""
    nc = rng.randint(2, max_concepts)
    counts = [0] * nc
    parent = [-1] * nc
    counts[0] = rng.randint(50, 200)
    for i in range(1, nc):
        parent[i] = rng.randrange(i)
        counts[i] = rng.randint(1, counts[parent[i]])

    concepts = [Concept(f"c{i}", counts[i]) for i in range(nc)]
    isa = [IsaLink(f"c{i}", f"c{parent[i]}") for i in range(1, nc)]

    n_pairs = rng.randint(1, max_pairs)
    pairs = [(f"p{j}", f"v{j}") for j in range(n_pairs)]
    specs = [
        PropertySpec("c0", p, v, rng.randint(1, counts[0])) for p, v in pairs
    ]
    for i in range(1, nc):
        for p, v in pairs:
            if rng.random() < 0.4:
                specs.append(PropertySpec(f"c{i}", p, v, rng.randint(1, counts[i])))
    return RecognitionKB(concepts, isa, specs), frozenset(pairs)


def exact_two_disorder_probability() -> Fraction:
    """P(d1) * P(s1|d1) * P(d2) * P(s2|d2) on the two-disorder fixture."""
    return Fraction(1, 10) * Fraction(9, 10) * Fraction(1, 10) * Fraction(9, 10)
