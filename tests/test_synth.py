"""The seeded generators draw the same networks, taxonomies and fixed
probes that every pinned digest and stream in the suite was taken on."""

import hashlib
import random

from abducer import serialize_network, serialize_recognition_kb

from synth import (
    complexity_network,
    locality_network,
    random_network,
    random_observations,
    random_taxonomy,
    two_disorder_network,
)


def test_generators_draw_what_they_drew():
    h = hashlib.sha256()
    for s in range(50):
        rng = random.Random(s)
        net = random_network(rng)
        h.update(serialize_network(net).encode())
        h.update(repr(sorted(random_observations(rng, net))).encode())
    for s in range(5):
        kb, pairs = random_taxonomy(random.Random(s))
        h.update(serialize_recognition_kb(kb).encode())
        h.update(repr(sorted(pairs)).encode())
    for net in (complexity_network(), locality_network(), two_disorder_network()):
        h.update(serialize_network(net).encode())
    assert h.hexdigest()[:16] == "c99ad1914c08f1b1"
