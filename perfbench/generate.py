"""Seeded input generators.

Everything produced here is plain text or plain Python data.  abducer only
ever sees the generated network and KB text; the structural facts kept next
to the text (effects, link lists) let the benchmark build expectations
without going through the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkSpec:
    """A generated causal network: its file text plus what the generator knows."""

    text: str
    events: tuple[str, ...]
    causal: tuple[tuple[str, str, str], ...]  # (cause, effect, probability text)
    isa: tuple[tuple[str, str], ...]
    effects: tuple[str, ...]  # every event that is the effect of a causal link


def _prob(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.4f}"


def random_dag_network(
    rng: random.Random, events: int, causal: int, isa: int, prefix: str = "e"
) -> NetworkSpec:
    """A network of exactly `events` events, `causal` causal and `isa` isa
    links.  Links only point from lower to higher index, so the causal/isa
    union is acyclic by construction.  Each cause is a disorder with
    probability 1/2 and at least one cause is.
    """
    names = [f"{prefix}{i}" for i in range(events)]
    pairs = [(i, j) for i in range(events) for j in range(i + 1, events)]
    causal_pairs = sorted(rng.sample(pairs, causal))
    taken = set(causal_pairs)
    isa_pairs = sorted(rng.sample([p for p in pairs if p not in taken], isa))
    causes = sorted({i for i, _ in causal_pairs})
    disorders = {i for i in causes if rng.random() < 0.5} or {causes[0]}

    lines = []
    for i, name in enumerate(names):
        if i in disorders:
            lines.append(f"event {name} prior={_prob(rng, 0.01, 0.3)} disorder")
        else:
            lines.append(f"event {name}")
    links = tuple((names[i], names[j], _prob(rng, 0.05, 0.95)) for i, j in causal_pairs)
    lines += [f"cause {x} {y} p={p}" for x, y, p in links]
    isa_links = tuple((names[i], names[j]) for i, j in isa_pairs)
    lines += [f"isa {c} {p}" for c, p in isa_links]
    return NetworkSpec(
        text="\n".join(lines) + "\n",
        events=tuple(names),
        causal=links,
        isa=isa_links,
        effects=tuple(sorted({y for _, y, _ in links})),
    )


def component_network(
    rng: random.Random, components: int, events: int, causal: int, isa: int
) -> tuple[NetworkSpec, tuple[NetworkSpec, ...]]:
    """One network made of disconnected random components.

    Returns the whole network and each component on its own; event names
    carry the component number (``c007e3``), so a component's text is a
    sub-document of the whole.
    """
    parts = tuple(
        random_dag_network(rng, events, causal, isa, prefix=f"c{c:03d}e")
        for c in range(components)
    )
    lines: list[str] = []
    for part in parts:
        lines += part.text.splitlines()
    whole = NetworkSpec(
        text="\n".join(lines) + "\n",
        events=tuple(e for p in parts for e in p.events),
        causal=tuple(l for p in parts for l in p.causal),
        isa=tuple(l for p in parts for l in p.isa),
        effects=tuple(e for p in parts for e in p.effects),
    )
    return whole, parts


def causal_chain(rng: random.Random, length: int) -> NetworkSpec:
    """e0000 -> e0001 -> ... with a disorder at the head.  Zero-padded names
    keep the generator's order equal to the network's sorted order."""
    width = len(str(length - 1))
    names = [f"e{i:0{width}d}" for i in range(length)]
    lines = [f"event {names[0]} prior=0.5000 disorder"]
    lines += [f"event {n}" for n in names[1:]]
    links = tuple(
        (names[i], names[i + 1], _prob(rng, 0.5, 0.99)) for i in range(length - 1)
    )
    lines += [f"cause {x} {y} p={p}" for x, y, p in links]
    return NetworkSpec(
        text="\n".join(lines) + "\n",
        events=tuple(names),
        causal=links,
        isa=(),
        effects=tuple(names[1:]),
    )


@dataclass(frozen=True)
class TaxonomySpec:
    text: str
    concepts: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]


def tree_taxonomy(
    rng: random.Random, concepts: int, pairs: int, spec_share: float
) -> TaxonomySpec:
    """A random recursive tree of concepts with shrinking instance counts.

    Every property pair is specified at the root and, with probability
    `spec_share`, again at any other concept, always with a positive count.
    A tree has a unique relevant concept for every pair, so every candidate
    scores.
    """
    names = [f"k{i}" for i in range(concepts)]
    counts = [rng.randint(500, 2000)]
    parent = [-1]
    for i in range(1, concepts):
        parent.append(rng.randrange(i))
        counts.append(rng.randint(max(1, counts[parent[i]] // 4), counts[parent[i]]))
    pv = tuple((f"p{j}", f"v{j}") for j in range(pairs))

    lines = [f"concept {names[i]} count={counts[i]}" for i in range(concepts)]
    lines += [f"isa {names[i]} {names[parent[i]]}" for i in range(1, concepts)]
    for i in range(concepts):
        for p, v in pv:
            if i == 0 or rng.random() < spec_share:
                lines.append(f"prop {names[i]} {p}={v} count={rng.randint(1, counts[i])}")
    return TaxonomySpec("\n".join(lines) + "\n", tuple(names), pv)
