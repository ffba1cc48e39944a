"""Exhaustive reference implementation for small networks.

The oracle sweeps subsets of the causal links by increasing size, tests
each (culprit, subset) pair for validity and ranks explanations by weight.
It is deliberately simple so that the Steiner solver can be checked against
it; a size guard refuses networks where the sweep would be hopeless.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import NetworkTooLargeError
from .kb import CausalNetwork, EventId, multi_roots
from .scenario import (
    Link,
    RankedExplanation,
    Scenario,
    check_query,
    is_valid_scenario,
    log_weight,
    order_and_rank,
    participants,
    raw_probability,
)

MAX_ORACLE_LINKS = 25


def enumerate_valid_scenarios(net: CausalNetwork, max_links: int) -> Iterator[Scenario]:
    """Yield every valid scenario with at most max_links causations.

    The stream is deterministic: ordered by size, then culprit name, then
    the sorted link tuple.  Subset prefixes that already break the tree
    shape (an effect caused twice, or the culprit caused) are pruned; the
    pruning is monotone, so the stream equals the literal power-set sweep.
    """
    links = tuple(sorted((l.cause, l.effect) for l in net.causal))
    if len(links) > MAX_ORACLE_LINKS:
        raise NetworkTooLargeError(
            f"{len(links)} causal links exceed the sweep guard ({MAX_ORACLE_LINKS})"
        )
    culprits = tuple(n.id for n in net.events)
    max_links = min(max_links, len(links))

    for size in range(max_links + 1):
        for culprit in culprits:
            for subset in _tree_subsets(links, size, culprit):
                cand = Scenario(culprit, frozenset(subset))
                if is_valid_scenario(net, cand):
                    yield cand


def _tree_subsets(
    links: tuple[Link, ...], size: int, culprit: EventId
) -> Iterator[tuple[Link, ...]]:
    """Lexicographic size-``size`` subsets whose effects are unique and
    never the culprit."""
    n = len(links)

    def rec(start: int, chosen: list[Link], used_effects: set[EventId]) -> Iterator[tuple[Link, ...]]:
        if len(chosen) == size:
            yield tuple(chosen)
            return
        for i in range(start, n - (size - len(chosen)) + 1):
            x, y = links[i]
            if y in used_effects or y == culprit:
                continue
            chosen.append(links[i])
            used_effects.add(y)
            yield from rec(i + 1, chosen, used_effects)
            chosen.pop()
            used_effects.remove(y)

    yield from rec(0, [], set())


def best_explanations_bruteforce(
    net: CausalNetwork,
    observations: Iterable[EventId],
    k: int,
    culprit: EventId | None = None,
    multi: bool = False,
) -> list[RankedExplanation]:
    """The k most probable explanations of the observations, by exhaustion.

    Every disorder is a culprit, or with ``multi`` the culprits and the
    network are the solver's (``kb.multi_roots``); with ``culprit`` given,
    only scenarios rooted there are considered."""
    obs = check_query(net, observations, k)
    net, culprits = multi_roots(net) if multi else (net, net.disorders)
    culprits = frozenset(c for c in culprits if culprit in (None, c))
    found: list[tuple[Scenario, float, float]] = []
    for cand in enumerate_valid_scenarios(net, len(net.causal)):
        if cand.culprit not in culprits:
            continue
        if not obs <= participants(net, cand):
            continue
        found.append((cand, log_weight(net, cand), raw_probability(net, cand)))
    return order_and_rank(found)[:k]
