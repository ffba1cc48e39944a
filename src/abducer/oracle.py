"""Exhaustive reference implementation for small networks.

The oracle sweeps (culprit, subset) pairs of the causal links by size,
then culprit, then sorted link tuple, cheap filters first: the ranker
takes only its culprits and validates only the candidates that cover
the observations.  It is deliberately simple so that the Steiner solver
can be checked against it; a size guard refuses hopeless sweeps.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import NetworkTooLargeError
from .kb import CausalNetwork, EventId, multi_roots
from .scenario import (
    Link,
    RankedExplanation,
    Scenario,
    _weigh,
    check_query,
    is_valid_scenario,
    order_and_rank,
    participants,
)

MAX_ORACLE_LINKS = 25


def _candidates(net: CausalNetwork, culprits: tuple[EventId, ...], max_links: int) -> Iterator[Scenario]:
    """The tree-shaped scenarios rooted at culprits with at most max_links
    causations, by size, then culprit as given, then sorted link tuple.
    Prefixes that break the tree shape (an effect caused twice, or the
    culprit caused) are pruned; no tree of the power-set sweep is lost."""
    links = tuple(sorted((l.cause, l.effect) for l in net.causal))
    if len(links) > MAX_ORACLE_LINKS:
        raise NetworkTooLargeError(f"{len(links)} causal links exceed the sweep guard ({MAX_ORACLE_LINKS})")
    for size in range(min(max_links, len(links)) + 1):
        for culprit in culprits:
            for subset in _tree_subsets(links, size, culprit):
                yield Scenario(culprit, frozenset(subset))


def enumerate_valid_scenarios(net: CausalNetwork, max_links: int) -> Iterator[Scenario]:
    """Yield every valid scenario with at most max_links causations.

    The stream is deterministic, ordered as ``_candidates`` with every
    event a culprit in name order, and equals the literal power-set sweep.
    """
    for cand in _candidates(net, tuple(n.id for n in net.events), max_links):
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
    only scenarios rooted there are considered.  Coverage is checked
    before validity."""
    obs = check_query(net, observations, k)
    net, culprits = multi_roots(net) if multi else (net, net.disorders)
    culprits = tuple(c for c in culprits if culprit in (None, c))
    found: list[tuple[Scenario, float, float]] = []
    for cand in _candidates(net, culprits, len(net.causal)):
        if obs <= participants(net, cand) and is_valid_scenario(net, cand):
            found.append((cand, *_weigh(net, cand)))
    return order_and_rank(found)[:k]
