"""Scenario semantics: construction, validity, preemption and weight.

A scenario pairs a culprit event with a set of causal links.  It is valid
when the links can be attached one at a time: each link ``x -> y`` must hang
off a maximally specific current participant ``p`` that specializes ``x``,
and the attachment must not be preempted by a more specific alternative.

Preemption is resolved at the link level.  Attaching ``x -> y`` at ``p`` is
preempted when the network offers another link ``u -> w`` with ``u`` strictly
more specific than ``x`` on p's climb (``p isa* u isa* x``), ``w`` touching
the attached pair, ``u -> w`` not already part of the scenario, and that
alternative itself standing (recursively unpreempted at ``p``).  The
recursion strictly descends the isa chain, so it always terminates, and it
gives the usual reference-class behaviour: with ``d isa b isa a`` and links
``a -> e``, ``b -> e``, only the most specific available link may carry the
causation when attaching at ``d``.

Scenarios are trees: every effect is caused by at most one link and the
culprit is never an effect.  Together with the acyclic causal+isa union this
keeps every valid scenario realizable as an arborescence in the search
graph, which the solver relies on.

Some links can be ruled out per culprit before any scenario is built.
``shadowed_links(net, r)`` holds the links ``x -> y`` with ``x`` a proper
isa ancestor of ``r`` that are preempted at every point they could attach
at: at ``r`` itself and at every specialization of ``x`` that is reachable
from ``r`` and is no ancestor of ``r``, some ``u`` with ``p isa* u isa+ x``
has a link ``u -> y``, and no ``u'`` with ``p isa* u' isa+ u`` has a link
``u' -> y`` or ``u' -> u``.  No valid scenario rooted at ``r`` holds such a
link.  Every participant descends from ``r`` through the cause+isa union, so
by acyclicity ``r`` is always maximally specific and its proper ancestors
never are; ``x -> y`` can thus only attach at one of the points tested.
There ``u -> y`` is a candidate alternative that nothing more specific can
preempt, and it is never already placed, because then ``y`` would be caused
twice, which ``is_valid_scenario`` rejects before it searches.  So
``preempting_alternative`` returns ``u -> y`` or an earlier alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    InvalidScenarioError,
    MissingPriorError,
    UnknownEventError,
    UnknownLinkError,
)
from .kb import CausalNetwork, EventId

Link = tuple[EventId, EventId]


@dataclass(frozen=True)
class Scenario:
    """A culprit plus a set of causation links; may be invalid as given."""

    culprit: EventId
    causations: frozenset[Link]

    @classmethod
    def make(cls, culprit: EventId, causations: Iterable[Link] = ()) -> "Scenario":
        return cls(culprit, frozenset(tuple(c) for c in causations))

    @property
    def sorted_causations(self) -> tuple[Link, ...]:
        return tuple(sorted(self.causations))

    def __repr__(self) -> str:
        links = ", ".join(f"{x}->{y}" for x, y in self.sorted_causations)
        return f"Scenario({self.culprit}, {{{links}}})"


@dataclass(frozen=True)
class AttachStep:
    """One construction step: ref_class's link was hung off participant."""

    participant: EventId
    ref_class: EventId
    added_link: Link
    sub_scenario_root: EventId


@dataclass(frozen=True)
class ValidityCertificate:
    steps: tuple[AttachStep, ...]


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    certificate: ValidityCertificate | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def participants(net: CausalNetwork, s: Scenario) -> frozenset[EventId]:
    """The culprit plus every endpoint of a causation link.

    Events crossed only as isa intermediates do not participate.
    """
    if not net.has_event(s.culprit):
        raise UnknownEventError(f"unknown event: {s.culprit}")
    for x, y in s.causations:
        if not net.is_link(x, y):
            raise UnknownLinkError(f"no causal link {x}->{y}")
    out = {s.culprit}
    for x, y in s.causations:
        out.add(x)
        out.add(y)
    return frozenset(out)


def _maximally_specific(net: CausalNetwork, parts: Iterable[EventId]) -> list[EventId]:
    """Participants with no other participant strictly below them."""
    ps = sorted(parts)
    return [
        p
        for p in ps
        if not any(q != p and p in net.isa_star(q) for q in ps)
    ]


def preempting_alternative(
    net: CausalNetwork,
    placed: frozenset[Link],
    caused: frozenset[EventId],
    p: EventId,
    x: EventId,
    y: EventId,
) -> Link | None:
    """The link that preempts attaching ``x -> y`` at ``p``, if any.

    Candidates are network links ``u -> w`` with ``p isa* u isa* x``,
    ``u != x`` and ``w`` in {x, y}, skipping links already placed and
    targets already caused.  A candidate only preempts if it is not itself
    preempted by something yet more specific.
    """
    for u in sorted(net.isa_star(p)):
        if u == x or x not in net.isa_star(u):
            continue
        for w in (y, x):
            alt = (u, w)
            if alt == (x, y) or alt in placed or not net.is_link(u, w):
                continue
            if w != y and w in caused:
                continue
            if preempting_alternative(net, placed, caused, p, u, w) is None:
                return alt
    return None


def _shadowed_at(net: CausalNetwork, p: EventId, x: EventId, y: EventId) -> bool:
    """Some u with ``p isa* u isa+ x`` has a link u -> y that nothing more
    specific on p's climb can preempt."""
    climb = net.isa_star(p)
    for u in climb:
        if u == x or x not in net.isa_star(u) or not net.is_link(u, y):
            continue
        if not any(
            v != u and u in net.isa_star(v) and (net.is_link(v, y) or net.is_link(v, u))
            for v in climb
        ):
            return True
    return False


def shadowed_links(net: CausalNetwork, root: EventId) -> frozenset[Link]:
    """Links from proper isa ancestors of root that no valid scenario rooted
    at root can hold (see the module docstring).

    The events reachable from root are searched once, and only when some
    link passes the test at root itself.
    """
    climb = net.isa_star(root)
    others: set[EventId] | None = None
    out = []
    for x in sorted(climb):
        if x == root:
            continue
        for y in net.effects_of(x):
            if not _shadowed_at(net, root, x, y):
                continue
            if others is None:
                others = _reachable(net, root) - climb
            if all(x not in net.isa_star(p) or _shadowed_at(net, p, x, y) for p in others):
                out.append((x, y))
    return frozenset(out)


def _reachable(net: CausalNetwork, root: EventId) -> set[EventId]:
    """Events reachable from root by causal and isa links."""
    seen = {root}
    todo = [root]
    while todo:
        v = todo.pop()
        for w in net.effects_of(v) + net.parents_of(v):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def is_valid_scenario(net: CausalNetwork, s: Scenario, _shuffle=None) -> ValidityResult:
    """Decide scenario validity and produce a certificate or a reason.

    The search looks for some order in which all links attach; the verdict
    does not depend on the order tried (``_shuffle`` randomizes exploration
    for exactly that property test).
    """
    if not net.has_event(s.culprit):
        raise UnknownEventError(f"unknown event: {s.culprit}")
    links = s.sorted_causations
    for x, y in links:
        if not net.is_link(x, y):
            raise UnknownLinkError(f"no causal link {x}->{y}")

    effects: dict[EventId, Link] = {}
    for link in links:
        if link[1] in effects:
            return ValidityResult(False, reason=f"effect {link[1]} caused by more than one link")
        effects[link[1]] = link
    if s.culprit in effects:
        return ValidityResult(False, reason=f"culprit {s.culprit} appears as an effect")
    if not links:
        return ValidityResult(True, ValidityCertificate(()))

    caused = frozenset(effects) | {s.culprit}
    total = len(links)
    dead: set[frozenset[Link]] = set()
    first_failure: list[str] = []

    def dfs(placed: frozenset[Link], steps: list[AttachStep]) -> bool:
        if len(placed) == total:
            return True
        if placed in dead:
            return False
        parts = {s.culprit}
        for x, y in placed:
            parts.add(x)
            parts.add(y)
        maxs = _maximally_specific(net, parts)
        options: list[tuple[Link, EventId]] = []
        for link in links:
            if link in placed:
                continue
            for p in maxs:
                if link[0] in net.isa_star(p):
                    options.append((link, p))
        if _shuffle is not None:
            _shuffle.shuffle(options)
        for link, p in options:
            x, y = link
            blocker = preempting_alternative(net, placed, caused, p, x, y)
            if blocker is not None:
                if not first_failure:
                    first_failure.append(
                        f"preempted: {x}->{y} by {blocker[0]}->{blocker[1]}"
                    )
                continue
            steps.append(AttachStep(p, x, link, y))
            if dfs(placed | {link}, steps):
                return True
            steps.pop()
        if not options and not first_failure:
            missing = next(l for l in links if l not in placed)
            first_failure.append(
                f"unattachable: no participant specializes {missing[0]}"
            )
        dead.add(placed)
        return False

    steps: list[AttachStep] = []
    if dfs(frozenset(), steps):
        return ValidityResult(True, ValidityCertificate(tuple(steps)))
    reason = first_failure[0] if first_failure else "no attachment order exists"
    return ValidityResult(False, reason=reason)


def is_explanation(net: CausalNetwork, s: Scenario, observations: Iterable[EventId]) -> bool:
    """Valid scenario, disorder culprit, observations among participants."""
    obs = frozenset(observations)
    for o in obs:
        if not net.has_event(o):
            raise UnknownEventError(f"unknown event: {o}")
    if not net.node(s.culprit).is_disorder:
        return False
    if not obs <= participants(net, s):
        return False
    return bool(is_valid_scenario(net, s))


def _culprit_prior(net: CausalNetwork, s: Scenario) -> float:
    prior = net.node(s.culprit).prior
    if prior is None:
        raise MissingPriorError(f"event {s.culprit} has no prior")
    return prior


def raw_probability(net: CausalNetwork, s: Scenario) -> float:
    """Culprit prior times the product of link conditionals (no validity check)."""
    p = _culprit_prior(net, s)
    for x, y in s.sorted_causations:
        p *= net.cond_prob(x, y)
    return p


def probability(net: CausalNetwork, s: Scenario) -> float:
    """Probability of a valid scenario under link independence."""
    verdict = is_valid_scenario(net, s)
    if not verdict:
        raise InvalidScenarioError(f"{s!r}: {verdict.reason}")
    return raw_probability(net, s)


def log_weight(net: CausalNetwork, s: Scenario) -> float:
    """Additive weight ln(1/prior) + sum of ln(1/p) over causations.

    Defined for any scenario shape; validity is not required here.
    """
    w = math.log(1.0 / _culprit_prior(net, s))
    for x, y in s.sorted_causations:
        w += math.log(1.0 / net.cond_prob(x, y))
    return w
