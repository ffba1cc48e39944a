"""Scenario semantics: construction, validity, preemption, weight and rank.

A scenario pairs a culprit event with a set of causal links.  It is valid
when the links can be attached one at a time: each link ``x -> y`` must hang
off a maximally specific current participant ``p`` that specializes ``x``,
and the attachment must not be preempted by a more specific alternative.
``is_valid_scenario`` decides this by one depth-first search that tries the
attachable links, sorted, each at its attach points, sorted; a hint (such
as the tree order ``explain`` passes) only chooses the first descent.

Preemption is resolved at the link level.  Attaching ``x -> y`` at ``p`` is
preempted when the network offers another link ``u -> w`` with ``u`` strictly
more specific than ``x`` on p's climb (``p isa* u isa* x``), ``w`` touching
the attached pair, ``u -> w`` not already part of the scenario, and that
alternative itself standing (recursively unpreempted at ``p``).  Each
alternative to a link leaves an event strictly more specific than the
link's cause, so one sweep up p's climb, most specific event first,
judges each link that matters once.  This gives the usual
reference-class behaviour: with ``d isa b isa a`` and links
``a -> e``, ``b -> e``, only the most specific available link may carry the
causation when attaching at ``d``.

Scenarios are trees: every effect is caused by at most one link and the
culprit is never an effect.  Together with the acyclic causal+isa union this
keeps every valid scenario realizable as an arborescence in the search
graph, which the solver relies on.

Some links can be ruled out per culprit before any scenario is built.  The
attach points of ``x`` below ``r`` are the events ``p != x`` with
``p isa* x`` that ``r`` reaches through the cause+isa union and that are no
proper isa ancestor of ``r``: ``r`` itself and the events it reaches off
its isa climb.  A link ``x -> y`` is shadowed below ``r`` when at every
attach point ``p`` (vacuously, if ``x`` has none) some ``u`` with
``p isa* u isa+ x`` has a link ``u -> y``, and no ``u'`` with
``p isa* u' isa+ u`` has a link ``u' -> y`` or ``u' -> u``.
``shadow_table`` lists these links for every ``x`` with an attach point,
from one pass up each attach point's climb (``covered_below``).

No valid scenario rooted at ``r`` holds a shadowed ``x -> y`` in which ``x``
is never a maximally specific participant.  Every participant descends
from ``r`` through the cause+isa union, so by acyclicity ``r`` is always
maximally specific and its proper ancestors never are.  As ``x`` is never
maximal, ``x -> y`` attaches at a maximal participant ``p != x`` that
specializes ``x``: an attach point.  There ``u -> y`` is a candidate
alternative that nothing more specific can preempt, and it is never
already placed, because then ``y`` would be caused twice, which
``is_valid_scenario`` rejects before it searches.  So
``preempting_alternative`` returns ``u -> y`` or an earlier alternative.

``x`` is never maximal in two cases.  (a) ``x`` is a proper isa ancestor of
``r``, which stays a participant below it.  (b) ``x`` is neither the
culprit nor an effect: in every scenario of a tree that enters ``x`` by
an isa edge, and in every scenario rooted at ``r != x`` when no causal
link of the network enters ``x``.  Then ``x`` joins the participants
only through its own out-links.  The first of them hangs off a strict
specialization of ``x``, since ``x`` is no participant yet, and that
specialization stays a participant below ``x``.  So no valid scenario
rooted at ``r`` holds a shadowed link out of a proper isa ancestor of
``r`` or out of an uncaused ``x != r``; the search forbids these from
the start.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import AbstractSet, Iterable, Iterator

from .errors import (
    InvalidArgumentError,
    InvalidScenarioError,
    MissingPriorError,
    UnknownEventError,
    UnknownLinkError,
)
from .kb import CausalNetwork, EventId, isa_postorder

Link = tuple[EventId, EventId]


class Scenario(namedtuple("Scenario", "culprit causations")):
    """A culprit plus a set of causation links; may be invalid as given."""

    __slots__ = ()

    @classmethod
    def make(cls, culprit: EventId, causations: Iterable[Link] = ()) -> "Scenario":
        return cls(culprit, frozenset(tuple(c) for c in causations))

    @property
    def sorted_causations(self) -> tuple[Link, ...]:
        return tuple(sorted(self.causations))

    def __repr__(self) -> str:
        links = ", ".join(f"{x}->{y}" for x, y in self.sorted_causations)
        return f"Scenario({self.culprit}, {{{links}}})"


AttachStep = namedtuple("AttachStep", "participant ref_class added_link sub_scenario_root")
AttachStep.__doc__ = "One construction step: ref_class's link was hung off participant."
ValidityCertificate = namedtuple("ValidityCertificate", "steps")


class ValidityResult(namedtuple("ValidityResult", "valid certificate reason", defaults=(None, None))):
    """A verdict, true exactly when valid (a plain non-empty tuple is always true)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.valid


def check_query(net: CausalNetwork, observations: Iterable[EventId], k: int) -> frozenset[EventId]:
    """The observation set of a k-best query, checked in a fixed order: the
    set is non-empty, k is positive, and every observation is an event of
    net (the first unknown one in sorted order is named)."""
    obs = frozenset(observations)
    if not obs:
        raise InvalidArgumentError("observation set must be non-empty")
    if k < 1:
        raise InvalidArgumentError("k must be positive")
    for o in sorted(obs):
        if not net.has_event(o):
            raise UnknownEventError(f"unknown event: {o}")
    return obs


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


def preempting_alternative(
    net: CausalNetwork,
    placed: AbstractSet[Link],
    caused: AbstractSet[EventId],
    p: EventId,
    x: EventId,
    y: EventId,
) -> Link | None:
    """The link that preempts attaching ``x -> y`` at ``p``, if any.

    Candidates are network links ``u -> w`` with ``p isa* u isa* x``,
    ``u != x`` and ``w`` in {x, y}, skipping links already placed and
    targets already caused.  A candidate preempts only if it stands: no
    candidate against it stands, where the candidates against ``u -> w``
    are the unplaced links ``u' -> w`` and, while u is not caused,
    ``u' -> u``, with ``p isa* u' isa+ u``.  Each of them leaves an event
    strictly more specific than u, so one sweep over the events between p
    and x, most specific first, judges every relevant link once.  The
    answer is the first standing candidate in name order, ``u -> y``
    before ``u -> x``.
    """
    # The walk up from p lists the events between p and x most general
    # first; it skips isa_star(x), where nothing specializes x.
    between = {x}
    order: list[EventId] = []
    for v in isa_postorder(net, p, net.isa_star(x)):
        if not between.isdisjoint(net.parents_of(v)):
            between.add(v)
            order.append(v)
    # standing[w]: the sources of the standing links into w swept so far.
    standing: dict[EventId, list[EventId]] = {}
    for u in reversed(order):
        for w in net.effects_of(u):
            if (w != y and w not in between) or (u, w) in placed:
                continue
            if any(u in net.isa_star(s) for s in standing.get(w, ())):
                continue
            if u not in caused and any(u in net.isa_star(s) for s in standing.get(u, ())):
                continue
            standing.setdefault(w, []).append(u)
    alts = [(u, y) for u in standing.get(y, ())]
    if x not in caused:
        alts += [(u, x) for u in standing.get(x, ())]
    return min(alts, key=lambda alt: (alt[0], alt[1] != y)) if alts else None


def covered_below(net: CausalNetwork, p: EventId) -> dict[EventId, set[EventId]]:
    """For each proper isa ancestor x of p, the ys that some u with
    ``p isa* u isa+ x`` has a clear link to: no u' with ``p isa* u' isa+ u``
    has a link u' -> y or u' -> u.

    One pass up p's climb, most specific first: each event hands its
    parents the targets of the links from it and below it, and the ys of
    the clear links from below it and from it.
    """
    into: dict[EventId, set[EventId]] = {}
    clear: dict[EventId, set[EventId]] = {}
    for v in reversed(isa_postorder(net, p)):
        ys = net.effects_of(v)
        below = into.get(v, ())
        ok = clear.get(v, ())
        if ys and v not in below:
            ok = {*ok, *(y for y in ys if y not in below)}
        below = {*below, *ys}
        for q in net.parents_of(v):
            into.setdefault(q, set()).update(below)
            clear.setdefault(q, set()).update(ok)
    return clear


def shadow_table(
    net: CausalNetwork, root: EventId, reach: AbstractSet[EventId], passes: dict
) -> dict[EventId, frozenset[Link]]:
    """The links shadowed below root (see the module docstring): for each
    event x that some attach point below root specializes, the links
    x -> y shadowed there.

    ``reach`` holds the events root reaches.  Each attach point p with an
    isa parent has one ``covered_below`` pass, whose entries narrow the
    table's.  ``passes`` maps p to its pass; a pass depends on p alone, so
    the tables of one network can share it, and missing passes are added.
    """
    ys_of: dict[EventId, set[EventId]] = {}
    for p in (root, *(reach - net.isa_star(root))):
        if net.parents_of(p):
            if p not in passes:
                passes[p] = covered_below(net, p)
            for x, ys in passes[p].items():
                ys_of[x] = ys.intersection(ys_of.get(x, net.effects_of(x)))
    return {x: frozenset((x, y) for y in ys) for x, ys in ys_of.items()}


def is_valid_scenario(
    net: CausalNetwork, s: Scenario, order: Iterable[Link] | None = None, _shuffle=None
) -> ValidityResult:
    """Decide scenario validity and produce a certificate or a reason.

    Each level of the search tries the attachable unplaced links, sorted,
    each at its attach points, sorted, listed lazily from the maximal
    participants kept as events join and leave: on an isa-free chain the
    search is linear.  An option stands unless ``preempting_alternative``
    names a blocker (none exists at ``p == x``: no cause lies strictly
    between), and a placement whose every continuation fails is not
    entered again.  The verdict does not depend on the order tried
    (``_shuffle`` shuffles each level for exactly that property test); the
    reason is the first failure met.

    ``order`` is an optional hint, an order of s's links (``explain``
    passes its tree's causal edges in BFS order).  The first descent takes
    the hint's next link at its first clearing attach point; if it places
    every link, its steps are the certificate.  Otherwise, or if the hint
    is no order of s's links, the search starts over without it.
    """
    if not net.has_event(s.culprit):
        raise UnknownEventError(f"unknown event: {s.culprit}")
    links = s.causations
    if not all(starmap(net.is_link, links)):
        x, y = min(link for link in links if not net.is_link(*link))
        raise UnknownLinkError(f"no causal link {x}->{y}")
    caused = {y for _, y in links}
    if len(caused) < len(links):
        seen: set[EventId] = set()
        for _, y in s.sorted_causations:
            if y in seen:
                return ValidityResult(False, reason=f"effect {y} caused by more than one link")
            seen.add(y)
    if s.culprit in caused:
        return ValidityResult(False, reason=f"culprit {s.culprit} appears as an effect")
    if not links:
        return ValidityResult(True, ValidityCertificate(()))
    caused.add(s.culprit)
    hint = None if order is None else list(order)
    if hint is not None and (len(hint) != len(links) or set(hint) != links):
        hint = None

    # Each participant maps to the number of links placed before the one
    # that brought it in (the culprit to -1), and ``cover[u]`` counts the
    # participants strictly below u: the uncovered ones are maximal, and
    # x's links can attach while x participates or is covered.  Only the
    # search keeps ``frontier``, those links unplaced, and ``by_cause``.
    placed: set[Link] = set()
    parts = {s.culprit: -1}
    cover = dict.fromkeys(net.isa_star(s.culprit) - {s.culprit}, 1)
    by_cause: dict[EventId, list[Link]] = {}
    frontier: set[Link] = set()

    def move(link: Link, up: bool) -> None:
        """Place link (up) or take it back.  A cause's links switch in or out
        of the frontier together: as it becomes attachable none is placed
        (the cause would participate) or listed, and as it stops all are."""
        if up:
            placed.add(link)
            frontier.discard(link)
        else:
            placed.remove(link)
            frontier.add(link)  # its cause participates until it leaves
        i = len(placed) - up  # the links placed before this one
        for v in link:
            if (parts.setdefault(v, i) if up else parts[v]) != i:
                continue  # v participates before and after
            if not up:
                del parts[v]
            if v in by_cause and not cover.get(v):
                frontier.symmetric_difference_update(by_cause[v])
            ups = net.isa_star(v)
            if len(ups) > 1:
                for u in ups - {v}:
                    c = cover[u] = cover.get(u, 0) + (1 if up else -1)
                    if c == up and u not in parts and u in by_cause:
                        frontier.symmetric_difference_update(by_cause[u])

    def points(x: EventId) -> Iterable[EventId]:
        """x's attach points: the maximal participants q with ``q isa* x``."""
        if x in parts and not cover.get(x):
            return (x,)
        return sorted(q for q in parts if not cover.get(q) and x in net.isa_star(q))

    def level() -> tuple[Iterator[tuple[Link, EventId]], bool]:
        """The options at the current placement, in the order tried, and
        whether there may be more than one."""
        if hint is not None:  # a failed hint starts over, so it records nothing
            link = hint[len(placed)]
            x = link[0]
            if x in parts and not cover.get(x):  # the common case, kept cheap
                return iter(((link, x),)), False
            return zip(repeat(link), points(x)), False
        if not by_cause:  # the search's first level: it alone keeps them
            for link in links:
                by_cause.setdefault(link[0], []).append(link)
            frontier.clear()
            frontier.update(link for link in links if link[0] in parts or cover.get(link[0]))
        ready = sorted(frontier)
        options = ((link, p) for link in ready for p in points(link[0]))
        if _shuffle is None and len(ready) > 1:
            return options, True
        options = list(options)
        if _shuffle is not None:
            _shuffle.shuffle(options)
        return iter(options), len(options) > 1

    # A dead placement is recorded only if some level on its path may list
    # two options: otherwise no other order or attach point reaches it.
    # Each stack entry is a level's options and whether it or a level
    # below it may list two.
    reason: str | None = None
    dead: set[frozenset[Link]] = set()
    steps: list[AttachStep] = []
    stack = [level()]
    while stack:
        for link, p in stack[-1][0]:
            x, y = link
            if p != x:
                blocker = preempting_alternative(net, placed, caused, p, x, y)
                if blocker is not None:
                    if hint is None and reason is None:
                        reason = f"preempted: {x}->{y} by {blocker[0]}->{blocker[1]}"
                    continue
            if dead and frozenset((*placed, link)) in dead:
                continue
            steps.append(AttachStep(p, x, link, y))
            if len(steps) == len(links):
                return ValidityResult(True, ValidityCertificate(tuple(steps)))
            move(link, True)
            options, fork = level()
            stack.append((options, fork or stack[-1][1]))
            break
        else:
            if hint is not None:  # its next link attaches nowhere: start over
                hint = None
                while steps:
                    move(steps.pop().added_link, False)
                stack = [level()]
                continue
            if reason is None:  # a level dies unexplained only if it had no options
                reason = f"unattachable: no participant specializes {min(links - placed)[0]}"
            stack.pop()
            if stack and stack[-1][1]:
                dead.add(frozenset(placed))
            if steps:
                move(steps.pop().added_link, False)
    return ValidityResult(False, reason=reason)


def is_explanation(net: CausalNetwork, s: Scenario, observations: Iterable[EventId]) -> bool:
    """Valid scenario, disorder culprit, observations among participants."""
    obs = frozenset(observations)
    for o in sorted(obs):
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


WEIGHT_TIE_TOL = 1e-9


@dataclass(frozen=True)
class RankedExplanation:
    rank: int
    scenario: Scenario
    log_weight: float
    probability: float


def structure_key(s: Scenario) -> tuple[int, tuple[Link, ...], EventId]:
    """Deterministic tie order: fewer links, then link list, then culprit."""
    return (len(s.causations), s.sorted_causations, s.culprit)


def order_and_rank(weighted: Iterable[tuple[Scenario, float, float]]) -> list[RankedExplanation]:
    """Sort by weight, breaking ties within ``WEIGHT_TIE_TOL`` by structure_key."""
    items = sorted(weighted, key=lambda t: (t[1], structure_key(t[0])))
    groups: list[list[tuple[Scenario, float, float]]] = []
    for item in items:
        if groups and item[1] - groups[-1][-1][1] <= WEIGHT_TIE_TOL:
            groups[-1].append(item)
        else:
            groups.append([item])
    out: list[RankedExplanation] = []
    for group in groups:
        group.sort(key=lambda t: structure_key(t[0]))
        for s, w, p in group:
            out.append(RankedExplanation(len(out) + 1, s, w, p))
    return out
