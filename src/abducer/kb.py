"""Causal-network knowledge base.

A network is a triple of events, causal links (cause -> effect, each with a
conditional probability) and isa links (child -> parent).  Both relations are
kept acyclic, and so is their union, which guarantees that diagnostic
scenarios drawn from the network are trees.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

from .errors import (
    DuplicateDeclarationError,
    IsaCycleError,
    MissingDisorderPriorError,
    ParseError,
    ProbabilityOutOfRangeError,
    ReservedNameError,
    UnknownEventError,
    UnknownLinkError,
    UnionCycleError,
)

EventId = str

TOP_NAME = "TOP"

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class EventNode:
    """A declared event; disorders must carry a prior in (0, 1]."""

    id: EventId
    prior: float | None = None
    is_disorder: bool = False


@dataclass(frozen=True)
class CausalLink:
    cause: EventId
    effect: EventId
    cond_prob: float


@dataclass(frozen=True)
class IsaLink:
    child: EventId
    parent: EventId


class CausalNetwork:
    """Immutable network with precomputed lookup tables.

    Construction validates every structural invariant: non-empty event set,
    unique declarations, probabilities in (0, 1], priors on disorders,
    disjoint causal/isa relations, no self-causation, acyclic isa relation
    and an acyclic causal+isa union.
    """

    __slots__ = (
        "events",
        "causal",
        "isa",
        "top",
        "_nodes",
        "_cond",
        "_links_by_cause",
        "_links_by_effect",
        "_parents",
        "_children",
        "_isa_star",
    )

    def __init__(
        self,
        events: tuple[EventNode, ...],
        causal: tuple[CausalLink, ...],
        isa: tuple[IsaLink, ...],
    ):
        events = tuple(sorted(events, key=lambda n: n.id))
        causal = tuple(sorted(causal, key=lambda l: (l.cause, l.effect)))
        isa = tuple(sorted(isa, key=lambda l: (l.child, l.parent)))
        if not events:
            raise ParseError("network declares no events")

        nodes: dict[EventId, EventNode] = {}
        for node in events:
            if node.id in nodes:
                raise DuplicateDeclarationError(f"event {node.id} declared twice")
            if node.prior is not None and not 0.0 < node.prior <= 1.0:
                raise ProbabilityOutOfRangeError(
                    f"prior {node.prior!r} of {node.id} not in (0, 1]"
                )
            if node.is_disorder and node.prior is None:
                raise MissingDisorderPriorError(f"disorder {node.id} has no prior")
            nodes[node.id] = node

        cond: dict[tuple[EventId, EventId], float] = {}
        for link in causal:
            for end in (link.cause, link.effect):
                if end not in nodes:
                    raise UnknownEventError(f"unknown event: {end}")
            if (link.cause, link.effect) in cond:
                raise DuplicateDeclarationError(
                    f"cause {link.cause} {link.effect} declared twice"
                )
            if not 0.0 < link.cond_prob <= 1.0:
                raise ProbabilityOutOfRangeError(
                    f"p={link.cond_prob!r} of {link.cause}->{link.effect} not in (0, 1]"
                )
            if link.cause == link.effect:
                raise UnionCycleError([link.cause])
            cond[(link.cause, link.effect)] = link.cond_prob

        parents: dict[EventId, list[EventId]] = {n.id: [] for n in events}
        children: dict[EventId, list[EventId]] = {n.id: [] for n in events}
        seen_isa: set[tuple[EventId, EventId]] = set()
        for link in isa:
            for end in (link.child, link.parent):
                if end not in nodes:
                    raise UnknownEventError(f"unknown event: {end}")
            pair = (link.child, link.parent)
            if pair in seen_isa:
                raise DuplicateDeclarationError(
                    f"isa {link.child} {link.parent} declared twice"
                )
            if pair in cond:
                raise DuplicateDeclarationError(
                    f"{link.child} -> {link.parent} declared as both cause and isa"
                )
            seen_isa.add(pair)
            parents[link.child].append(link.parent)
            children[link.parent].append(link.child)

        self.events = events
        self.causal = causal
        self.isa = isa
        self._nodes = nodes
        self._cond = cond
        self._links_by_cause = _group(cond, 0)
        self._links_by_effect = _group(cond, 1)
        self._parents = {k: tuple(sorted(v)) for k, v in parents.items()}
        self._children = {k: tuple(sorted(v)) for k, v in children.items()}

        cycle = _find_cycle({k: v for k, v in self._parents.items()})
        if cycle:
            raise IsaCycleError(cycle)
        union_adj = {n.id: sorted(self._links_by_cause.get(n.id, ())) for n in events}
        for child, ps in self._parents.items():
            union_adj[child] = sorted(set(union_adj[child]) | set(ps))
        cycle = _find_cycle(union_adj)
        if cycle:
            raise UnionCycleError(cycle)

        self._isa_star: dict[EventId, frozenset[EventId]] = {}
        self.top = TOP_NAME if TOP_NAME in nodes else None

    # -- lookups -------------------------------------------------------

    def has_event(self, e: EventId) -> bool:
        return e in self._nodes

    def node(self, e: EventId) -> EventNode:
        try:
            return self._nodes[e]
        except KeyError:
            raise UnknownEventError(f"unknown event: {e}") from None

    @property
    def disorders(self) -> tuple[EventId, ...]:
        return tuple(n.id for n in self.events if n.is_disorder)

    def is_link(self, cause: EventId, effect: EventId) -> bool:
        return (cause, effect) in self._cond

    def cond_prob(self, cause: EventId, effect: EventId) -> float:
        try:
            return self._cond[(cause, effect)]
        except KeyError:
            raise UnknownLinkError(f"no causal link {cause}->{effect}") from None

    def effects_of(self, cause: EventId) -> tuple[EventId, ...]:
        return self._links_by_cause.get(cause, ())

    def causes_of(self, effect: EventId) -> tuple[EventId, ...]:
        return self._links_by_effect.get(effect, ())

    def parents_of(self, e: EventId) -> tuple[EventId, ...]:
        return self._parents[e]

    def isa_star(self, e: EventId) -> frozenset[EventId]:
        """All events reachable from e by zero or more isa steps."""
        # Computed on first use: the closures of an n-event isa chain hold
        # n^2/2 members in all, too many to build for every event up front.
        got = self._isa_star.get(e)
        if got is None:
            if e not in self._nodes:
                raise UnknownEventError(f"unknown event: {e}")
            seen = {e}
            todo = [e]
            while todo:
                for p in self._parents[todo.pop()]:
                    if p not in seen:
                        seen.add(p)
                        todo.append(p)
            got = self._isa_star[e] = frozenset(seen)
        return got

    def specializes(self, child: EventId, parent: EventId) -> bool:
        return parent in self.isa_star(child)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalNetwork):
            return NotImplemented
        return (self.events, self.causal, self.isa) == (other.events, other.causal, other.isa)

    def __hash__(self) -> int:
        return hash((self.events, self.causal, self.isa))

    def __repr__(self) -> str:
        return (
            f"CausalNetwork({len(self.events)} events, "
            f"{len(self.causal)} causal, {len(self.isa)} isa)"
        )


def _group(cond: dict[tuple[EventId, EventId], float], side: int) -> dict[EventId, tuple[EventId, ...]]:
    out: dict[EventId, list[EventId]] = {}
    for pair in cond:
        out.setdefault(pair[side], []).append(pair[1 - side])
    return {k: tuple(sorted(v)) for k, v in out.items()}


def _find_cycle(adj: dict[str, object]) -> list[str] | None:
    """Return one directed cycle of adj as a node list, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in adj}
    for start in sorted(adj):
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        path = [start]
        pending = [iter(adj.get(start, ()))]
        while pending:
            for w in pending[-1]:
                if color[w] == GRAY:
                    return path[path.index(w):]
                if color[w] == WHITE:
                    color[w] = GRAY
                    path.append(w)
                    pending.append(iter(adj.get(w, ())))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


# -- file format ---------------------------------------------------------


def parse_network(text: str) -> CausalNetwork:
    """Parse the causal-network file format.

    Lines are ``event <id> [prior=<float>] [disorder]``,
    ``isa <child> <parent>`` and ``cause <x> <y> p=<float>``.  ``#`` starts
    a comment and blank lines are ignored.  Declaration order is irrelevant:
    links may appear before the events they mention.
    """
    events: list[EventNode] = []
    causal: list[CausalLink] = []
    isa: list[IsaLink] = []
    declared: dict[EventId, int] = {}

    lines = text.splitlines()
    for no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "event":
            if len(toks) < 2:
                raise ParseError("event needs a name", no)
            name = _ident(toks[1], no)
            prior: float | None = None
            disorder = False
            for tok in toks[2:]:
                if tok == "disorder":
                    disorder = True
                elif tok.startswith("prior="):
                    prior = _prob(tok[len("prior="):], no, tok)
                else:
                    raise ParseError(f"unexpected token {tok!r}", no, tok)
            if name in declared:
                raise DuplicateDeclarationError(f"event {name} declared twice", no)
            declared[name] = no
            events.append(EventNode(name, prior, disorder))
        elif kind == "isa":
            if len(toks) != 3:
                raise ParseError("isa needs exactly two event names", no)
            isa.append(IsaLink(_ident(toks[1], no), _ident(toks[2], no)))
        elif kind == "cause":
            if len(toks) != 4 or not toks[3].startswith("p="):
                raise ParseError("cause needs two events and p=<float>", no)
            p = _prob(toks[3][len("p="):], no, toks[3])
            causal.append(CausalLink(_ident(toks[1], no), _ident(toks[2], no), p))
        else:
            raise ParseError(f"unknown directive {kind!r}", no, kind)

    return CausalNetwork(tuple(events), tuple(causal), tuple(isa))


def _ident(tok: str, no: int) -> str:
    if not _ID_RE.match(tok):
        raise ParseError(f"bad event id {tok!r}", no, tok)
    return tok


def _prob(text: str, no: int, tok: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad probability {tok!r}", no, tok) from None
    if not 0.0 < value <= 1.0:
        raise ProbabilityOutOfRangeError(f"probability {text} not in (0, 1]", no, tok)
    return value


def serialize_network(net: CausalNetwork) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    out: list[str] = []
    for node in net.events:
        parts = ["event", node.id]
        if node.prior is not None:
            parts.append(f"prior={node.prior!r}")
        if node.is_disorder:
            parts.append("disorder")
        out.append(" ".join(parts))
    for link in net.isa:
        out.append(f"isa {link.child} {link.parent}")
    for link in net.causal:
        out.append(f"cause {link.cause} {link.effect} p={link.cond_prob!r}")
    return "\n".join(out) + "\n"


# -- derived constructions ------------------------------------------------


def isa_ancestors(net: CausalNetwork, e: EventId) -> list[EventId]:
    """Ancestors of e (e included), most specific first.

    The order is a topological sort of the ancestor sub-DAG under isa,
    with name order breaking ties, so e always comes first.
    """
    anc = net.isa_star(e)
    indeg = {v: 0 for v in anc}
    for v in anc:
        for p in net.parents_of(v):
            if p in anc:
                indeg[p] += 1
    ready = [v for v in anc if indeg[v] == 0]
    heapq.heapify(ready)
    out: list[EventId] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for p in net.parents_of(v):
            if p in anc:
                indeg[p] -= 1
                if indeg[p] == 0:
                    heapq.heappush(ready, p)
    return out


def add_top(net: CausalNetwork) -> CausalNetwork:
    """Return a copy with the distinguished root event added.

    The root is a disorder with prior 1 and gets a causal link to every
    disorder that has no incoming causal link, with conditional probability
    equal to that disorder's prior.  Multi-disorder scenarios can then be
    rooted at the single added event.
    """
    if net.has_event(TOP_NAME):
        raise ReservedNameError(f"event name {TOP_NAME!r} is reserved")
    events = net.events + (EventNode(TOP_NAME, prior=1.0, is_disorder=True),)
    new_links = [
        CausalLink(TOP_NAME, d, net.node(d).prior)  # type: ignore[arg-type]
        for d in net.disorders
        if not net.causes_of(d)
    ]
    return CausalNetwork(events, net.causal + tuple(new_links), net.isa)
