"""Causal-network knowledge base.

A network is a triple of events, causal links (cause -> effect, each with a
conditional probability) and isa links (child -> parent).  Both relations are
kept acyclic, and so is their union, which guarantees that diagnostic
scenarios drawn from the network are trees.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from operator import itemgetter

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

# Immutable tuple records: they unpack, and compare equal to plain tuples.
EventNode = namedtuple("EventNode", "id prior is_disorder", defaults=(None, False))
EventNode.__doc__ = "A declared event; disorders must carry a prior in (0, 1]."
CausalLink = namedtuple("CausalLink", "cause effect cond_prob")
IsaLink = namedtuple("IsaLink", "child parent")

_BY_ID = itemgetter(0)
_BY_PAIR = itemgetter(0, 1)


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
        "_generals",
        "_successors",
        "_isa_star",
    )

    def __init__(
        self,
        events: tuple[EventNode, ...],
        causal: tuple[CausalLink, ...],
        isa: tuple[IsaLink, ...],
    ):
        events = tuple(sorted(events, key=_BY_ID))
        causal = tuple(sorted(causal, key=_BY_PAIR))
        isa = tuple(sorted(isa, key=_BY_PAIR))
        if not events:
            raise ParseError("network declares no events")

        nodes: dict[EventId, EventNode] = {}
        for node in events:
            e, prior, is_disorder = node
            if e in nodes:
                raise DuplicateDeclarationError(f"event {e} declared twice")
            if prior is not None and not 0.0 < prior <= 1.0:
                raise ProbabilityOutOfRangeError(f"prior {prior!r} of {e} not in (0, 1]")
            if is_disorder and prior is None:
                raise MissingDisorderPriorError(f"disorder {e} has no prior")
            nodes[e] = node

        # Links arrive sorted by pair: every list below fills in sorted
        # order, and a repeated isa link directly follows its twin.
        cond: dict[tuple[EventId, EventId], float] = {}
        effects: dict[EventId, list[EventId]] = {}
        causes: dict[EventId, list[EventId]] = {}
        for x, y, p in causal:
            if x not in nodes:
                raise UnknownEventError(f"unknown event: {x}")
            if y not in nodes:
                raise UnknownEventError(f"unknown event: {y}")
            if (x, y) in cond:
                raise DuplicateDeclarationError(f"cause {x} {y} declared twice")
            if not 0.0 < p <= 1.0:
                raise ProbabilityOutOfRangeError(f"p={p!r} of {x}->{y} not in (0, 1]")
            if x == y:
                raise UnionCycleError([x])
            cond[(x, y)] = p
            effects.setdefault(x, []).append(y)
            causes.setdefault(y, []).append(x)

        parents: dict[EventId, list[EventId]] = {}
        for pair in isa:
            c, p = pair
            if c not in nodes:
                raise UnknownEventError(f"unknown event: {c}")
            if p not in nodes:
                raise UnknownEventError(f"unknown event: {p}")
            got = parents.setdefault(c, [])
            if got and got[-1] == p:
                raise DuplicateDeclarationError(f"isa {c} {p} declared twice")
            if pair in cond:
                raise DuplicateDeclarationError(f"{c} -> {p} declared as both cause and isa")
            got.append(p)

        self._links_by_cause = {x: tuple(ys) for x, ys in effects.items()}
        self._links_by_effect = {y: tuple(xs) for y, xs in causes.items()}
        self._parents = {e: tuple(parents.get(e, ())) for e in nodes}
        self._generals = frozenset(p for _, p in isa)

        # One search over the union, which holds every isa cycle too; the
        # isa cycle takes precedence, so only then is the isa relation
        # searched alone.  A pair is never both a cause and an isa link, so
        # each event's two lists are disjoint.
        by_cause = self._links_by_cause
        self._successors = union = {
            e: tuple(sorted(by_cause.get(e, ()) + ps)) if ps else by_cause.get(e, ())
            for e, ps in self._parents.items()
        }
        cycle = _find_cycle(union)
        if cycle:
            isa_cycle = _find_cycle(self._parents)
            if isa_cycle:
                raise IsaCycleError(isa_cycle)
            raise UnionCycleError(cycle)

        self.events = events
        self.causal = causal
        self.isa = isa
        self._nodes = nodes
        self._cond = cond
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
        return self._parents.get(e, ())

    def has_specializations(self, e: EventId) -> bool:
        """Whether some event has an isa link to e."""
        return e in self._generals

    def successors(self, e: EventId) -> tuple[EventId, ...]:
        """e's effects and isa parents, sorted: its out-edges' heads."""
        return self._successors.get(e, ())

    def isa_star(self, e: EventId) -> frozenset[EventId]:
        """All events reachable from e by zero or more isa steps."""
        # Computed on first use: the closures of an n-event isa chain hold
        # n^2/2 members in all, too many to build for every event up front.
        got = self._isa_star.get(e)
        if got is None:
            if e not in self._nodes:
                raise UnknownEventError(f"unknown event: {e}")
            got = self._isa_star[e] = frozenset(isa_postorder(self, e))
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


def _find_cycle(adj: dict[str, object]) -> list[str] | None:
    """Return one directed cycle of adj as a node list, or None.  The
    search starts from each key in adj's order."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adj, WHITE)
    for start in adj:
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        path = [start]
        pending = [iter(adj[start])]
        while pending:
            for w in pending[-1]:
                if color[w] == GRAY:
                    return path[path.index(w):]
                if color[w] == WHITE:
                    color[w] = GRAY
                    path.append(w)
                    pending.append(iter(adj[w]))
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
    links may appear before the events they mention.  A repeated event, a
    repeated token on an event line and a repeated link (or a pair declared
    both as cause and as isa) are reported at their later line.
    """
    events: list[EventNode] = []
    causal: list[CausalLink] = []
    isa: list[IsaLink] = []
    declared: set[EventId] = set()
    links: dict[tuple[EventId, EventId], str] = {}

    for no, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "event":
            if len(toks) < 2:
                raise ParseError("event needs a name", no)
            name = _ident(toks[1], no)
            prior: float | None = None
            disorder = False
            for tok in toks[2:]:
                if tok == "disorder":
                    if disorder:
                        raise ParseError(f"repeated token {tok!r}", no, tok)
                    disorder = True
                elif tok.startswith("prior="):
                    if prior is not None:
                        raise ParseError(f"repeated token {tok!r}", no, tok)
                    prior = _prob(tok[6:], no, tok)
                else:
                    raise ParseError(f"unexpected token {tok!r}", no, tok)
            if name in declared:
                raise DuplicateDeclarationError(f"event {name} declared twice", no)
            declared.add(name)
            events.append(EventNode(name, prior, disorder))
            continue
        if kind == "cause":
            if len(toks) != 4 or not toks[3].startswith("p="):
                raise ParseError("cause needs two events and p=<float>", no)
            p = _prob(toks[3][2:], no, toks[3])
            x, y = _ident(toks[1], no), _ident(toks[2], no)
            causal.append(CausalLink(x, y, p))
        elif kind == "isa":
            if len(toks) != 3:
                raise ParseError("isa needs exactly two event names", no)
            x, y = _ident(toks[1], no), _ident(toks[2], no)
            isa.append(IsaLink(x, y))
        else:
            raise ParseError(f"unknown directive {kind!r}", no, kind)
        first = links.get((x, y))
        if first == kind:
            raise DuplicateDeclarationError(f"{kind} {x} {y} declared twice", no)
        if first is not None:
            raise DuplicateDeclarationError(f"{x} -> {y} declared as both cause and isa", no)
        links[(x, y)] = kind

    return CausalNetwork(events, causal, isa)


def _ident(tok: str, no: int) -> str:
    """tok, interned, if it is an ASCII identifier: a letter or ``_``, then
    letters, digits and ``_``."""
    if tok.isidentifier() and tok.isascii():
        return sys.intern(tok)
    raise ParseError(f"bad event id {tok!r}", no, tok)


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


def isa_postorder(net: CausalNetwork, e: EventId, skip: frozenset[EventId] = frozenset()) -> list[EventId]:
    """The events a depth-first walk reaches from e by isa steps, never
    entering skip, in postorder: every event comes after its parents, and
    e last."""
    order: list[EventId] = []
    walk = [(e, iter(net.parents_of(e)))]
    seen = {e, *skip}
    while walk:
        v, ups = walk[-1]
        for q in ups:
            if q not in seen:
                seen.add(q)
                walk.append((q, iter(net.parents_of(q))))
                break
        else:
            walk.pop()
            order.append(v)
    return order


def reachable(net: CausalNetwork, root: EventId) -> frozenset[EventId]:
    """Events reachable from root by causal and isa links."""
    seen = {root}
    todo = [root]
    while todo:
        for w in net.successors(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return frozenset(seen)


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


def multi_roots(net: CausalNetwork) -> tuple[CausalNetwork, tuple[EventId, ...]]:
    """The network multi mode searches and its culprits: a declared
    distinguished root is kept, else ``add_top`` adds one, and only that
    root is a culprit, if it is a disorder."""
    work = net if net.top else add_top(net)
    return work, tuple(r for r in work.disorders if r == work.top)
