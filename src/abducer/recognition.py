"""Concept recognition over a taxonomy with instance counts.

A recognition KB lists concepts with instance counts, an isa taxonomy,
and per-concept property statistics (#c[p,v] of the #c instances of c
have value v for property p).  Recognition maps this onto the diagnosis
machinery: concepts become disorders with prior 1/#c, each distinct
property value becomes a node "p=v", and a concept with #c[p,v] > 0 gets
a causal edge to that node with conditional probability #c[p,v]/#c.
Finding the candidate concept that best explains a description is then
the usual lightest-valid-tree search, and its weight equals
-ln(#c * prod(#c_p[p,v]/#c_p)) taken over the relevant concept c_p for
each described value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    AmbiguousReferenceClassError,
    CountExceedsParentError,
    DuplicateDeclarationError,
    NoRelevantConceptError,
    ParseError,
    UnknownConceptError,
    UnknownPropertyValueError,
)
from .kb import CausalLink, CausalNetwork, EventId, EventNode, IsaLink, _ident
from .solver import (
    SolveStats,
    SteinerTree,
    WeightedSearchGraph,
    best_valid_tree,
    build_search_graph,
)


@dataclass(frozen=True)
class Concept:
    id: EventId
    count: int


@dataclass(frozen=True)
class PropertySpec:
    concept: EventId
    property: str
    value: str
    count: int


def value_node(prop: str, value: str) -> EventId:
    return f"{prop}={value}"


class RecognitionKB:
    __slots__ = ("concepts", "isa", "specs", "_by_id", "_spec_at", "_net")

    def __init__(
        self,
        concepts: Iterable[Concept],
        isa: Iterable[IsaLink],
        specs: Iterable[PropertySpec],
    ):
        self.concepts = tuple(sorted(concepts, key=lambda c: c.id))
        self.isa = tuple(sorted(isa, key=lambda l: (l.child, l.parent)))
        self.specs = tuple(
            sorted(specs, key=lambda s: (s.concept, s.property, s.value))
        )

        self._by_id: dict[str, Concept] = {}
        for c in self.concepts:
            if c.count < 1:
                raise ValueError(f"concept {c.id} needs a positive count")
            if c.id in self._by_id:
                raise DuplicateDeclarationError(f"duplicate concept: {c.id}")
            self._by_id[c.id] = c

        self._spec_at: dict[tuple[str, str, str], PropertySpec] = {}
        for s in self.specs:
            if s.concept not in self._by_id:
                raise UnknownConceptError(f"unknown concept: {s.concept}")
            if s.count < 0:
                raise ValueError(f"spec count for {s.concept} may not be negative")
            if s.count > self._by_id[s.concept].count:
                raise CountExceedsParentError(
                    f"spec {s.property}={s.value} count {s.count} exceeds "
                    f"count of {s.concept} ({self._by_id[s.concept].count})"
                )
            key = (s.concept, s.property, s.value)
            if key in self._spec_at:
                raise DuplicateDeclarationError(
                    f"duplicate spec: {s.concept} {s.property}={s.value}"
                )
            self._spec_at[key] = s

        for l in self.isa:
            for end in (l.child, l.parent):
                if end not in self._by_id:
                    raise UnknownConceptError(f"unknown concept: {end}")
            if self._by_id[l.child].count > self._by_id[l.parent].count:
                raise CountExceedsParentError(
                    f"count of {l.child} ({self._by_id[l.child].count}) exceeds "
                    f"count of {l.parent} ({self._by_id[l.parent].count})"
                )

        events = [
            EventNode(c.id, prior=1.0 / c.count, is_disorder=True)
            for c in self.concepts
        ]
        pv_nodes = sorted({value_node(s.property, s.value) for s in self.specs})
        events += [EventNode(n) for n in pv_nodes]
        causal = [
            CausalLink(s.concept, value_node(s.property, s.value),
                       s.count / self._by_id[s.concept].count)
            for s in self.specs
            if s.count > 0
        ]
        # Network validation covers the remaining invariants (isa acyclicity,
        # duplicate isa links, endpoint checks on the synthesized nodes).
        self._net = CausalNetwork(events, causal, self.isa)

    def has_concept(self, c: str) -> bool:
        return c in self._by_id

    def concept(self, c: str) -> Concept:
        if c not in self._by_id:
            raise UnknownConceptError(f"unknown concept: {c}")
        return self._by_id[c]

    def spec_for(self, c: str, p: str, v: str) -> PropertySpec | None:
        return self._spec_at.get((c, p, v))

    def isa_star(self, c: str) -> frozenset[str]:
        return self._net.isa_star(c)

    def known_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset((s.property, s.value) for s in self.specs)

    def to_causal_network(self) -> CausalNetwork:
        return self._net


@dataclass(frozen=True)
class RecognitionQuery:
    cset: frozenset[str]
    descr: frozenset[tuple[str, str]]

    @classmethod
    def make(cls, cset: Iterable[str], descr: Iterable[tuple[str, str]]) -> "RecognitionQuery":
        return cls(frozenset(cset), frozenset((p, v) for p, v in descr))


def _count_int(token: str, line_no: int) -> int:
    if not token.startswith("count="):
        raise ParseError("expected count=<int>", line_no, token)
    try:
        return int(token[len("count="):])
    except ValueError:
        raise ParseError("count must be an integer", line_no, token) from None


def parse_recognition_kb(text: str) -> RecognitionKB:
    """Parse the line-oriented concept/isa/prop format."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body.split()))

    concepts: list[Concept] = []
    isa: list[IsaLink] = []
    specs: list[PropertySpec] = []
    for no, toks in lines:
        head = toks[0]
        if head == "concept":
            if len(toks) != 3:
                raise ParseError("expected: concept <id> count=<int>", no, " ".join(toks))
            cid = _ident(toks[1], no)
            n = _count_int(toks[2], no)
            if n < 1:
                raise ParseError("concept count must be positive", no, toks[2])
            concepts.append(Concept(cid, n))
        elif head == "isa":
            if len(toks) != 3:
                raise ParseError("expected: isa <child> <parent>", no, " ".join(toks))
            isa.append(IsaLink(_ident(toks[1], no), _ident(toks[2], no)))
        elif head == "prop":
            if len(toks) != 4 or "=" not in toks[2]:
                raise ParseError(
                    "expected: prop <concept> <property>=<value> count=<int>",
                    no,
                    " ".join(toks),
                )
            cid = _ident(toks[1], no)
            p, _, v = toks[2].partition("=")
            n = _count_int(toks[3], no)
            if n < 0:
                raise ParseError("spec count may not be negative", no, toks[3])
            specs.append(PropertySpec(cid, _ident(p, no), _ident(v, no), n))
        else:
            raise ParseError(f"unknown directive: {head}", no, head)
    if not concepts:
        raise ParseError("no concepts declared", 0, "")
    return RecognitionKB(concepts, isa, specs)


def serialize_recognition_kb(kb: RecognitionKB) -> str:
    out = [f"concept {c.id} count={c.count}" for c in kb.concepts]
    out += [f"isa {l.child} {l.parent}" for l in kb.isa]
    out += [
        f"prop {s.concept} {s.property}={s.value} count={s.count}" for s in kb.specs
    ]
    return "\n".join(out) + "\n"


def relevant_concept(kb: RecognitionKB, c: str, p: str, v: str) -> str | None:
    """The concept whose [p,v] statistic applies to c: c itself when it has
    an own spec, otherwise the unique maximally specific ancestor that has
    one.  None when no ancestor does."""
    kb.concept(c)
    if kb.spec_for(c, p, v) is not None:
        return c
    holders = [a for a in kb.isa_star(c) if a != c and kb.spec_for(a, p, v) is not None]
    if not holders:
        return None
    minimal = [
        a
        for a in holders
        if not any(b != a and a in kb.isa_star(b) for b in holders)
    ]
    if len(minimal) > 1:
        pair = ", ".join(sorted(minimal))
        raise AmbiguousReferenceClassError(
            f"ambiguous reference class for {p}={v} at {c}: {pair}"
        )
    return minimal[0]


def shastri_score(kb: RecognitionKB, c: str, descr: Iterable[tuple[str, str]]) -> Fraction:
    """#c times the product over the description of #c_p[p,v]/#c_p, with
    c_p the relevant concept; exact rational arithmetic."""
    score = Fraction(kb.concept(c).count)
    for p, v in sorted(set(descr)):
        rc = relevant_concept(kb, c, p, v)
        if rc is None:
            raise NoRelevantConceptError(f"{c} has no relevant concept for {p}={v}")
        spec = kb.spec_for(rc, p, v)
        score *= Fraction(spec.count, kb.concept(rc).count)  # type: ignore[union-attr]
    return score


def build_recognition_graph(kb: RecognitionKB) -> WeightedSearchGraph:
    """The diagnosis search graph with Shastri's root weights.

    Edge weights come from the synthesized network (ln(#c/#c[p,v]) on
    has-property edges, 0 on isa), but a concept's node weight is
    ln(1/#c), which is negative for #c > 1.  That is safe because node
    weights only ever compare candidate roots; they never enter edge
    relaxation."""
    g = build_search_graph(kb.to_causal_network())
    weights = {c.id: math.log(1.0 / c.count) for c in kb.concepts}
    return WeightedSearchGraph(g.nodes, g.edges, weights)


@dataclass(frozen=True)
class RecognitionResult:
    concept: str
    applicable: bool
    weight: float | None
    score: Fraction | None
    reason: str | None
    tree: SteinerTree | None


def recognize(
    kb: RecognitionKB,
    query: RecognitionQuery,
    stats: SolveStats | None = None,
) -> list[RecognitionResult]:
    """Rank the candidate concepts by exact score, ties by concept id.

    A candidate is applicable when a valid tree covering the described
    property values exists; its weight -ln(score) is that lightest tree's
    weight.  Candidates that cannot be scored are reported as inapplicable
    rather than dropped."""
    if not query.cset:
        raise ValueError("candidate set must be non-empty")
    if not query.descr:
        raise ValueError("description must be non-empty")
    for c in sorted(query.cset):
        kb.concept(c)
    known = kb.known_pairs()
    for p, v in sorted(query.descr):
        if (p, v) not in known:
            raise UnknownPropertyValueError(f"unknown property-value: {p}={v}")

    net = kb.to_causal_network()
    g = build_recognition_graph(kb)
    terminals = sorted(value_node(p, v) for p, v in query.descr)

    ranked: list[RecognitionResult] = []
    inapplicable: list[RecognitionResult] = []
    for c in sorted(query.cset):
        try:
            score = shastri_score(kb, c, query.descr)
        except (NoRelevantConceptError, AmbiguousReferenceClassError) as err:
            inapplicable.append(RecognitionResult(c, False, None, None, str(err), None))
            continue
        if score == 0:
            p, v = next(
                (p, v)
                for p, v in sorted(query.descr)
                if kb.spec_for(relevant_concept(kb, c, p, v), p, v).count == 0  # type: ignore[union-attr,arg-type]
            )
            inapplicable.append(
                RecognitionResult(c, False, None, score, f"no {p}={v} instances", None)
            )
            continue
        found = best_valid_tree(net, g, c, terminals, stats)
        if found is None:
            inapplicable.append(
                RecognitionResult(c, False, None, score, "no connecting tree", None)
            )
            continue
        tree, _ = found
        # From the exact score, so that equal scores get equal weights.
        weight = math.log(score.denominator) - math.log(score.numerator)
        ranked.append(RecognitionResult(c, True, weight, score, None, tree))

    ranked.sort(key=lambda r: (-r.score, r.concept))
    inapplicable.sort(key=lambda r: r.concept)
    return ranked + inapplicable


def all_concept_ids(kb: RecognitionKB) -> tuple[str, ...]:
    """Candidate set for open-ended queries (no externally supplied C-SET)."""
    return tuple(c.id for c in kb.concepts)
