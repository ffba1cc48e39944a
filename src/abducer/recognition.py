"""Concept recognition over a taxonomy with instance counts.

A recognition KB lists concepts with instance counts, an isa taxonomy,
and per-concept property statistics (#c[p,v] of the #c instances of c
have value v for property p).  Recognition maps this onto the diagnosis
machinery: concepts become disorders with prior 1/#c, each distinct
property value becomes a node "p=v", and a concept with #c[p,v] > 0 gets
a causal edge to that node with conditional probability #c[p,v]/#c.

A candidate c is scored in closed form, after Shastri: #c times the
product of #c_p[p,v]/#c_p over the described values, where the relevant
concept c_p is the most specific class on c's climb that holds a [p,v]
statistic (its reference class).  The witness is the scenario rooted at c
with one link c_p -> p=v per described value; its weight, ln(1/prior)
plus the links' ln(1/p), is -ln(score).  No search is needed, because the
witness is valid:

- each c_p is the unique maximally specific holder in isa_star(c)
  (``relevant_concept`` raises otherwise);
- every participant's climb lies in isa_star(c), apart from the value
  nodes, which have no isa links: the other participants are c and the
  c_p, so every link attaches at c;
- synthesized links only enter value nodes, so an alternative to
  c_p -> p=v at c is a link u -> p=v with c isa* u isa+ c_p, and such a
  u would be a more specific holder than c_p;
- so no standing alternative can preempt c_p -> p=v.

Every other holder on c's climb is a proper ancestor of c_p, so c_p -> p=v
preempts its link into p=v.  Every valid scenario rooted at c that covers
the description therefore holds the witness's links, and the witness is
also the lightest.  ``recognize`` still checks each witness's validity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .errors import (
    AmbiguousReferenceClassError,
    CountExceedsParentError,
    DuplicateDeclarationError,
    InvalidArgumentError,
    NoRelevantConceptError,
    ParseError,
    UnknownConceptError,
    UnknownPropertyValueError,
)
from .kb import CausalLink, CausalNetwork, EventId, EventNode, IsaLink, _ident

if TYPE_CHECKING:
    from .scenario import Scenario


Concept = namedtuple("Concept", "id count")
PropertySpec = namedtuple("PropertySpec", "concept property value count")


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
                raise InvalidArgumentError(f"concept {c.id} needs a positive count")
            if c.id in self._by_id:
                raise DuplicateDeclarationError(f"duplicate concept: {c.id}")
            self._by_id[c.id] = c

        self._spec_at: dict[tuple[str, str, str], PropertySpec] = {}
        for s in self.specs:
            if s.concept not in self._by_id:
                raise UnknownConceptError(f"unknown concept: {s.concept}")
            if s.count < 0:
                raise InvalidArgumentError(f"spec count for {s.concept} may not be negative")
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


class RecognitionQuery(namedtuple("RecognitionQuery", "cset descr")):
    __slots__ = ()

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


def _relevant_specs(kb: RecognitionKB, c: str, descr: Iterable[tuple[str, str]]) -> list[PropertySpec]:
    """The relevant concept's spec for each distinct described pair, in
    pair order."""
    specs = []
    for p, v in sorted(set(descr)):
        rc = relevant_concept(kb, c, p, v)
        if rc is None:
            raise NoRelevantConceptError(f"{c} has no relevant concept for {p}={v}")
        specs.append(kb.spec_for(rc, p, v))
    return specs  # type: ignore[return-value]


def _score(kb: RecognitionKB, c: str, specs: list[PropertySpec]) -> Fraction:
    score = Fraction(kb.concept(c).count)
    for s in specs:
        score *= Fraction(s.count, kb.concept(s.concept).count)
    return score


def shastri_score(kb: RecognitionKB, c: str, descr: Iterable[tuple[str, str]]) -> Fraction:
    """#c times the product over the description of #c_p[p,v]/#c_p, with
    c_p the relevant concept; exact rational arithmetic."""
    return _score(kb, c, _relevant_specs(kb, c, descr))


@dataclass(frozen=True)
class RecognitionResult:
    concept: str
    applicable: bool
    weight: float | None
    score: Fraction | None
    reason: str | None
    scenario: Scenario | None


def recognize(kb: RecognitionKB, query: RecognitionQuery) -> list[RecognitionResult]:
    """Rank the candidate concepts by exact score, ties by concept id.

    A candidate is applicable when its score is positive; its scenario is
    the witness with one link from the relevant concept to each described
    value, and its weight -ln(score) is that scenario's weight.
    Candidates that cannot be scored are reported as inapplicable rather
    than dropped."""
    from .scenario import Scenario, is_valid_scenario

    if not query.cset:
        raise InvalidArgumentError("candidate set must be non-empty")
    if not query.descr:
        raise InvalidArgumentError("description must be non-empty")
    for c in sorted(query.cset):
        kb.concept(c)
    known = kb.known_pairs()
    for p, v in sorted(query.descr):
        if (p, v) not in known:
            raise UnknownPropertyValueError(f"unknown property-value: {p}={v}")

    net = kb.to_causal_network()
    ranked: list[RecognitionResult] = []
    inapplicable: list[RecognitionResult] = []
    for c in sorted(query.cset):
        try:
            specs = _relevant_specs(kb, c, query.descr)
        except (NoRelevantConceptError, AmbiguousReferenceClassError) as err:
            inapplicable.append(RecognitionResult(c, False, None, None, str(err), None))
            continue
        score = _score(kb, c, specs)
        if score == 0:
            s = next(s for s in specs if s.count == 0)
            inapplicable.append(
                RecognitionResult(c, False, None, score, f"no {s.property}={s.value} instances", None)
            )
            continue
        witness = Scenario.make(c, [(s.concept, value_node(s.property, s.value)) for s in specs])
        if not is_valid_scenario(net, witness):
            raise AssertionError(f"recognition witness {witness} is not valid")
        # From the exact score, so that equal scores get equal weights.
        weight = math.log(score.denominator) - math.log(score.numerator)
        ranked.append(RecognitionResult(c, True, weight, score, None, witness))

    ranked.sort(key=lambda r: (-r.score, r.concept))
    inapplicable.sort(key=lambda r: r.concept)
    return ranked + inapplicable


def all_concept_ids(kb: RecognitionKB) -> tuple[str, ...]:
    """Candidate set for open-ended queries (no externally supplied C-SET)."""
    return tuple(c.id for c in kb.concepts)
