import dataclasses
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abducer import (
    AbducerError,
    CausalLink,
    CausalNetwork,
    DuplicateDeclarationError,
    EventNode,
    IsaCycleError,
    IsaLink,
    MissingDisorderPriorError,
    ParseError,
    ProbabilityOutOfRangeError,
    ReservedNameError,
    UnionCycleError,
    UnknownEventError,
    UnknownLinkError,
    add_top,
    parse_network,
    parse_recognition_kb,
    serialize_network,
)
from abducer.kb import TOP_NAME, _ident, isa_postorder
from abducer.recognition import Concept, PropertySpec, RecognitionQuery, RecognitionResult
from abducer.scenario import AttachStep, RankedExplanation, Scenario, ValidityCertificate, ValidityResult
from abducer.solver import SteinerTree

from strategies import networks, seeds
from synth import random_network


def net_of(text: str) -> CausalNetwork:
    return parse_network(text)


class TestParsing:
    def test_fig2_counts(self, fig2):
        assert len(fig2.events) == 7
        assert len(fig2.causal) == 4
        assert len(fig2.isa) == 4
        assert fig2.top is None

    def test_accessors(self, fig2):
        assert fig2.node("c").prior == pytest.approx(0.10)
        assert fig2.node("c").is_disorder
        assert not fig2.node("a").is_disorder
        assert fig2.cond_prob("b", "e") == pytest.approx(0.40)
        assert fig2.effects_of("a") == ("e",)
        assert fig2.causes_of("g") == ("d", "f")
        assert fig2.parents_of("d") == ("b",)
        assert sorted(fig2.disorders) == ["c", "d", "f"]

    def test_neighbour_lookups_agree_on_an_unknown_event(self, fig2):
        assert fig2.effects_of("zz") == fig2.causes_of("zz") == fig2.parents_of("zz") == ()

    def test_isa_star_reflexive_transitive(self, fig2):
        assert fig2.isa_star("d") == frozenset({"d", "b", "a"})
        assert fig2.isa_star("a") == frozenset({"a"})
        assert fig2.specializes("d", "a")
        assert not fig2.specializes("a", "d")

    def test_cond_prob_unknown_link(self, fig2):
        with pytest.raises(UnknownLinkError):
            fig2.cond_prob("a", "g")

    def test_comments_and_blanks(self):
        net = net_of(
            """
            # leading comment
            event a
            event d prior=0.5 disorder  # trailing
            event b
            event ab#touching

            cause d b p=0.25
            cause ab b p=0.5#touching
            isa a b
            """
        )
        assert len(net.events) == 4
        assert net.cond_prob("d", "b") == pytest.approx(0.25)
        assert net.cond_prob("ab", "b") == 0.5

    def test_prior_on_non_disorder_accepted(self):
        net = net_of("event a prior=0.7\nevent d prior=0.5 disorder\nevent b\ncause d b p=0.5\n")
        assert net.node("a").prior == pytest.approx(0.7)
        assert not net.node("a").is_disorder

    def test_probability_of_one_allowed(self):
        net = net_of("event d prior=1.0 disorder\nevent b\ncause d b p=1.0\n")
        assert net.cond_prob("d", "b") == 1.0

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            net_of("event a\nfrobnicate a b\n")
        assert "line 2" in str(err.value)

    def test_bad_probability_token(self):
        with pytest.raises(ParseError):
            net_of("event a\nevent b\ncause a b p=high\n")
        with pytest.raises(ParseError):
            net_of("event a\nevent b\ncause a b 0.5\n")

    def test_bad_identifier(self):
        with pytest.raises(ParseError):
            net_of("event 3x\n")


class TestValidation:
    def test_empty_event_set_rejected(self):
        with pytest.raises(ParseError):
            net_of("# nothing\n")
        with pytest.raises(ParseError):
            CausalNetwork((), (), ())

    def test_duplicate_event(self):
        with pytest.raises(DuplicateDeclarationError):
            net_of("event a\nevent a\n")

    def test_duplicate_links(self):
        with pytest.raises(DuplicateDeclarationError):
            net_of("event a\nevent b\ncause a b p=0.5\ncause a b p=0.6\n")
        with pytest.raises(DuplicateDeclarationError):
            net_of("event a\nevent b\nisa a b\nisa a b\n")

    def test_probability_range(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            net_of("event a\nevent b\ncause a b p=0.0\n")
        with pytest.raises(ProbabilityOutOfRangeError):
            net_of("event a\nevent b\ncause a b p=1.5\n")
        with pytest.raises(ProbabilityOutOfRangeError):
            net_of("event a prior=0.0 disorder\n")

    def test_disorder_needs_prior(self):
        with pytest.raises(MissingDisorderPriorError):
            net_of("event a disorder\n")

    def test_unknown_endpoints(self):
        with pytest.raises(UnknownEventError):
            net_of("event a\ncause a zz p=0.5\n")
        with pytest.raises(UnknownEventError):
            net_of("event a\nisa a zz\n")

    def test_cause_isa_overlap_rejected(self):
        with pytest.raises(DuplicateDeclarationError) as err:
            net_of("event a\nevent b\ncause a b p=0.5\nisa a b\n")
        assert "both cause and isa" in str(err.value)

    def test_self_causation_rejected(self):
        with pytest.raises(UnionCycleError):
            net_of("event a\ncause a a p=0.5\n")

    def test_isa_cycle_named(self):
        with pytest.raises(IsaCycleError) as err:
            net_of("event a\nevent b\nisa a b\nisa b a\n")
        msg = str(err.value)
        assert "a" in msg and "b" in msg

    def test_union_cycle(self):
        # a -isa-> b and b -cause-> a close a loop through both relations
        with pytest.raises(UnionCycleError):
            net_of("event a\nevent b\nisa a b\ncause b a p=0.5\n")


class TestLongChains:
    """Deep inputs must not hit the interpreter's recursion limit."""

    def test_causal_chain(self, chain_texts):
        net = parse_network(chain_texts["cause"])
        assert (len(net.events), len(net.causal), len(net.isa)) == (10_000, 9_999, 0)
        assert net.isa_star("e0") == frozenset({"e0"})

    def test_isa_chain(self, chain_texts):
        net = parse_network(chain_texts["isa"])
        assert (len(net.events), len(net.causal), len(net.isa)) == (10_000, 0, 9_999)
        assert len(net.isa_star("e0")) == 10_000
        assert net.isa_star("e9999") == frozenset({"e9999"})

    def test_cycle_through_a_long_chain(self, chain_texts):
        names = [f"e{i}" for i in range(10_000)]
        ring = " -> ".join(names + names[:1])
        with pytest.raises(UnionCycleError) as err:
            parse_network(chain_texts["cause"] + "cause e9999 e0 p=0.5\n")
        assert (type(err.value), err.value.cycle) == (UnionCycleError, names)
        assert str(err.value) == "causal/isa cycle: " + ring
        with pytest.raises(IsaCycleError) as err:
            parse_network(chain_texts["isa"] + "isa e9999 e0\n")
        assert (err.value.cycle, str(err.value)) == (names, "isa cycle: " + ring)


class TestSerialization:
    def test_round_trip_fig2(self, fig2):
        assert parse_network(serialize_network(fig2)) == fig2

    def test_round_trip_with_top(self, fig2):
        aug = add_top(fig2)
        back = parse_network(serialize_network(aug))
        assert back == aug
        assert back.top == TOP_NAME

    @settings(max_examples=60, deadline=None)
    @given(networks())
    def test_round_trip_random(self, net):
        assert parse_network(serialize_network(net)) == net


class TestAddTop:
    def test_fig2_gets_three_root_links(self, fig2):
        aug = add_top(fig2)
        assert aug.top == TOP_NAME
        assert aug.node(TOP_NAME).prior == 1.0
        assert aug.node(TOP_NAME).is_disorder
        added = [l for l in aug.causal if l.cause == TOP_NAME]
        assert [(l.effect, l.cond_prob) for l in added] == [
            ("c", 0.10),
            ("d", 0.05),
            ("f", 0.08),
        ]

    def test_only_uncaused_disorders_linked(self):
        net = net_of(
            "event d1 prior=0.2 disorder\n"
            "event d2 prior=0.3 disorder\n"
            "cause d1 d2 p=0.5\n"
        )
        aug = add_top(net)
        added = [l.effect for l in aug.causal if l.cause == TOP_NAME]
        assert added == ["d1"]

    def test_reserved_name(self, fig2):
        with pytest.raises(ReservedNameError):
            add_top(add_top(fig2))

    def test_user_declared_top_round_trips(self):
        net = net_of(
            "event TOP prior=1.0 disorder\n"
            "event d prior=0.5 disorder\n"
            "cause TOP d p=0.5\n"
        )
        assert net.top == TOP_NAME


class TestIsaAncestors:
    # isa_postorder reversed lists e's ancestors, e first, most specific
    # first: a topological order of the ancestor sub-DAG under isa.
    def test_chain_order(self, fig2):
        assert isa_postorder(fig2, "d")[::-1] == ["d", "b", "a"]
        assert isa_postorder(fig2, "a")[::-1] == ["a"]

    def test_diamond_is_topological(self):
        net = net_of(
            "event x\nevent l\nevent r\nevent t\n"
            "isa x l\nisa x r\nisa l t\nisa r t\n"
        )
        order = isa_postorder(net, "x")[::-1]
        assert order[0] == "x" and order[-1] == "t"
        assert set(order) == {"x", "l", "r", "t"}
        assert order.index("l") < order.index("t")
        assert order.index("r") < order.index("t")


class TestConstructionApi:
    def test_direct_construction_matches_parse(self, fig2):
        net = CausalNetwork(
            [
                EventNode("a"),
                EventNode("b"),
                EventNode("c", prior=0.10, is_disorder=True),
                EventNode("d", prior=0.05, is_disorder=True),
                EventNode("f", prior=0.08, is_disorder=True),
                EventNode("e"),
                EventNode("g"),
            ],
            [
                CausalLink("b", "e", 0.40),
                CausalLink("a", "e", 0.30),
                CausalLink("d", "g", 0.50),
                CausalLink("f", "g", 0.60),
            ],
            [IsaLink("d", "b"), IsaLink("b", "a"), IsaLink("c", "a"), IsaLink("f", "a")],
        )
        assert net == fig2

    @settings(max_examples=40, deadline=None)
    @given(networks())
    def test_event_and_link_order_is_sorted(self, net):
        names = [e.id for e in net.events]
        assert names == sorted(names)
        causal = [(l.cause, l.effect) for l in net.causal]
        assert causal == sorted(causal)

    def test_search_weights_positive(self, fig2):
        for l in fig2.causal:
            assert math.log(1.0 / l.cond_prob) >= 0.0


# Each row: (name, document, exception type name, exact message).  The
# message pins both the check and its precedence: a document that breaks
# several rules reports the one named here.
MALFORMED = [
    ("no events", "# nothing\n", "ParseError", "network declares no events"),
    ("event without name", "event\n", "ParseError", "line 1: event needs a name"),
    ("bad id", "event 3x\n", "ParseError", "line 1: bad event id '3x'"),
    ("non-ascii id", "event café\n", "ParseError", "line 1: bad event id 'café'"),
    ("unexpected token", "event a frob\n", "ParseError", "line 1: unexpected token 'frob'"),
    ("bad prior", "event a prior=high\n", "ParseError", "line 1: bad probability 'prior=high'"),
    (
        "prior out of range",
        "event a prior=0.0 disorder\n",
        "ProbabilityOutOfRangeError",
        "line 1: probability 0.0 not in (0, 1]",
    ),
    (
        "disorder without prior",
        "event b\nevent a disorder\n",
        "MissingDisorderPriorError",
        "disorder a has no prior",
    ),
    (
        "duplicate event",
        "event a\nevent b\nevent a\n",
        "DuplicateDeclarationError",
        "line 3: event a declared twice",
    ),
    ("short isa", "event a\nisa a\n", "ParseError", "line 2: isa needs exactly two event names"),
    (
        "cause without p",
        "event a\nevent b\ncause a b 0.5\n",
        "ParseError",
        "line 3: cause needs two events and p=<float>",
    ),
    ("bad p", "event a\nevent b\ncause a b p=high\n", "ParseError", "line 3: bad probability 'p=high'"),
    (
        "p out of range",
        "event a\nevent b\ncause a b p=1.5\n",
        "ProbabilityOutOfRangeError",
        "line 3: probability 1.5 not in (0, 1]",
    ),
    ("unknown directive", "event a\nfrob a\n", "ParseError", "line 2: unknown directive 'frob'"),
    ("unknown cause end", "event a\ncause a zz p=0.5\n", "UnknownEventError", "unknown event: zz"),
    ("unknown isa end", "event a\nisa zz a\n", "UnknownEventError", "unknown event: zz"),
    (
        "duplicate cause",
        "event a\nevent b\ncause a b p=0.5\ncause a b p=0.6\n",
        "DuplicateDeclarationError",
        "line 4: cause a b declared twice",
    ),
    (
        "duplicate isa",
        "event a\nevent b\nisa a b\nisa a b\n",
        "DuplicateDeclarationError",
        "line 4: isa a b declared twice",
    ),
    (
        "cause then isa",
        "event a\nevent b\ncause a b p=0.5\nisa a b\n",
        "DuplicateDeclarationError",
        "line 4: a -> b declared as both cause and isa",
    ),
    (
        "isa then cause",
        "event a\nevent b\nisa a b\ncause a b p=0.5\n",
        "DuplicateDeclarationError",
        "line 4: a -> b declared as both cause and isa",
    ),
    (
        # The parser names a repeated link as it reads it, before the
        # network-wide checks run.
        "duplicate link in a file without events",
        "cause a b p=0.5\ncause a b p=0.5\n",
        "DuplicateDeclarationError",
        "line 2: cause a b declared twice",
    ),
    (
        "repeated prior",
        "event a prior=0.1 prior=0.9\n",
        "ParseError",
        "line 1: repeated token 'prior=0.9'",
    ),
    (
        "repeated disorder",
        "event a\nevent d prior=0.1 disorder disorder\n",
        "ParseError",
        "line 2: repeated token 'disorder'",
    ),
    (
        "repeated token beats a bad prior",
        "event a prior=0.1 prior=2\n",
        "ParseError",
        "line 1: repeated token 'prior=2'",
    ),
    ("self cause", "event a\ncause a a p=0.5\n", "UnionCycleError", "causal/isa cycle: a -> a"),
    ("self isa", "event a\nisa a a\n", "IsaCycleError", "isa cycle: a -> a"),
    (
        "isa cycle",
        "event a\nevent b\nevent c\nisa a b\nisa b c\nisa c a\n",
        "IsaCycleError",
        "isa cycle: a -> b -> c -> a",
    ),
    (
        "mixed cycle",
        "event a\nevent b\nisa a b\ncause b a p=0.5\n",
        "UnionCycleError",
        "causal/isa cycle: a -> b -> a",
    ),
    (
        # The union search meets the mixed cycle a -> b -> a first.
        "isa cycle beats an earlier mixed cycle",
        "event a\nevent b\nevent c\nevent d\ncause a b p=0.5\nisa b a\nisa c d\nisa d c\n",
        "IsaCycleError",
        "isa cycle: c -> d -> c",
    ),
    (
        "missing prior beats unknown event",
        "event a disorder\ncause a zz p=0.5\n",
        "MissingDisorderPriorError",
        "disorder a has no prior",
    ),
    (
        "links are checked in sorted order",
        "event a\ncause a zz p=0.5\ncause a a p=0.5\n",
        "UnionCycleError",
        "causal/isa cycle: a -> a",
    ),
    (
        "unknown event beats isa cycle",
        "event a\nisa a a\ncause a zz p=0.5\n",
        "UnknownEventError",
        "unknown event: zz",
    ),
    (
        "duplicate event beats missing prior",
        "event a disorder\nevent a\n",
        "DuplicateDeclarationError",
        "line 2: event a declared twice",
    ),
    ("first bad line wins", "event 3x\nfrob\n", "ParseError", "line 1: bad event id '3x'"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "text, kind, message", [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED]
    )
    def test_exact_error(self, text, kind, message):
        with pytest.raises(Exception) as err:
            parse_network(text)
        assert (type(err.value).__name__, str(err.value)) == (kind, message)

    @pytest.mark.parametrize(
        "causal, isa, message",
        [
            ([CausalLink("a", "b", 0.5)] * 2, [], "cause a b declared twice"),
            ([], [IsaLink("a", "b")] * 2, "isa a b declared twice"),
            ([CausalLink("a", "b", 0.5)], [IsaLink("a", "b")], "a -> b declared as both cause and isa"),
        ],
    )
    def test_direct_construction_still_rejects_duplicates(self, causal, isa, message):
        with pytest.raises(DuplicateDeclarationError) as err:
            CausalNetwork([EventNode("a"), EventNode("b")], causal, isa)
        assert str(err.value) == message


# Tokens a mutation may write: the words of both formats and ids good and
# bad, or key=value forms with values in and out of range.
MUTATION_WORDS = (
    "event", "cause", "isa", "concept", "prop", "disorder", "=", "#", TOP_NAME, "fruit",
    "apple", "n0", "n1", "9x", "é",
)
mutation_tokens = st.sampled_from(MUTATION_WORDS) | st.builds(
    "{}={}".format,
    st.sampled_from(["p", "prior", "count", "color", "taste", ""]),
    st.sampled_from(["0", "1", "0.25", "2", "-3", "x", "nan", "inf", "1e-400", "1.5", "", "a=b"]),
)
# (kind, line, token position, token); positions wrap around the document.
mutations = st.tuples(
    st.sampled_from(["drop", "duplicate", "replace", "append"]),
    st.integers(0, 1_000),
    st.integers(0, 1_000),
    mutation_tokens,
)


def mutated(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, i, j, tok in edits:
        if not lines:
            lines.append(tok)
            continue
        i %= len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "append":
            lines[i] += " " + tok
        else:
            toks = lines[i].split() or [""]
            toks[j % len(toks)] = tok
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


class TestMutatedDocuments:
    """Documents of either format, mutated line by line, get an answer or
    an AbducerError from both parsers; TestMalformedDocuments pins the
    messages of a fixed list."""

    @settings(max_examples=500, deadline=None)
    @given(seeds, st.booleans(), st.lists(mutations, min_size=1, max_size=4))
    def test_parsers_answer_or_raise_a_typed_error(self, fruits_path, seed, rkb, edits):
        if rkb:
            base = fruits_path.read_text()
        else:
            rng = random.Random(seed)
            base = serialize_network(random_network(rng, max_events=8, max_causal=10, max_isa=6))
        text = mutated(base, edits)
        for parse in (parse_network, parse_recognition_kb):
            try:
                parse(text)
            except AbducerError:
                pass


ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class TestIdentifiers:
    @settings(max_examples=400, deadline=None)
    @given(
        st.text(alphabet=st.sampled_from("aZ_09é١ª²ß$-") | st.characters(), min_size=1, max_size=6)
    )
    @example("é")
    @example("aé")
    @example("ª")
    @example("a١")
    @example("x²")
    @example("a-b")
    @example("_9")
    def test_ident_accepts_what_the_grammar_accepts(self, tok):
        # Tokens come from str.split(), so they hold no whitespace.
        tok = "".join(tok.split()) or "_"
        try:
            got = _ident(tok, 1)
        except ParseError:
            got = None
        assert (got == tok) == bool(ID_RE.match(tok))


class TestSeededSweep:
    """parse(serialize(net)) == net, and the lookup tables agree with
    tables built here from the link lists."""

    @pytest.mark.parametrize("seed", range(40))
    def test_tables_match_the_links(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, max_events=16, max_causal=24, max_isa=12)
        assert parse_network(serialize_network(net)) == net
        ids = [n.id for n in net.events]
        effects = {e: sorted(l.effect for l in net.causal if l.cause == e) for e in ids}
        causes = {e: sorted(l.cause for l in net.causal if l.effect == e) for e in ids}
        parents = {e: sorted(l.parent for l in net.isa if l.child == e) for e in ids}
        for e in ids:
            assert net.effects_of(e) == tuple(effects[e])
            assert net.causes_of(e) == tuple(causes[e])
            assert net.parents_of(e) == tuple(parents[e])
            star, todo = {e}, [e]
            while todo:
                for p in parents[todo.pop()]:
                    if p not in star:
                        star.add(p)
                        todo.append(p)
            assert net.isa_star(e) == frozenset(star)


class TestRecords:
    def test_ids_are_shared_across_parses(self):
        text = "event alpha\nevent beta prior=0.5 disorder\ncause beta alpha p=0.5\nisa alpha beta_\nevent beta_\n"
        one, two = parse_network(text), parse_network("\n" + text)

        def ids(net):
            return (
                [n.id for n in net.events]
                + [end for l in net.causal for end in (l.cause, l.effect)]
                + [end for l in net.isa for end in (l.child, l.parent)]
            )

        assert len(ids(one)) == 7
        assert all(x is y for x, y in zip(ids(one), ids(two)))

    def test_records_reject_assignment(self):
        for record, field in [
            (EventNode("a"), "prior"),
            (CausalLink("a", "b", 0.5), "cond_prob"),
            (IsaLink("a", "b"), "parent"),
        ]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_records_keep_their_repr(self):
        assert repr(EventNode("a")) == "EventNode(id='a', prior=None, is_disorder=False)"
        assert repr(EventNode("d", 0.5, True)) == "EventNode(id='d', prior=0.5, is_disorder=True)"
        assert repr(CausalLink("a", "b", 0.25)) == "CausalLink(cause='a', effect='b', cond_prob=0.25)"
        assert repr(IsaLink("a", "b")) == "IsaLink(child='a', parent='b')"

    def test_records_are_tuples(self):
        cause, effect, p = CausalLink("a", "b", 0.5)
        assert (cause, effect, p) == ("a", "b", 0.5)
        assert EventNode("a") == ("a", None, False)
        assert IsaLink("a", "b") == ("a", "b")


class TestEngineRecords:
    # The engine's records are named tuples like the network's; only the
    # two result records stay dataclasses, which dataclasses.replace needs.
    STEP = AttachStep("d", "b", ("b", "e"), "e")
    # (record, an equal record built apart, a record that differs, repr)
    CASES = [
        (
            Scenario.make("d", [("d", "g"), ("b", "e")]),
            Scenario("d", frozenset({("b", "e"), ("d", "g")})),
            Scenario.make("d", [("d", "g")]),
            "Scenario(d, {b->e, d->g})",
        ),
        (
            STEP,
            AttachStep("d", "b", ("b", "e"), "e"),
            AttachStep("d", "a", ("a", "e"), "e"),
            "AttachStep(participant='d', ref_class='b', added_link=('b', 'e'), sub_scenario_root='e')",
        ),
        (
            ValidityCertificate((STEP,)),
            ValidityCertificate((AttachStep("d", "b", ("b", "e"), "e"),)),
            ValidityCertificate(()),
            "ValidityCertificate(steps=(AttachStep(participant='d', ref_class='b',"
            " added_link=('b', 'e'), sub_scenario_root='e'),))",
        ),
        (
            ValidityResult(False, reason="x"),
            ValidityResult(False, None, "x"),
            ValidityResult(False, reason="y"),
            "ValidityResult(valid=False, certificate=None, reason='x')",
        ),
        (
            SteinerTree("d", (("d", "g"),), frozenset({"g"}), 0.5),
            SteinerTree("d", (("d", "g"),), frozenset({"g"}), 0.5),
            SteinerTree("f", (("f", "g"),), frozenset({"g"}), 0.5),
            "SteinerTree(root='d', edges=(('d', 'g'),), terminals=frozenset({'g'}), total_weight=0.5)",
        ),
        (Concept("fruit", 10), Concept("fruit", 10), Concept("fruit", 9), "Concept(id='fruit', count=10)"),
        (
            PropertySpec("apple", "color", "red", 3),
            PropertySpec("apple", "color", "red", 3),
            PropertySpec("apple", "color", "green", 3),
            "PropertySpec(concept='apple', property='color', value='red', count=3)",
        ),
        (
            RecognitionQuery.make(["apple"], [("color", "red")]),
            RecognitionQuery(frozenset({"apple"}), frozenset({("color", "red")})),
            RecognitionQuery.make(["pear"], [("color", "red")]),
            "RecognitionQuery(cset=frozenset({'apple'}), descr=frozenset({('color', 'red')}))",
        ),
    ]

    @pytest.mark.parametrize("record, same, other, text", CASES)
    def test_records_reject_assignment(self, record, same, other, text):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == same[0]

    @pytest.mark.parametrize("record, same, other, text", CASES)
    def test_records_keep_their_repr(self, record, same, other, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record, same, other, text", CASES)
    def test_records_hash_and_compare_by_fields(self, record, same, other, text):
        assert record == same and hash(record) == hash(same)
        assert record != other
        assert record == tuple(same)

    def test_validity_result_is_false_when_invalid(self):
        assert bool(ValidityResult(False, reason="x")) is False
        assert bool(ValidityResult(True, ValidityCertificate(()))) is True

    def test_result_records_stay_replaceable(self):
        ranked = RankedExplanation(1, Scenario.make("d"), 0.5, 0.25)
        assert dataclasses.replace(ranked, log_weight=1.0) == RankedExplanation(1, Scenario.make("d"), 1.0, 0.25)
        result = RecognitionResult("apple", True, 0.5, Fraction(1, 2), None, None)
        assert dataclasses.replace(result, weight=1.0).weight == 1.0
