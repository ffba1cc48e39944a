import math

import pytest
from hypothesis import given, settings

from abducer import (
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
    isa_ancestors,
    parse_network,
    serialize_network,
)
from abducer.kb import TOP_NAME

from strategies import networks


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

            cause d b p=0.25
            isa a b
            """
        )
        assert len(net.events) == 3
        assert net.cond_prob("d", "b") == pytest.approx(0.25)

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
        with pytest.raises(UnionCycleError) as err:
            parse_network(chain_texts["cause"] + "cause e9999 e0 p=0.5\n")
        assert len(err.value.cycle) == 10_000
        with pytest.raises(IsaCycleError) as err:
            parse_network(chain_texts["isa"] + "isa e9999 e0\n")
        assert len(err.value.cycle) == 10_000


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
    def test_chain_order(self, fig2):
        assert isa_ancestors(fig2, "d") == ["d", "b", "a"]
        assert isa_ancestors(fig2, "a") == ["a"]

    def test_diamond_is_topological(self):
        net = net_of(
            "event x\nevent l\nevent r\nevent t\n"
            "isa x l\nisa x r\nisa l t\nisa r t\n"
        )
        order = isa_ancestors(net, "x")
        assert order[0] == "x" and order[-1] == "t"
        assert set(order) == {"x", "l", "r", "t"}
        assert order.index("l") < order.index("t")
        assert order.index("r") < order.index("t")

    def test_unknown_event(self, fig2):
        with pytest.raises(UnknownEventError):
            isa_ancestors(fig2, "zz")


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
