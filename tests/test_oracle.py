"""The brute-force ranker, and the claims that make it trustworthy.

Every other solver in the package is judged against this module, so the
oracle itself gets checked the hard way: against a literal power-set sweep
with no pruning at all.
"""

import itertools
import math

import pytest
from hypothesis import given, settings

from abducer import (
    NetworkTooLargeError,
    Scenario,
    UnknownEventError,
    add_top,
    best_explanations_bruteforce,
    enumerate_valid_scenarios,
    is_valid_scenario,
    parse_network,
)
from abducer.kb import TOP_NAME
from abducer.oracle import MAX_ORACLE_LINKS
from abducer.scenario import (
    WEIGHT_TIE_TOL,
    log_weight,
    order_and_rank,
    participants,
    raw_probability,
    structure_key,
)

from strategies import tiny_networks
from synth import two_disorder_network


def links_of(s: Scenario):
    return s.sorted_causations


class TestEnumeration:
    def test_fig2_singletons(self, fig2):
        got = {s for s in enumerate_valid_scenarios(fig2, 1) if s.causations}
        want = {
            Scenario.make("a", [("a", "e")]),
            Scenario.make("b", [("b", "e")]),
            Scenario.make("c", [("a", "e")]),
            Scenario.make("d", [("b", "e")]),
            Scenario.make("d", [("d", "g")]),
            # f isa a and no link more specific than a->e exists for f,
            # so the general link is usable from f
            Scenario.make("f", [("a", "e")]),
            Scenario.make("f", [("f", "g")]),
        }
        assert got == want
        # and the near-miss shapes stay out
        assert Scenario.make("g", [("b", "e")]) not in got
        assert Scenario.make("d", [("a", "e")]) not in got

    def test_fig2_total_count_is_sixteen(self, fig2):
        all_of_them = list(enumerate_valid_scenarios(fig2, len(fig2.causal)))
        assert len(all_of_them) == 16
        # every one of the sixteen fits in two links, so the cap changes nothing
        assert list(enumerate_valid_scenarios(fig2, 2)) == all_of_them

    def test_membership_and_exclusion(self, fig2):
        everything = set(enumerate_valid_scenarios(fig2, 4))
        assert Scenario.make("d", [("b", "e"), ("d", "g")]) in everything
        assert Scenario.make("d", [("a", "e")]) not in everything
        assert Scenario.make("f", [("b", "e")]) not in everything

    def test_deterministic_stream(self, fig2):
        first = list(enumerate_valid_scenarios(fig2, 4))
        second = list(enumerate_valid_scenarios(fig2, 4))
        assert first == second

    def test_stream_ordered_by_size(self, fig2):
        sizes = [len(s.causations) for s in enumerate_valid_scenarios(fig2, 4)]
        assert sizes == sorted(sizes)

    def test_connectivity_of_enumerated_scenarios(self, fig2):
        # participants must hang together: every link endpoint is reachable
        # from the culprit by alternating isa*-descent and causal steps
        for s in enumerate_valid_scenarios(fig2, 4):
            reached = {s.culprit}
            remaining = set(s.causations)
            grew = True
            while grew and remaining:
                grew = False
                for x, y in sorted(remaining):
                    if any(x in fig2.isa_star(p) for p in reached):
                        reached.update((x, y))
                        remaining.discard((x, y))
                        grew = True
            assert not remaining, f"{s!r} is not connected"

    def test_size_guard(self):
        def star(n):
            lines = ["event d prior=0.5 disorder"]
            lines += [f"event e{i}" for i in range(n)]
            lines += [f"cause d e{i} p=0.5" for i in range(n)]
            return parse_network("\n".join(lines))

        with pytest.raises(NetworkTooLargeError):
            list(enumerate_valid_scenarios(star(26), 2))
        # At the guard the sweep runs: 26 empty scenarios (one per event)
        # plus 25 single-link ones.
        assert sum(1 for _ in enumerate_valid_scenarios(star(25), 1)) == 26 + 25

    @settings(max_examples=40, deadline=None)
    @given(tiny_networks())
    def test_pruned_sweep_equals_literal_sweep(self, net):
        links = sorted((l.cause, l.effect) for l in net.causal)
        literal = set()
        for size in range(len(links) + 1):
            for subset in itertools.combinations(links, size):
                for culprit in (e.id for e in net.events):
                    cand = Scenario.make(culprit, subset)
                    if is_valid_scenario(net, cand):
                        literal.add(cand)
        assert set(enumerate_valid_scenarios(net, len(links))) == literal


class TestRanking:
    def test_observation_e_and_g(self, fig2):
        got = best_explanations_bruteforce(fig2, ["e", "g"], 3)
        # exactly two scenarios cover both observations
        assert [r.rank for r in got] == [1, 2]
        assert got[0].scenario == Scenario.make("f", [("a", "e"), ("f", "g")])
        assert got[0].probability == pytest.approx(0.08 * 0.30 * 0.60)
        assert got[1].scenario == Scenario.make("d", [("b", "e"), ("d", "g")])
        assert got[1].probability == pytest.approx(0.01)

    def test_observation_e(self, fig2):
        got = best_explanations_bruteforce(fig2, ["e"], 3)
        assert [(r.scenario, r.probability) for r in got] == [
            (Scenario.make("c", [("a", "e")]), pytest.approx(0.03)),
            (Scenario.make("f", [("a", "e")]), pytest.approx(0.024)),
            (Scenario.make("d", [("b", "e")]), pytest.approx(0.02)),
        ]

    def test_observation_of_a_cause_event(self, fig2):
        # "a" is not an effect of anything, so the only way to cover it is
        # to use it as the cause side of a link hanging off a disorder
        got = best_explanations_bruteforce(fig2, ["a"], 1)
        assert got[0].scenario == Scenario.make("c", [("a", "e")])
        assert got[0].log_weight == pytest.approx(3.506557897319982, abs=1e-12)

    def test_no_explanation(self, fig2):
        net = parse_network(
            "event d prior=0.5 disorder\nevent s\nevent lone\ncause d s p=0.5\n"
        )
        assert best_explanations_bruteforce(net, ["lone"], 3) == []

    def test_weights_non_decreasing(self, fig2):
        got = best_explanations_bruteforce(fig2, ["g"], 10)
        ws = [r.log_weight for r in got]
        assert ws == sorted(ws)

    def test_fields_are_consistent(self, fig2):
        for r in best_explanations_bruteforce(fig2, ["e", "g"], 10):
            assert r.log_weight == pytest.approx(log_weight(fig2, r.scenario))
            assert r.probability == pytest.approx(raw_probability(fig2, r.scenario))
            assert math.exp(-r.log_weight) == pytest.approx(r.probability, rel=1e-12)
            assert frozenset(["e", "g"]) <= participants(fig2, r.scenario)

    def test_argument_validation(self, fig2):
        with pytest.raises(ValueError):
            best_explanations_bruteforce(fig2, [], 3)
        with pytest.raises(ValueError):
            best_explanations_bruteforce(fig2, ["g"], 0)
        with pytest.raises(UnknownEventError):
            best_explanations_bruteforce(fig2, ["zz"], 3)

    def test_culprit_restriction(self, fig2):
        got = best_explanations_bruteforce(fig2, ["g"], 5, culprit="d")
        assert got and all(r.scenario.culprit == "d" for r in got)

    def test_multi_ranks_through_the_augmented_root(self):
        # multi=True is the augmented network restricted to its root, and a
        # network that already declares the root is not augmented again
        net = two_disorder_network()
        aug = add_top(net)
        want = best_explanations_bruteforce(aug, ["s1", "s2"], 3, culprit=TOP_NAME)
        assert want and want[0].scenario.culprit == TOP_NAME
        assert best_explanations_bruteforce(net, ["s1", "s2"], 3, multi=True) == want
        assert best_explanations_bruteforce(aug, ["s1", "s2"], 3, multi=True) == want


class TestTieBreaking:
    def two(self, wa, wb):
        sa = Scenario.make("a", [("a", "x")])
        sb = Scenario.make("b", [("b", "x")])
        return [(sa, wa, math.exp(-wa)), (sb, wb, math.exp(-wb))]

    def test_ties_within_tolerance_use_structure(self):
        half_tol = WEIGHT_TIE_TOL / 2
        ranked = order_and_rank(self.two(1.0 + half_tol, 1.0))
        # same weight bucket: the (a, ...) scenario sorts first by key
        assert [r.scenario.culprit for r in ranked] == ["a", "b"]

    def test_distinct_weights_keep_weight_order(self):
        ranked = order_and_rank(self.two(1.0 + 10 * WEIGHT_TIE_TOL, 1.0))
        assert [r.scenario.culprit for r in ranked] == ["b", "a"]

    def test_structure_key_orders_by_size_first(self):
        small = Scenario.make("z", [("z", "y")])
        big = Scenario.make("a", [("a", "y"), ("b", "w")])
        assert structure_key(small) < structure_key(big)

    def test_guard_constant_is_sane(self):
        assert MAX_ORACLE_LINKS == 25


class TestRankContiguity:
    @settings(max_examples=30, deadline=None)
    @given(tiny_networks())
    def test_ranks_contiguous_and_weights_sorted(self, net):
        effects = sorted({l.effect for l in net.causal})
        if not effects:
            return
        got = best_explanations_bruteforce(net, [effects[0]], 8)
        assert [r.rank for r in got] == list(range(1, len(got) + 1))
        ws = [r.log_weight for r in got]
        assert ws == sorted(ws)
