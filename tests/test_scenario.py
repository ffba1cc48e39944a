import functools
import hashlib
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abducer.scenario
from abducer import (
    InvalidScenarioError,
    MissingPriorError,
    Scenario,
    UnknownEventError,
    UnknownLinkError,
    add_top,
    enumerate_valid_scenarios,
    explain,
    is_explanation,
    is_valid_scenario,
    log_weight,
    parse_network,
    participants,
    probability,
)
from abducer.kb import TOP_NAME, multi_roots
from abducer.scenario import (
    WEIGHT_TIE_TOL,
    RankedExplanation,
    _weigh,
    order_and_rank,
    preempting_alternative,
    raw_probability,
    structure_key,
)
from abducer.solver import _CandidateStream, tree_to_scenario

from strategies import FAMILIES, family_queries, networks, seeds, tiny_networks
from synth import random_network
import reference_preemption as reference


def scen(culprit, *links):
    return Scenario.make(culprit, links)


class TestWorkedVerdicts:
    """The six judgement calls on the running seven-event network."""

    def test_specialized_cause_attaches(self, fig2):
        assert is_valid_scenario(fig2, scen("d", ("b", "e")))

    def test_general_link_preempted_by_specific(self, fig2):
        verdict = is_valid_scenario(fig2, scen("d", ("a", "e")))
        assert not verdict
        assert verdict.reason == "preempted: a->e by b->e"

    def test_sibling_without_specific_link_uses_general(self, fig2):
        assert is_valid_scenario(fig2, scen("c", ("a", "e")))

    def test_direct_link_from_culprit(self, fig2):
        assert is_valid_scenario(fig2, scen("d", ("d", "g")))

    def test_two_links_both_attach(self, fig2):
        assert is_valid_scenario(fig2, scen("d", ("b", "e"), ("d", "g")))

    def test_unrelated_cause_never_attaches(self, fig2):
        verdict = is_valid_scenario(fig2, scen("f", ("b", "e")))
        assert not verdict
        assert verdict.reason == "unattachable: no participant specializes b"

    def test_disconnected_sibling_disorder(self, fig2):
        verdict = is_valid_scenario(fig2, scen("d", ("f", "g")))
        assert not verdict
        assert verdict.reason == "unattachable: no participant specializes f"


class TestTreeShape:
    def test_effect_caused_twice(self, fig2):
        verdict = is_valid_scenario(fig2, scen("c", ("a", "e"), ("b", "e")))
        assert not verdict
        assert "caused by more than one link" in verdict.reason

    def test_culprit_as_effect(self, fig2):
        verdict = is_valid_scenario(fig2, scen("e", ("a", "e")))
        assert not verdict
        assert "appears as an effect" in verdict.reason

    def test_empty_scenario_is_valid(self, fig2):
        verdict = is_valid_scenario(fig2, scen("c"))
        assert verdict
        assert verdict.certificate.steps == ()


class TestCertificates:
    def replay(self, net, s, cert):
        """Re-run the certificate steps and confirm each is locally legal:
        the participant is maximal, specializes the cause, and nothing
        preempts the link there."""
        placed = set()
        parts = {s.culprit}
        caused = frozenset(y for _, y in s.causations) | {s.culprit}
        for step in cert.steps:
            x, y = step.added_link
            p = step.participant
            assert step.added_link in s.causations
            assert step.added_link not in placed
            assert step.ref_class == x
            assert step.sub_scenario_root == y
            assert p in parts
            assert not any(q != p and p in net.isa_star(q) for q in parts)
            assert x in net.isa_star(p)
            assert preempting_alternative(net, placed, caused, p, x, y) is None
            placed.add(step.added_link)
            parts.update((x, y))
        assert placed == set(s.causations)

    def test_fig2_certificates_replay(self, fig2):
        for s in enumerate_valid_scenarios(fig2, len(fig2.causal)):
            verdict = is_valid_scenario(fig2, s)
            assert verdict
            self.replay(fig2, s, verdict.certificate)

    @settings(max_examples=40, deadline=None)
    @given(tiny_networks())
    def test_random_certificates_replay(self, net):
        for s in enumerate_valid_scenarios(net, 3):
            verdict = is_valid_scenario(net, s)
            self.replay(net, s, verdict.certificate)


class TestLongScenarios:
    def test_1500_link_chain_is_searched_without_recursion(self):
        n = 1500
        net = parse_network(
            "event e0 prior=0.5 disorder\n"
            + "".join(f"event e{i}\n" for i in range(1, n))
            + "".join(f"cause e{i} e{i + 1} p=0.9\n" for i in range(n - 1))
        )
        links = [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
        verdict = is_valid_scenario(net, Scenario.make("e0", links))
        assert verdict
        assert [step.added_link for step in verdict.certificate.steps] == links
        broken = is_valid_scenario(net, Scenario.make("e0", links[:700] + links[701:]))
        assert not broken
        # Links are tried in sorted order, so "e1000" is the first missing.
        assert broken.reason == "unattachable: no participant specializes e1000"

    def test_deep_isa_chain_with_a_link_at_every_level(self):
        # a00199 isa ... isa a00000, each with a link to y.  Only a00199->y
        # stands, so it preempts a00000->y.  Each alternative is judged once
        # per call; judged afresh at every level, this took 2**n steps.
        net, culprit = _isa_ladder(200)
        start = time.perf_counter()
        verdict = is_valid_scenario(net, Scenario.make(culprit, [("a00000", "y")]))
        assert time.perf_counter() - start < 1.0
        assert not verdict
        assert verdict.reason == f"preempted: a00000->y by {culprit}->y"

    def test_isa_chain_deeper_than_the_recursion_limit(self):
        # Each alternative's own alternatives sit one isa level further
        # down, so the questions nest once per level; one sweep up the
        # climb answers them without recursion.  Asked on an explicit
        # stack that rescanned the climb for each, they took 0.8-1.4 s.
        n = 1100
        assert n > sys.getrecursionlimit()
        net, culprit = _isa_ladder(n)
        start = time.perf_counter()
        verdict = is_valid_scenario(net, Scenario.make(culprit, [("a00000", "y")]))
        assert time.perf_counter() - start < 0.1
        assert verdict.reason == f"preempted: a00000->y by {culprit}->y"

    def test_a_10000_level_isa_chain(self):
        # Validity and the shadow rule each walk the climb once: linear in
        # isa depth, with no isa closure built per level.
        net, culprit = _isa_ladder(10000)
        start = time.perf_counter()
        verdict = is_valid_scenario(net, Scenario.make(culprit, [("a00000", "y")]))
        assert time.perf_counter() - start < 1.0
        assert verdict.reason == f"preempted: a00000->y by {culprit}->y"
        start = time.perf_counter()
        results = explain(net, ["y"], k=3)
        assert time.perf_counter() - start < 2.0
        assert [r.scenario for r in results] == [scen(culprit, (culprit, "y"))]

    def test_a_1000_level_isa_chain_in_multi_mode(self):
        # Below TOP every level is an attach point, and no causal link
        # enters a level above the culprit, so every link but a00999->y is
        # banned up front.  Scanning TOP's whole reach for each event's
        # attach points, and solving a child DP per level, this took about
        # 6 s on a shared 2-vCPU machine.
        net, culprit = _isa_ladder(1000)
        start = time.perf_counter()
        results = explain(net, ["y"], k=3, multi=True)
        assert time.perf_counter() - start < 3.0
        assert [r.scenario for r in results] == [scen(TOP_NAME, (TOP_NAME, culprit), (culprit, "y"))]

    def test_a_2000_level_isa_chain_in_multi_mode_makes_one_climb_pass(self, monkeypatch):
        # Each level but a00001 has one isa parent that is an attach point
        # with a parent of its own, and no link into its climb, so only
        # a00001 walks its climb.  With a pass per level the shadow table
        # was quadratic: 5.6 s at 2,000 levels on a shared 2-vCPU machine.
        passes = []
        covered = abducer.scenario.covered_below

        def counted(net, p):
            passes.append(p)
            return covered(net, p)

        monkeypatch.setattr(abducer.scenario, "covered_below", counted)
        net, culprit = _isa_ladder(2000)
        start = time.perf_counter()
        results = explain(net, ["y"], k=3, multi=True)
        assert time.perf_counter() - start < 1.0
        assert passes == ["a00001"]
        assert [r.scenario for r in results] == [scen(TOP_NAME, (TOP_NAME, culprit), (culprit, "y"))]

    @pytest.mark.parametrize("gap", [False, True])
    def test_an_unhinted_3000_link_chain_takes_under_a_quarter_second(self, gap):
        # Each level lists only the links its maximal participants can
        # attach.  Rebuilding every level from all links took 1.2-1.7 s on
        # a shared 2-vCPU machine, and 1.1 s with the middle link missing.
        n = 3000
        net = _causal_chain(n)
        links = [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
        if gap:
            del links[n // 2]
        start = time.perf_counter()
        verdict = is_valid_scenario(net, Scenario.make("e0", links))
        assert time.perf_counter() - start < 0.25
        assert verdict.valid is not gap
        if gap:
            # Sorted order names e1501 first among the links left unplaced.
            assert verdict.reason == f"unattachable: no participant specializes e{n // 2 + 1}"

    def test_a_gap_in_an_unhinted_chain_costs_at_most_twice_the_whole_chain(self):
        # Each level of a chain lists one option, so no dead placement can
        # be reached twice; keying 1,500 of them by frozenset made the
        # gapped chain 3-6x slower than the whole one.
        n = 3000
        net = _causal_chain(n)
        links = [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
        gapped = links[: n // 2] + links[n // 2 + 1 :]

        def best_of_3(chain):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                is_valid_scenario(net, Scenario.make("e0", chain))
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_3(gapped) <= 2 * best_of_3(links)


def _causal_chain(n):
    """e0 -> e1 -> ... -> e(n-1), with the disorder e0."""
    return parse_network(
        "event e0 prior=0.5 disorder\n"
        + "".join(f"event e{i}\n" for i in range(1, n))
        + "".join(f"cause e{i} e{i + 1} p=0.9\n" for i in range(n - 1))
    )


def _isa_ladder(n):
    """a(n-1) isa ... isa a0, named in sorted order, with a link from
    every level to y; returns the network and its disorder a(n-1)."""
    names = [f"a{i:05d}" for i in range(n)]
    text = "".join(f"event {a}\n" for a in names[:-1])
    text += f"event {names[-1]} prior=0.5 disorder\nevent y\n"
    text += "".join(f"isa {b} {a}\n" for a, b in zip(names, names[1:]))
    text += "".join(f"cause {a} y p=0.5\n" for a in names)
    return parse_network(text), names[-1]


class TestParticipants:
    def test_closed_form(self, fig2):
        s = scen("d", ("b", "e"), ("d", "g"))
        assert participants(fig2, s) == frozenset({"d", "b", "e", "g"})
        assert participants(fig2, scen("c")) == frozenset({"c"})

    def test_isa_intermediates_do_not_participate(self, fig2):
        # d reaches the b -> e link through d isa b, but only endpoints count
        assert participants(fig2, scen("d", ("b", "e"))) == frozenset({"d", "b", "e"})

    def test_unknown_link(self, fig2):
        with pytest.raises(UnknownLinkError):
            participants(fig2, scen("c", ("a", "g")))

    def test_unknown_culprit(self, fig2):
        with pytest.raises(UnknownEventError):
            participants(fig2, scen("zz"))
        with pytest.raises(UnknownEventError):
            is_valid_scenario(fig2, scen("zz"))


class TestExplanation:
    def test_positive_case(self, fig2):
        assert is_explanation(fig2, scen("d", ("d", "g")), {"g"})

    def test_culprit_must_be_disorder(self, fig2):
        assert not is_explanation(fig2, scen("a", ("a", "e")), {"e"})

    def test_observations_must_participate(self, fig2):
        assert not is_explanation(fig2, scen("c", ("a", "e")), {"g"})
        assert not is_explanation(fig2, scen("c", ("a", "e")), {"e", "g"})

    def test_invalid_scenario_is_no_explanation(self, fig2):
        assert not is_explanation(fig2, scen("d", ("a", "e")), {"e"})

    def test_unknown_observation(self, fig2):
        with pytest.raises(UnknownEventError):
            is_explanation(fig2, scen("d", ("d", "g")), {"zz"})


class TestProbability:
    def test_pinned_values(self, fig2):
        assert probability(fig2, scen("c", ("a", "e"))) == pytest.approx(0.03)
        assert probability(fig2, scen("d", ("b", "e"), ("d", "g"))) == pytest.approx(0.01)
        assert probability(fig2, scen("c")) == pytest.approx(0.10)

    def test_invalid_scenario_rejected(self, fig2):
        with pytest.raises(InvalidScenarioError):
            probability(fig2, scen("d", ("a", "e")))

    def test_raw_probability_skips_validity(self, fig2):
        assert raw_probability(fig2, scen("d", ("a", "e"))) == pytest.approx(0.05 * 0.30)

    def test_missing_prior(self, fig2):
        with pytest.raises(MissingPriorError):
            probability(fig2, scen("a"))
        with pytest.raises(MissingPriorError):
            log_weight(fig2, scen("b", ("b", "e")))

    def test_log_weight_pins(self, fig2):
        got = log_weight(fig2, scen("c", ("a", "e")))
        assert got == pytest.approx(math.log(1 / 0.10) + math.log(1 / 0.30), abs=1e-15)
        got = log_weight(fig2, scen("d", ("b", "e"), ("d", "g")))
        want = math.log(1 / 0.05) + math.log(1 / 0.40) + math.log(1 / 0.50)
        assert got == pytest.approx(want, abs=1e-15)

    def test_log_weight_ignores_validity(self, fig2):
        got = log_weight(fig2, scen("d", ("a", "e")))
        assert got == pytest.approx(math.log(1 / 0.05) + math.log(1 / 0.30), abs=1e-15)

    def test_weight_probability_duality_on_fig2(self, fig2):
        priors = {e.id for e in fig2.events if e.prior is not None}
        seen = 0
        for s in enumerate_valid_scenarios(fig2, len(fig2.causal)):
            if s.culprit not in priors:
                continue
            p = probability(fig2, s)
            w = log_weight(fig2, s)
            assert math.exp(-w) == pytest.approx(p, rel=1e-12)
            seen += 1
        assert seen > 0


def two_walk_weights(net, s):
    """log_weight and raw_probability as two separate walks, each the
    prior first and then the sorted links: what ``_weigh`` must equal."""
    prior = net.node(s.culprit).prior
    if prior is None:
        raise MissingPriorError(f"event {s.culprit} has no prior")
    w = math.log(1.0 / prior)
    for x, y in s.sorted_causations:
        w += math.log(1.0 / net.cond_prob(x, y))
    p = prior
    for x, y in s.sorted_causations:
        p *= net.cond_prob(x, y)
    return w, p


def two_key_rank(weighted):
    """Ranking by one sort on (weight, structure_key), then each tie group
    re-sorted by structure_key."""
    items = sorted(weighted, key=lambda t: (t[1], structure_key(t[0])))
    groups = []
    for item in items:
        if groups and item[1] - groups[-1][-1][1] <= WEIGHT_TIE_TOL:
            groups[-1].append(item)
        else:
            groups.append([item])
    out = []
    for group in groups:
        group.sort(key=lambda t: structure_key(t[0]))
        for s, w, p in group:
            out.append(RankedExplanation(len(out) + 1, s, w, p))
    return out


RANK_POOL = (
    scen("a"),
    scen("b"),
    scen("a", ("a", "x")),
    scen("b", ("b", "x")),
    scen("a", ("a", "x"), ("x", "y")),
    scen("c", ("c", "y")),
)

# Weights on a grid of a quarter tolerance: exact ties, ties at half the
# tolerance, and chains of near-ties that span more than the tolerance.
ranked_inputs = st.lists(
    st.tuples(
        st.integers(0, len(RANK_POOL) - 1),
        st.sampled_from([1.0, 2.0, 1e6]),
        st.integers(0, 12),
    ),
    max_size=14,
)


class TestScoring:
    @settings(max_examples=40, deadline=None)
    @given(networks(), seeds)
    def test_one_walk_equals_the_two_walks_bit_for_bit(self, net, seed):
        rng = random.Random(seed)
        links = [(l.cause, l.effect) for l in net.causal]
        weighed = 0
        for e in net.events:
            for _ in range(4):
                s = Scenario.make(e.id, rng.sample(links, rng.randint(0, len(links))))
                if e.prior is None:
                    with pytest.raises(MissingPriorError):
                        _weigh(net, s)
                    continue
                got, want = _weigh(net, s), two_walk_weights(net, s)
                assert [v.hex() for v in got] == [v.hex() for v in want], s
                assert (log_weight(net, s), raw_probability(net, s)) == got
                weighed += 1
        assert weighed > 0

    @pytest.mark.parametrize(
        "s",
        [
            scen("a"),
            scen("a", ("zz", "e")),
            scen("d", ("d", "zz")),
            scen("d", ("b", "e"), ("zz", "g")),
            scen("zz", ("d", "g")),
        ],
    )
    def test_one_walk_raises_where_log_weight_raises(self, fig2, s):
        with pytest.raises((MissingPriorError, UnknownLinkError, UnknownEventError)) as want:
            two_walk_weights(fig2, s)
        for weigh in (_weigh, log_weight, raw_probability):
            with pytest.raises(want.type) as got:
                weigh(fig2, s)
            assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(ranked_inputs)
    def test_order_and_rank_equals_the_two_key_sort(self, picks):
        # The probability field tags each item, so the order of equal
        # (scenario, weight) duplicates is checked too.
        weighted = [
            (RANK_POOL[i], base + m * (WEIGHT_TIE_TOL / 4), float(tag))
            for tag, (i, base, m) in enumerate(picks)
        ]
        assert order_and_rank(weighted) == two_key_rank(weighted)

    def test_structure_key_runs_only_inside_tie_groups(self, monkeypatch):
        keyed = []

        def counted(s):
            keyed.append(s)
            return structure_key(s)

        monkeypatch.setattr(abducer.scenario, "structure_key", counted)
        a, b, ax, bx = RANK_POOL[:4]
        half = WEIGHT_TIE_TOL / 2
        weighted = [(bx, 3.0, 0.1), (a, 1.0, 0.2), (ax, 2.0 + half, 0.3), (b, 2.0, 0.4)]
        ranked = order_and_rank(weighted)
        assert [r.scenario for r in ranked] == [a, b, ax, bx]
        assert sorted(map(repr, keyed)) == sorted(map(repr, [b, ax]))


class TestOrderIndependence:
    @settings(max_examples=60, deadline=None)
    @given(tiny_networks(), seeds)
    def test_shuffled_search_same_verdict(self, net, seed):
        rng = random.Random(seed)
        for s in _candidates(net):
            plain = is_valid_scenario(net, s)
            shuffled = is_valid_scenario(net, s, _shuffle=rng)
            assert plain.valid == shuffled.valid

    @settings(max_examples=40, deadline=None)
    @given(tiny_networks(), seeds)
    def test_shuffled_certificates_still_replay(self, net, seed):
        rng = random.Random(seed)
        replay = TestCertificates().replay
        for s in _candidates(net):
            verdict = is_valid_scenario(net, s, _shuffle=rng)
            if verdict:
                replay(net, s, verdict.certificate)


class TestAttachOrderHint:
    @settings(max_examples=60, deadline=None)
    @given(tiny_networks(), seeds)
    def test_any_order_gives_the_unhinted_verdict(self, net, seed):
        rng = random.Random(seed)
        replay = TestCertificates().replay
        for s in _candidates(net):
            order = list(s.sorted_causations)
            rng.shuffle(order)
            plain = is_valid_scenario(net, s)
            hinted = is_valid_scenario(net, s, order)
            assert (hinted.valid, hinted.reason) == (plain.valid, plain.reason)
            if hinted:
                replay(net, s, hinted.certificate)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tree_orders_of_a_stream_sweep(self, family):
        # The hint explain passes: each yielded tree's causal edges in its
        # BFS order.
        replay = TestCertificates().replay
        checked = 0
        for net, obs in family_queries(family):
            for work, roots in ((net, net.disorders), multi_roots(net)):
                if not obs or not roots:
                    continue
                for _, _, tree in itertools.islice(_CandidateStream(work, roots, obs), 40):
                    s = tree_to_scenario(work, tree)
                    order = [e for e in tree.edges if e in s.causations]
                    plain = is_valid_scenario(work, s)
                    hinted = is_valid_scenario(work, s, order)
                    assert (hinted.valid, hinted.reason) == (plain.valid, plain.reason)
                    if hinted:
                        replay(work, s, hinted.certificate)
                    checked += 1
        assert checked > 100

    def test_a_failed_order_falls_back_to_the_search(self):
        # n0 isa n1 and n0 -> n2: once n0 joins, n0 -> n2 preempts n1 -> n2,
        # so the hinted order fails at n1 -> n2 and the search finds the
        # order that attaches n1 -> n2 first.
        net = add_top(random_network(random.Random(68), 6, 9, 6))
        assert "n1" in net.isa_star("n0") and net.is_link("n0", "n2")
        s = scen(TOP_NAME, (TOP_NAME, "n0"), (TOP_NAME, "n1"), ("n1", "n2"))
        plain = is_valid_scenario(net, s)
        assert plain
        assert is_valid_scenario(net, s, [(TOP_NAME, "n0"), (TOP_NAME, "n1"), ("n1", "n2")]) == plain

    def test_a_hint_that_is_no_order_of_the_links_is_ignored(self, fig2):
        s = scen("d", ("b", "e"), ("d", "g"))
        plain = is_valid_scenario(fig2, s)
        for order in ([], [("b", "e")], [("b", "e"), ("b", "e"), ("d", "g")], [("b", "e"), ("f", "g")]):
            assert is_valid_scenario(fig2, s, order) == plain

    def test_a_chain_attaches_in_one_pass(self):
        n = 10_000
        net = parse_network(
            "event e0 prior=0.5 disorder\n"
            + "".join(f"event e{i}\n" for i in range(1, n))
            + "".join(f"cause e{i} e{i + 1} p=0.9\n" for i in range(n - 1))
        )
        links = [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
        start = time.perf_counter()
        verdict = is_valid_scenario(net, Scenario.make("e0", links), links)
        assert time.perf_counter() - start < 1.0
        assert [(step.participant, step.added_link) for step in verdict.certificate.steps] == [
            (x, (x, y)) for x, y in links
        ]

    def test_unhinted_verdicts_are_unchanged(self):
        # Verdicts, reasons and certificates of unhinted calls over a seeded
        # sweep, hashed; the digest was taken before the hint existed.
        h = hashlib.sha256()
        for seed in range(60):
            net = random_network(random.Random(seed), max_events=8, max_causal=10, max_isa=6)
            for work in (net, add_top(net)):
                for s in _candidates(work):
                    h.update(repr((s, is_valid_scenario(work, s))).encode())
        assert h.hexdigest()[:16] == "77fc40d6370d4d0c"

    def test_hinted_results_are_unchanged(self):
        # Verdicts, reasons and certificates of the calls explain makes, on
        # the trees of test_tree_orders_of_a_stream_sweep, hashed; the digest
        # was taken while the hint still had its own attach routine.
        h = hashlib.sha256()
        for family in sorted(FAMILIES):
            for net, obs in family_queries(family):
                for work, roots in ((net, net.disorders), multi_roots(net)):
                    if not obs or not roots:
                        continue
                    for _, _, tree in itertools.islice(_CandidateStream(work, roots, obs), 40):
                        s = tree_to_scenario(work, tree)
                        order = [e for e in tree.edges if e in s.causations]
                        h.update(repr((s, order, is_valid_scenario(work, s, order))).encode())
        assert h.hexdigest()[:16] == "d03fca14b4951d8f"


def _candidates(net, cap=3):
    """Every (culprit, link subset) pair up to ``cap`` links, valid or not."""
    links = sorted((l.cause, l.effect) for l in net.causal)
    subsets = [()]
    for link in links:
        subsets += [s + (link,) for s in subsets if len(s) < cap]
    for culprit in net.disorders:
        for sub in subsets:
            yield Scenario.make(culprit, sub)


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(tiny_networks())
    def test_probability_shrinks_as_links_grow(self, net):
        priors = {e.id for e in net.events if e.prior is not None}
        by_culprit = {}
        for s in enumerate_valid_scenarios(net, 4):
            if s.culprit in priors:
                by_culprit.setdefault(s.culprit, []).append(s)
        for group in by_culprit.values():
            for small in group:
                for big in group:
                    if small.causations < big.causations:
                        assert probability(net, small) >= probability(net, big)

    @settings(max_examples=50, deadline=None)
    @given(tiny_networks())
    def test_raw_probability_matches_on_valid(self, net):
        priors = {e.id for e in net.events if e.prior is not None}
        for s in enumerate_valid_scenarios(net, 3):
            if s.culprit in priors:
                assert probability(net, s) == raw_probability(net, s)


SWEEP_SHAPES = ((6, 9, 6), (7, 11, 8), (8, 12, 6), (6, 8, 9), (7, 9, 10))


@functools.lru_cache(maxsize=None)
def _valid_scenarios(shape, seed):
    """Every valid scenario of a seeded random network, plain and with the
    distinguished root, as ((network, scenarios), (network, scenarios))."""
    net = random_network(random.Random(seed), *shape)
    return tuple(
        (work, tuple(enumerate_valid_scenarios(work, len(work.causal))))
        for work in (net, add_top(net))
    )


def _banned(net, root):
    """The links the solver forbids below root from the start: those
    shadowed below root out of its proper isa ancestors and out of the
    events other than root that no causal link enters."""
    return _CandidateStream(net, (), ())._banned(root)


def _below(net, root, x):
    return _CandidateStream(net, (), ()).shadowed(root, x)


class TestShadowedLinks:
    def test_fig2(self, fig2):
        # d isa b isa a: a->e gives way to b->e at d, and neither other
        # specialization of a (c, f) is reachable from d.
        assert _banned(fig2, "d") == {("a", "e")}
        assert _banned(fig2, "c") == frozenset()
        assert _banned(fig2, "f") == frozenset()

    def test_no_valid_scenario_holds_a_shadowed_link(self):
        checked = 0
        for shape in SWEEP_SHAPES[:4]:
            for seed in range(100):
                for work, valid in _valid_scenarios(shape, seed):
                    shadowed = {}
                    for s in valid:
                        if s.culprit not in shadowed:
                            shadowed[s.culprit] = _banned(work, s.culprit)
                        assert not s.causations & shadowed[s.culprit], (shape, seed, s)
                        checked += bool(shadowed[s.culprit])
        assert checked > 1000

    def test_no_valid_scenario_holds_a_link_shadowed_below_it(self):
        # A link whose cause is neither the culprit nor an effect hangs off
        # a strict specialization of its cause, so the rule applies to it.
        checked = scenarios = 0
        for shape in SWEEP_SHAPES:
            for seed in range(100):
                for work, valid in _valid_scenarios(shape, seed):
                    for s in valid:
                        scenarios += 1
                        effects = {y for _, y in s.causations}
                        for x, y in s.causations:
                            if x == s.culprit or x in effects:
                                continue
                            rule = _below(work, s.culprit, x)
                            assert (x, y) not in rule, (shape, seed, s)
                            checked += bool(rule)
        assert scenarios > 25000
        assert checked > 500

    def test_isa_entered_cause_below_the_distinguished_root(self):
        # TOP -> d isa b isa a: at d and at b, b->e is an alternative to a->e
        # that nothing more specific preempts, so a->e is shadowed below
        # TOP; b->e is not.  No causal link enters a, so a->e is banned.
        net = add_top(
            parse_network(
                "event d prior=0.5 disorder\nevent b\nevent a\nevent e\n"
                "isa d b\nisa b a\ncause a e p=0.9\ncause b e p=0.3\n"
            )
        )
        assert _below(net, TOP_NAME, "a") == {("a", "e")}
        assert _below(net, TOP_NAME, "b") == frozenset()
        assert _banned(net, TOP_NAME) == {("a", "e")}
        assert not is_valid_scenario(net, scen(TOP_NAME, (TOP_NAME, "d"), ("a", "e")))

    def test_reachable_specialization_keeps_the_link(self):
        # r->y shadows x->y at r, but r->s makes s a participant that
        # specializes x with no alternative of its own.
        text = (
            "event r prior=0.5 disorder\nevent x\nevent s\nevent y\n"
            "isa r x\nisa s x\ncause x y p=0.5\ncause r y p=0.5\n"
        )
        assert _banned(parse_network(text), "r") == {("x", "y")}
        net = parse_network(text + "cause r s p=0.5\n")
        assert _banned(net, "r") == frozenset()
        assert is_valid_scenario(net, scen("r", ("r", "s"), ("x", "y")))

    def test_alternative_preempted_by_a_link_into_it_does_not_shadow(self):
        # u->y would preempt x->y at r, but u1->u preempts u->y in turn
        # while u is not caused, so x->y alone is valid.
        net = parse_network(
            "event r prior=0.5 disorder\nevent u1\nevent m\nevent u\nevent x\nevent y\n"
            "isa r u1\nisa u1 m\nisa m u\nisa u x\n"
            "cause x y p=0.5\ncause u y p=0.5\ncause u1 u p=0.5\n"
        )
        assert ("x", "y") not in _banned(net, "r")
        assert is_valid_scenario(net, scen("r", ("x", "y")))

    def test_a_link_into_the_parents_climb_keeps_the_childs_pass(self):
        # p, q, u and x are attach points below r.  At q, u->y shadows
        # x->y; at p, p->u preempts u->y, so x->y is not shadowed, and
        # only p's own climb pass shows it.
        net = parse_network(
            "event r prior=0.5 disorder\nevent p\nevent q\nevent u\nevent x\nevent y\n"
            "isa p q\nisa q u\nisa u x\n"
            "cause r p p=0.5\ncause p u p=0.5\ncause u y p=0.5\ncause x y p=0.5\n"
        )
        assert _below(net, "r", "x") == frozenset()
        assert ("x", "y") not in _banned(net, "r")
        assert is_valid_scenario(net, scen("r", ("r", "p"), ("x", "y")))
        assert scen("r", ("r", "p"), ("x", "y")) in [r.scenario for r in explain(net, ["y"], k=5)]


class TestAgainstReference:
    """Preemption and the shadow rule against their quadratic reference
    forms in reference_preemption.py, on seeded random questions."""

    def test_preemption_matches_the_reference(self):
        # Each draw: an attach point p below some isa edge, a proper
        # ancestor x of p with an effect y, some other links placed and
        # some events caused.
        asked = preempted = 0
        for seed in range(3000):
            rng = random.Random(seed)
            net = random_network(rng, max_events=10, max_causal=18, max_isa=12)
            events = [e.id for e in net.events]
            links = [(l.cause, l.effect) for l in net.causal]
            below = [e for e in events if net.parents_of(e)]
            for _ in range(20 if below else 0):
                p = rng.choice(below)
                x = rng.choice(sorted(net.isa_star(p) - {p}))
                if not net.effects_of(x):
                    continue
                y = rng.choice(net.effects_of(x))
                placed = {l for l in links if l != (x, y) and rng.random() < 0.25}
                caused = {e for e in events if rng.random() < 0.3}
                want = reference.preempting_alternative(net, placed, caused, p, x, y)
                got = preempting_alternative(net, placed, caused, p, x, y)
                assert got == want, (seed, p, x, y, sorted(placed), sorted(caused))
                asked += 1
                preempted += want is not None
        assert asked > 15000 and preempted > 6000

    def test_shadow_rule_matches_the_reference(self):
        pairs = shadowed = 0
        for seed in range(300):
            net = random_network(random.Random(seed), max_events=10, max_causal=18, max_isa=12)
            for work in (net, add_top(net)):
                stream = _CandidateStream(work, (), ())
                for root in (e.id for e in work.events):
                    for x in (e.id for e in work.events):
                        want = reference.shadowed_below(work, root, x)
                        assert stream.shadowed(root, x) == want, (seed, work.top, root, x)
                        pairs += 1
                        shadowed += bool(want)
        assert pairs > 30000 and shadowed > 15000
