import collections
import heapq
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abducer.scenario
import abducer.solver
from abducer import (
    AbducerError,
    InconsistentConstraintsError,
    Scenario,
    SolveStats,
    SteinerTree,
    TooManyTerminalsError,
    UnknownEventError,
    UnknownLinkError,
    WeightedSearchGraph,
    add_top,
    best_explanations_bruteforce,
    build_search_graph,
    explain,
    is_explanation,
    is_valid_scenario,
    parse_network,
    steiner_dp,
    tree_to_scenario,
)
from abducer.kb import TOP_NAME, multi_roots
from abducer.scenario import WEIGHT_TIE_TOL, log_weight, participants
from abducer.solver import _build_problem, _canonicalize, _CandidateStream

from strategies import FAMILIES, family_queries, networks_with_observations, tiny_networks
from synth import (
    complexity_network,
    random_network,
    random_observations,
    two_disorder_network,
)


class TestSearchGraph:
    def test_fig2_shape(self, fig2):
        g = build_search_graph(fig2)
        assert len(g.node_set) == 7
        assert len(g.weight) == 8
        kinds = sorted("cause" if fig2.is_link(*k) else "isa" for k in g.weight)
        assert kinds == ["cause"] * 4 + ["isa"] * 4
        assert {k for k in g.weight if fig2.is_link(*k)} == {(l.cause, l.effect) for l in fig2.causal}

    def test_edge_weights(self, fig2):
        g = build_search_graph(fig2)
        assert g.weight[("b", "e")] == pytest.approx(math.log(1 / 0.40))
        assert g.weight[("a", "e")] == pytest.approx(math.log(1 / 0.30))
        assert g.weight[("d", "g")] == pytest.approx(math.log(2.0))
        assert g.weight[("f", "g")] == pytest.approx(math.log(1 / 0.60))
        for l in fig2.isa:
            assert g.weight[(l.child, l.parent)] == 0.0

    def test_node_weights_only_for_disorders(self, fig2):
        g = build_search_graph(fig2)
        assert set(g.node_weight) == {"c", "d", "f"}
        assert g.node_weight["c"] == pytest.approx(math.log(10.0))
        assert g.node_weight["d"] == pytest.approx(math.log(20.0))
        assert g.node_weight["f"] == pytest.approx(math.log(12.5))

    def test_top_adds_free_root(self, fig2):
        g = build_search_graph(add_top(fig2))
        assert len(g.node_set) == 8
        assert len(g.weight) == 11
        assert g.node_weight[TOP_NAME] == 0.0
        assert g.weight[(TOP_NAME, "d")] == pytest.approx(math.log(20.0))

    def test_adjacency_indexes(self, fig2):
        g = build_search_graph(fig2)
        assert fig2.successors("f") == ("a", "g")
        assert {src for _, src, _ in g.in_edges["e"]} == {"a", "b"}


class TestSteinerDp:
    def test_two_terminal_tree(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "f", ["e", "g"])
        assert tree is not None
        assert tree.root == "f"
        assert tree.terminals == frozenset({"e", "g"})
        assert tree.total_weight == pytest.approx(math.log(1 / (0.30 * 0.60)))
        assert set(tree.edges) == {("f", "a"), ("a", "e"), ("f", "g")}

    def test_edges_in_bfs_order(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "f", ["e", "g"])
        seen = {tree.root}
        for src, dst in tree.edges:
            assert src in seen
            seen.add(dst)

    def test_unreachable_terminal(self, fig2):
        g = build_search_graph(fig2)
        tree, table = steiner_dp(g, "c", ["g"])
        assert tree is None
        assert table.entry_count >= 0

    def test_root_as_only_terminal(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "c", ["c"])
        assert tree is not None
        assert tree.edges == ()
        assert tree.total_weight == 0.0

    def test_terminal_guard(self):
        g = build_search_graph(complexity_network())
        too_many = [f"n{i:02d}" for i in range(1, 22)]
        with pytest.raises(TooManyTerminalsError):
            steiner_dp(g, "n00", too_many)

    def test_unknown_nodes(self, fig2):
        g = build_search_graph(fig2)
        with pytest.raises(UnknownEventError):
            steiner_dp(g, "zz", ["e"])
        with pytest.raises(UnknownEventError):
            steiner_dp(g, "f", ["zz"])

    def test_long_chain_traces_without_recursion(self, chain_texts):
        g = build_search_graph(parse_network(chain_texts["cause"]))
        tree, _ = steiner_dp(g, "e0", ["e9999"])
        assert tree is not None
        assert len(tree.edges) == 9_999
        assert tree.total_weight == pytest.approx(9_999 * math.log(1 / 0.9))


class TestConstraints:
    def test_forbidden_edge_blocks_tree(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "f", ["e", "g"], forbidden=[("f", "g")])
        assert tree is None

    def test_forbidden_edge_reroutes(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "d", ["e"], forbidden=[("b", "e")])
        assert tree is not None
        assert ("a", "e") in tree.edges

    def test_forced_edge_appears(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "f", ["e"], forced=[("a", "e")])
        assert tree is not None
        assert ("a", "e") in tree.edges
        assert tree_to_scenario(fig2, tree) == Scenario.make("f", [("a", "e")])

    def test_forcing_a_detour_costs_more(self, fig2):
        g = build_search_graph(fig2)
        free, _ = steiner_dp(g, "d", ["e"])
        forced, _ = steiner_dp(g, "d", ["e"], forced=[("a", "e")])
        assert free.total_weight < forced.total_weight

    def test_forced_edge_must_exist(self, fig2):
        g = build_search_graph(fig2)
        with pytest.raises(InconsistentConstraintsError):
            steiner_dp(g, "f", ["e"], forced=[("a", "g")])

    def test_forced_and_forbidden_conflict(self, fig2):
        g = build_search_graph(fig2)
        with pytest.raises(InconsistentConstraintsError):
            steiner_dp(g, "f", ["e"], forced=[("a", "e")], forbidden=[("a", "e")])

    def test_two_forced_parents_impossible(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "d", ["e"], forced=[("a", "e"), ("b", "e")])
        assert tree is None

    def test_forced_edge_into_root_impossible(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "e", ["e"], forced=[("a", "e")])
        assert tree is None

    def test_a_trees_own_edges_forced_give_that_tree_back(self):
        # Constraints and results share one edge format: forcing a tree's
        # edges, as returned, returns the same tree, order and weight bits
        # included.
        compared = 0
        for seed in range(60):
            rng = random.Random(seed)
            net = random_network(rng, max_events=8, max_causal=10, max_isa=6)
            obs = random_observations(rng, net)
            g = build_search_graph(net)
            for root in net.disorders:
                tree, _ = steiner_dp(g, root, obs)
                if tree is None or not tree.edges:
                    continue
                again, _ = steiner_dp(g, root, obs, forced=tree.edges)
                assert again == tree, seed
                compared += 1
        assert compared > 20

    def test_forced_cycle_impossible(self):
        # contraction must notice when the forced edges close a loop;
        # such a graph cannot come from a network, so build it directly
        causal = {("r", "a"): 1.0, ("a", "b"): 1.0, ("b", "a"): 1.0}
        g = WeightedSearchGraph(["r", "a", "b"], causal, (), {})
        tree, _ = steiner_dp(g, "r", ["a"], forced=[("a", "b"), ("b", "a")])
        assert tree is None

    def test_forced_chain_tops_match_a_walk_from_every_head(self):
        # _build_problem finds each forced chain's top once; super_of must
        # be what a walk from every head finds, and None must come exactly
        # for two forced parents, a forced edge into the root or a cycle.
        def naive(root, forced):
            head_of = {}
            for src, dst in sorted(forced):
                if dst in head_of:
                    return None
                head_of[dst] = src
            if root in head_of:
                return None
            tops = {}
            for v in head_of:
                seen = {v}
                u = v
                while u in head_of:
                    u = head_of[u]
                    if u in seen:
                        return None
                    seen.add(u)
                tops[v] = u
            return tops

        outcomes = set()
        for seed in range(300):
            rng = random.Random(seed)
            nodes = [f"n{i}" for i in range(rng.randint(2, 14))]
            root = rng.choice(nodes)
            forced = set()
            for v in nodes:
                parents = int(rng.random() < (0.03 if v == root else 0.7)) + int(rng.random() < 0.03)
                for _ in range(parents):
                    forced.add((rng.choice([u for u in nodes if u != v]), v))
            g = WeightedSearchGraph(nodes, dict.fromkeys(forced, 1.0), (), {})
            problem = _build_problem(g, root, (), frozenset(forced), frozenset())
            want = naive(root, forced)
            assert (None if problem is None else problem.super_of) == want, seed
            outcomes.add(want is None)
        assert outcomes == {True, False}


def _arborescences(g, root, forced=frozenset(), forbidden=frozenset()):
    """Every arborescence rooted at root that holds every forced edge key
    and no forbidden one, as (edge keys, reached nodes, weight)."""
    edges = sorted(g.weight)
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            keys = set(combo)
            if not forced <= keys or keys & forbidden:
                continue
            dsts = [dst for _, dst in combo]
            if len(set(dsts)) != len(dsts) or root in dsts:
                continue
            reached = {root}
            left = list(combo)
            while left:
                usable = [k for k in left if k[0] in reached]
                if not usable:
                    break
                for k in usable:
                    reached.add(k[1])
                    left.remove(k)
            if left:
                continue
            yield combo, reached, sum(g.weight[k] for k in combo)


def _cheapest_arborescence(g, root, terminals, forced=frozenset(), forbidden=frozenset()):
    terms = frozenset(terminals)
    best = None
    for _, reached, w in _arborescences(g, root, forced, forbidden):
        if terms <= reached and (best is None or w < best):
            best = w
    return best


class TestDpOptimality:
    def test_fig2_agrees_with_sweep(self, fig2):
        g = build_search_graph(fig2)
        for root in ("c", "d", "f"):
            for terms in (["e"], ["g"], ["e", "g"]):
                tree, _ = steiner_dp(g, root, terms)
                want = _cheapest_arborescence(g, root, terms)
                if want is None:
                    assert tree is None
                else:
                    assert tree is not None
                    assert tree.total_weight == pytest.approx(want, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(tiny_networks(), st.data())
    def test_random_nets_agree_with_sweep(self, net, data):
        # Unconstrained, then with a drawn subset of the optimal tree's
        # edges forced and one drawn other edge forbidden.
        g = build_search_graph(net)
        effects = sorted({l.effect for l in net.causal})[:2]
        if not effects:
            return
        for root in net.disorders:
            tree = _dp_agrees_with_sweep(g, root, effects)
            if tree is None or not tree.edges:
                continue
            keys = sorted(tree.edges)
            forced = frozenset(data.draw(st.lists(st.sampled_from(keys), unique=True)))
            others = sorted(set(g.weight) - forced)
            forbidden = frozenset([data.draw(st.sampled_from(others))] if others else [])
            _dp_agrees_with_sweep(g, root, effects, forced, forbidden)


def _dp_agrees_with_sweep(g, root, terminals, forced=frozenset(), forbidden=frozenset()):
    tree, _ = steiner_dp(g, root, terminals, forced, forbidden)
    want = _cheapest_arborescence(g, root, terminals, forced, forbidden)
    if want is None:
        assert tree is None
        return None
    assert tree is not None
    assert tree.total_weight == pytest.approx(want, abs=1e-9)
    keys = set(tree.edges)
    assert forced <= keys and not forbidden & keys
    return tree


class TestTreeToScenario:
    def test_isa_edges_are_dropped(self, fig2):
        g = build_search_graph(fig2)
        tree, _ = steiner_dp(g, "f", ["e", "g"])
        s = tree_to_scenario(fig2, tree)
        assert s == Scenario.make("f", [("a", "e"), ("f", "g")])

    # tree_to_scenario checks no shape; the validity check rejects each
    # malformed edge set's scenario.
    def verdict(self, net, root, *edges):
        return is_valid_scenario(net, tree_to_scenario(net, SteinerTree(root, edges, frozenset(), 0.0)))

    def test_two_parents_rejected(self, fig2):
        got = self.verdict(fig2, "c", ("a", "e"), ("b", "e"))
        assert not got and got.reason == "effect e caused by more than one link"

    def test_edge_into_root_rejected(self, fig2):
        got = self.verdict(fig2, "e", ("a", "e"))
        assert not got and got.reason == "culprit e appears as an effect"

    def test_disconnected_edge_rejected(self, fig2):
        got = self.verdict(fig2, "c", ("b", "e"))
        assert not got and got.reason.startswith("unattachable")

    def test_phantom_link_rejected(self, fig2):
        with pytest.raises(UnknownLinkError):
            self.verdict(fig2, "c", ("c", "g"))


# Stream sequences as (weight to 12 places, root, edges in tree order).
# They are the order that solving every Lawler child at once produces;
# solving children lazily must keep it exactly.  Only clean trees appear:
# in the seed-0 network (isa n1 n2, isa n2 n3, obs n3 n4) no tree ends in
# the isa leaf n1>n2 or reaches the observation n3 only by n2>n3.
FIG2_EG_STREAM = [
    (4.2405270724, "f", "f>a f>g a>e"),
    (4.605170185988, "d", "d>b d>g b>e"),
    (4.89285225844, "d", "d>b d>g b>a a>e"),
]
# random_network(Random(0), 7, 9, 4) through TOP; obs ["n3", "n4"]
MULTI_SEED0_STREAM = [
    (2.943212554974, "TOP", "TOP>n0 n0>n1 n1>n3 n1>n4"),
    (3.322052730139, "TOP", "TOP>n0 TOP>n2 n0>n1 n1>n3 n1>n4"),
    (3.534105880549, "TOP", "TOP>n0 n0>n1 n1>n2 n1>n3 n1>n4 n2>n5"),
    (3.797087607948, "TOP", "TOP>n0 n0>n1 n1>n2 n1>n4 n2>n3 n3>n5"),
    (3.912946055714, "TOP", "TOP>n0 TOP>n2 n0>n1 n2>n5 n1>n3 n1>n4"),
    (4.001131666812, "TOP", "TOP>n0 n0>n1 n1>n3 n1>n4 n3>n5"),
    (4.175927783114, "TOP", "TOP>n0 TOP>n2 n0>n1 n2>n3 n1>n4 n3>n5"),
    (4.379971841977, "TOP", "TOP>n0 TOP>n2 n0>n1 n1>n3 n1>n4 n3>n5"),
    (4.645504731812, "TOP", "TOP>n0 n0>n1 n0>n5 n1>n3 n1>n4"),
    (4.917307107696, "TOP", "TOP>n0 n0>n1 n1>n3 n1>n4 n1>n5"),
    (5.024344906977, "TOP", "TOP>n0 TOP>n2 n0>n1 n0>n5 n1>n3 n1>n4"),
    (5.296147282861, "TOP", "TOP>n0 TOP>n2 n0>n1 n1>n3 n1>n4 n1>n5"),
]
# random_network(Random(12), 7, 9, 4) through TOP; obs ["n3"]
MULTI_SEED12_STREAM = [
    (0.738126829504, "TOP", "TOP>n0 n0>n3"),
    (1.545452595914, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n4 n4>n5"),
    (2.367560378095, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n2"),
    (2.448642689567, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n5"),
    (2.805772395155, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n2 n2>n4"),
    (3.174886144505, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n2 n1>n4 n4>n5"),
    (3.613098161565, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n2 n2>n4 n4>n5"),
    (4.078076238158, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n2 n1>n5"),
    (4.516288255218, "TOP", "TOP>n0 n0>n1 n0>n3 n1>n2 n1>n5 n2>n4"),
]


def _is_clean(net, tree, terminals):
    """Every isa edge's head has an out-edge in the tree, and a terminal
    entered by an isa edge has a causal one."""
    for src, dst in tree.edges:
        if net.is_link(src, dst):
            continue
        outs = [f for f in tree.edges if f[0] == dst]
        if dst in terminals:
            outs = [f for f in outs if net.is_link(*f)]
        if not outs:
            return False
    return True


def _holds_rule_link(stream, root, edges, climb_only=False):
    """Some causal edge x->y is one the stream's rule names below root, and
    x lies on root's climb or (unless climb_only) the tree enters x by an
    isa edge."""
    net = stream.net
    climb = net.isa_star(root)
    entered = set() if climb_only else {y for x, y in edges if not net.is_link(x, y)}
    return any(
        net.is_link(x, y)
        and (x in climb or x in entered)
        and (x, y) in stream.shadowed(root, x)
        for x, y in edges
    )


class _RuleFree(_CandidateStream):
    """The stream with no link shadowed, so only the clean rule splits."""

    def shadowed(self, root, x):
        return frozenset()


class _ClimbRule(_CandidateStream):
    """The stream with its rule cut to the links out of the root's climb,
    which every subspace of the root forbids from the start."""

    def shadowed(self, root, x):
        return super().shadowed(root, x) if x in self.net.isa_star(root) else frozenset()


def _rule(net):
    """A stream over net with no roots and no terminals, for its rule."""
    return _CandidateStream(net, (), ())


def _stream_items(net, roots, terminals, limit=None):
    # The pinned streams predate the shadow rule; they are read rule-free.
    stream = itertools.islice(_RuleFree(net, roots, terminals), limit)
    return [
        (round(w, 12), root, " ".join(f"{src}>{dst}" for src, dst in tree.edges))
        for w, root, tree in stream
    ]


class TestCandidateStream:
    def test_weights_non_decreasing(self, fig2):
        ws = [w for w, _, _ in _CandidateStream(fig2, ["c", "d", "f"], ["e"])]
        assert ws == sorted(ws)
        assert len(ws) >= 3

    def test_no_tree_yielded_twice(self, fig2):
        seen = set()
        for _, root, tree in _CandidateStream(fig2, ["c", "d", "f"], ["g"]):
            key = (root, frozenset(tree.edges))
            assert key not in seen
            seen.add(key)

    def test_first_candidate_is_the_minimum(self, fig2):
        g = build_search_graph(fig2)
        stream = iter(_CandidateStream(fig2, ["f"], ["e", "g"]))
        w, root, tree = next(stream)
        want = _cheapest_arborescence(g, "f", ["e", "g"])
        assert w == pytest.approx(g.node_weight["f"] + want, abs=1e-9)

    def test_stream_weight_matches_scenario_weight(self, fig2):
        for w, root, tree in _CandidateStream(fig2, ["c", "d", "f"], ["e"]):
            s = tree_to_scenario(fig2, tree)
            assert w == pytest.approx(log_weight(fig2, s), abs=1e-9)

    def test_fig2_sequence_pinned(self, fig2):
        assert _stream_items(fig2, ["c", "d", "f"], ["e", "g"], 40) == FIG2_EG_STREAM

    @pytest.mark.parametrize(
        "seed, want", [(0, MULTI_SEED0_STREAM), (12, MULTI_SEED12_STREAM)]
    )
    def test_random_multi_sequence_pinned(self, seed, want):
        rng = random.Random(seed)
        net = random_network(rng, max_events=7, max_causal=9, max_isa=4)
        obs = random_observations(rng, net)
        assert _stream_items(add_top(net), [TOP_NAME], obs) == want

    @settings(max_examples=40, deadline=None)
    @given(networks_with_observations())
    def test_yielded_trees_are_clean_and_cover_the_terminals(self, net_obs):
        net, obs = net_obs
        if not obs or not net.disorders:
            return
        terms = frozenset(obs)
        for work, roots in ((net, list(net.disorders)), (add_top(net), [TOP_NAME])):
            for _, root, tree in itertools.islice(_CandidateStream(work, roots, terms), 30):
                assert _is_clean(work, tree, terms)
                assert terms <= participants(work, tree_to_scenario(work, tree))

    def test_every_clean_tree_is_yielded_once(self):
        # Drained, the stream yields exactly the clean arborescences that
        # cover the terminals, each once, lightest first.  Repairs that
        # matter (two qualifying out-edges at an isa head) are rare, hence
        # a few hundred isa-rich networks small enough to sweep.
        for seed in range(400):
            net = random_network(random.Random(seed), max_events=7, max_causal=8, max_isa=6)
            terms = frozenset(sorted({l.effect for l in net.causal})[:2])
            if not terms or not net.disorders:
                continue
            g = build_search_graph(net)
            got = [
                (root, frozenset(tree.edges), w)
                for w, root, tree in _RuleFree(net, net.disorders, terms)
            ]
            assert [w for *_, w in got] == sorted(w for *_, w in got), seed
            want = set()
            for root in net.disorders:
                for combo, reached, _ in _arborescences(g, root):
                    tree = SteinerTree(root, combo, terms, 0.0)
                    if terms <= reached and _is_clean(net, tree, terms):
                        want.add((root, frozenset(combo)))
            assert len(got) == len(want), seed
            assert {(root, keys) for root, keys, _ in got} == want, seed

    def test_shadowed_links_drop_only_the_trees_that_hold_them(self):
        # Seeding each root's forbidden keys with its shadowed links yields
        # the unconstrained stream minus the trees holding one, in order.
        dropped = 0
        for seed in range(400):
            net = random_network(random.Random(seed), max_events=7, max_causal=8, max_isa=6)
            terms = frozenset(sorted({l.effect for l in net.causal})[:2])
            if not terms or not net.disorders:
                continue
            plain = [(w, r, t.edges) for w, r, t in _RuleFree(net, net.disorders, terms)]
            stream = _ClimbRule(net, net.disorders, terms)
            want = [i for i in plain if stream._banned(i[1]).isdisjoint(i[2])]
            got = [(w, r, t.edges) for w, r, t in stream]
            assert got == want, seed
            dropped += len(plain) - len(want)
        assert dropped > 100

    @pytest.mark.parametrize("multi", [False, True])
    def test_the_rule_drops_only_the_trees_that_hold_a_rule_link(self, multi):
        # With the full rule the stream yields the unconstrained stream
        # minus the trees that hold a shadowed link out of the root's climb
        # or out of an event they enter by isa, in order, weights included.
        below = 0
        for seed in range(400):
            net = random_network(random.Random(seed), max_events=8, max_causal=10, max_isa=8)
            terms = frozenset(sorted({l.effect for l in net.causal})[:2])
            if not terms or not net.disorders:
                continue
            work = add_top(net) if multi else net
            roots = [TOP_NAME] if multi else list(net.disorders)
            plain = [(w, r, t.edges) for w, r, t in _RuleFree(work, roots, terms)]
            stream = _CandidateStream(work, roots, terms)
            want = [i for i in plain if not _holds_rule_link(stream, *i[1:])]
            got = [(w, r, t.edges) for w, r, t in stream]
            assert got == want, seed
            below += sum(
                _holds_rule_link(stream, r, es) and not _holds_rule_link(stream, r, es, climb_only=True)
                for _, r, es in plain
            )
        assert below > 50

    def test_terminal_crossed_by_isa_is_not_covered(self):
        # d isa x isa y -> w reaches both observations, but x is crossed
        # by isa only and is no participant; the tree is never yielded.
        net = parse_network(
            "event d prior=0.5 disorder\nevent x\nevent y\nevent w\n"
            "isa d x\nisa x y\ncause y w p=0.5\n"
        )
        assert _stream_items(net, ["d"], ["x", "w"]) == []
        assert _stream_items(net, ["d"], ["w"]) == [(1.38629436112, "d", "d>x x>y y>w")]
        assert explain(net, ["x", "w"], k=3) == []

    def test_isa_diamond_gives_two_trees_for_one_scenario(self):
        # Both isa routes from d to the link cause x make clean trees with
        # the scenario d, {x->o}; explain's seen set reports it once.
        net = parse_network(
            "event d prior=0.5 disorder\nevent a\nevent b\nevent x\nevent o\n"
            "isa d a\nisa d b\nisa a x\nisa b x\ncause x o p=0.5\n"
        )
        assert _stream_items(net, ["d"], ["o"]) == [
            (1.386294361120, "d", "d>a a>x x>o"),
            (1.386294361120, "d", "d>b b>x x>o"),
        ]
        got = explain(net, ["o"], k=3)
        assert [r.scenario for r in got] == [Scenario.make("d", [("x", "o")])]

    @pytest.mark.parametrize("p_xo", [0.95, 0.5])
    def test_children_past_the_stop_point_are_never_solved(self, p_xo):
        # d->o is the best tree; every other tree lies past the k=1 stop.
        # Forcing x_i->o would give o a second parent, so that child is
        # never built.  Forcing d->x_i leaves the tree d->o, so that child's
        # optimum is d->o plus d->x_i, built in closed form without a DP
        # and keyed past the stop.  The exclusion child of d->o reaches the
        # top, but each of its trees leaves d by some d->x_i and then
        # reaches o, so its lower bound, w(d) + ln 2 + ln(1/p(x_i->o)),
        # lies past the stop as well: it is re-keyed and never solved.
        # Only the base DP runs.
        text = "event d prior=0.5 disorder\nevent o\ncause d o p=0.9\n"
        for i in range(10):
            text += f"event x{i}\ncause d x{i} p=0.5\ncause x{i} o p={p_xo}\n"
        net = parse_network(text)
        stats = SolveStats()
        got = explain(net, ["o"], k=1, stats=stats)
        assert [r.scenario for r in got] == [Scenario.make("d", [("d", "o")])]
        assert stats.dp_runs == 1

    def test_the_stop_bound_holds_inside_the_stream(self):
        # The culprit d alone explains d.  Both extension children lie past
        # the k=1 stop: d->x leaves the tree (closed form, no DP), and the
        # x->y child, whose bound sorts first, would need a DP.  Only the
        # base DP runs, because the stream stops before popping either.
        net = parse_network(
            "event d prior=0.1 disorder\nevent x\nevent y\n"
            "cause d x p=0.1\ncause x y p=0.3\n"
        )
        stats = SolveStats()
        got = explain(net, ["d"], k=1, stats=stats)
        assert [r.scenario for r in got] == [Scenario.make("d")]
        assert stats.dp_runs == 1

    @settings(max_examples=40, deadline=None)
    @given(networks_with_observations())
    def test_closed_form_extension_children_match_the_dp(self, net_obs):
        # An extension child whose forced edge f leaves the tree T is built
        # as T + f without a DP; the DP under the same forced edges must
        # return exactly that tree, edge order and weight bits included.
        net, obs = net_obs
        if not obs or not net.disorders:
            return
        terms = tuple(sorted(set(obs)))
        for work, roots in ((net, list(net.disorders)), (add_top(net), [TOP_NAME])):
            g = build_search_graph(work)
            causal = sorted((l.cause, l.effect) for l in work.causal)
            for _, root, tree in itertools.islice(_CandidateStream(work, roots, terms), 15):
                tree_keys = frozenset(tree.edges)
                nodes = {root} | {dst for _, dst in tree.edges}
                for f in causal:
                    if f[0] not in nodes or f[1] in nodes:
                        continue
                    edges, weight = _canonicalize(g, root, tree.edges + (f,), terms)
                    child, _ = steiner_dp(g, root, terms, forced=tree_keys | {f})
                    assert child.edges == edges
                    assert child.total_weight == weight


def _recorded(rule):
    """rule, recording each split it makes on the stream that calls it."""

    def recorded(stream, root, tree):
        split = rule(stream, root, tree)
        stream.open = None
        if split is not None:
            forced, forbidden = stream.subspace[id(tree)]
            stream.open = dict(
                rule=rule, root=root, forced=forced, forbidden=forbidden,
                tree=tree, split=split, children=[],
            )
            stream.splits.append(stream.open)
        return split

    return recorded


class _SplitRecorder(_CandidateStream):
    """The stream, recording each split its loop makes: the rule that
    fired, the popped tree's subspace (F, X), the tree, the split and the
    children deferred for it.  ``spaces`` lists the root and forbidden
    keys of every tree pushed and every child deferred."""

    _rules = tuple(_recorded(rule) for rule in _CandidateStream._rules)

    def __init__(self, *args, **kwargs):
        self.splits = []
        self.subspace = {}
        self.spaces = []
        self.open = None
        super().__init__(*args, **kwargs)

    def _push(self, root, forced, forbidden, tree):
        # A tree stays alive on the heap until it is popped, so its id is
        # its own when a rule sees it.
        self.subspace[id(tree)] = (forced, forbidden)
        self.spaces.append((root, forbidden))
        super()._push(root, forced, forbidden, tree)

    def _defer(self, lb, root, forced, forbidden, grown=None):
        if self.open is not None:
            self.open["children"].append((forced, forbidden))
        self.spaces.append((root, forbidden))
        super()._defer(lb, root, forced, forbidden, grown)


class _RuleFreeRecorder(_SplitRecorder, _RuleFree):
    """The split recorder over the rule-free stream."""


class TestSplitSeam:
    @pytest.mark.parametrize("multi", [False, True])
    def test_every_split_is_exact(self, multi):
        # For every split of a drained stream, over the parent subspace's
        # arborescences: the children are disjoint and lie inside it, and
        # every tree no child holds contains the split edge and is one the
        # rule that fired rejects.
        fired = collections.Counter()
        several = 0
        for seed in range(400):
            net = random_network(random.Random(seed), max_events=7, max_causal=8, max_isa=6)
            terms = frozenset(sorted({l.effect for l in net.causal})[:2])
            if not terms or not net.disorders:
                continue
            work = add_top(net) if multi else net
            roots = [TOP_NAME] if multi else list(net.disorders)
            g = build_search_graph(work)
            all_trees = {}
            for recorder in (_RuleFreeRecorder, _SplitRecorder):
                stream = recorder(work, roots, terms)
                list(stream)
                for split in stream.splits:
                    root, forced, forbidden = split["root"], split["forced"], split["forbidden"]
                    if root not in all_trees:
                        all_trees[root] = [frozenset(c) for c, _, _ in _arborescences(g, root)]
                    parent = [t for t in all_trees[root] if forced <= t and not t & forbidden]
                    held = set()
                    for f, x in split["children"]:
                        assert forced <= f and forbidden <= x, seed
                        mine = {t for t in parent if f <= t and not t & x}
                        assert held.isdisjoint(mine), seed
                        held |= mine
                    e, _ = split["split"]
                    dropped = [t for t in parent if t not in held]
                    assert frozenset(split["tree"].edges) in dropped, seed
                    for t in dropped:
                        assert e in t, seed
                        tree = SteinerTree(root, tuple(sorted(t)), terms, 0.0)
                        assert split["rule"](stream, root, tree) is not None, seed
                    fired[split["rule"].__name__, recorder is _RuleFreeRecorder] += 1
                    several += len(split["split"][1]) > 1
        assert set(fired) == {
            ("_unclean_edge", True), ("_unclean_edge", False), ("_shadowed_edge", False)
        }, fired
        assert several > 10

    @pytest.mark.parametrize("multi", [False, True])
    def test_every_subspace_forbids_the_banned_links(self, multi):
        # Every pushed tree and deferred child of root r forbids banned(r),
        # the rule links out of r's proper isa ancestors, so no yielded tree
        # holds one and the shadow rule never needs to test r's climb.
        banned_roots = 0
        for seed in range(400):
            net = random_network(random.Random(seed), max_events=7, max_causal=8, max_isa=6)
            terms = frozenset(sorted({l.effect for l in net.causal})[:2])
            if not terms or not net.disorders:
                continue
            work = add_top(net) if multi else net
            roots = [TOP_NAME] if multi else list(net.disorders)
            stream = _SplitRecorder(work, roots, terms)
            yielded = list(stream)
            for root, forbidden in stream.spaces:
                assert stream._banned(root) <= forbidden, seed
            for _, root, tree in yielded:
                assert stream._banned(root).isdisjoint(tree.edges), seed
            banned_roots += sum(bool(stream._banned(r)) for r in roots)
        # The distinguished root has no isa ancestor, so in multi mode the
        # sweep checks that nothing is banned and nothing breaks.
        assert banned_roots > 50 or multi


class TestExplain:
    def test_single_observation_g(self, fig2):
        got = explain(fig2, ["g"], k=3)
        assert [(r.scenario, r.rank) for r in got] == [
            (Scenario.make("f", [("f", "g")]), 1),
            (Scenario.make("d", [("d", "g")]), 2),
            (Scenario.make("f", [("a", "e"), ("f", "g")]), 3),
        ]
        assert got[0].probability == pytest.approx(0.048)
        assert got[2].probability == pytest.approx(0.0144)

    def test_rank_three_needs_a_decorated_tree(self, fig2):
        # the third-best explanation of g carries a branch that explains
        # nothing extra; a solver that only ever returns minimal trees
        # would miss it
        got = explain(fig2, ["g"], k=3)
        oracle = best_explanations_bruteforce(fig2, ["g"], 3)
        assert [r.scenario for r in got] == [r.scenario for r in oracle]

    def test_pair_observation(self, fig2):
        got = explain(fig2, ["e", "g"], k=2)
        assert got[0].scenario == Scenario.make("f", [("a", "e"), ("f", "g")])
        assert got[0].log_weight == pytest.approx(4.240527072400182, abs=1e-12)
        assert got[1].scenario == Scenario.make("d", [("b", "e"), ("d", "g")])

    def test_cause_side_observation(self, fig2):
        got = explain(fig2, ["a"], k=1)
        assert got[0].scenario == Scenario.make("c", [("a", "e")])
        assert got[0].log_weight == pytest.approx(3.506557897319982, abs=1e-12)

    def test_fewer_than_k(self, fig2):
        got = explain(fig2, ["e", "g"], k=10)
        assert len(got) == 2

    def test_no_explanations(self):
        net = parse_network(
            "event d prior=0.5 disorder\nevent s\nevent lone\ncause d s p=0.5\n"
        )
        assert explain(net, ["lone"], k=2) == []

    def test_no_disorders(self):
        net = parse_network("event a\nevent b\ncause a b p=0.5\n")
        assert explain(net, ["b"], k=2) == []

    def test_argument_validation(self, fig2):
        with pytest.raises(ValueError):
            explain(fig2, [], k=1)
        with pytest.raises(ValueError):
            explain(fig2, ["g"], k=0)
        with pytest.raises(UnknownEventError):
            explain(fig2, ["zz"], k=1)

    def test_weight_fields_reconcile(self, fig2):
        for r in explain(fig2, ["g"], k=5):
            assert r.log_weight == pytest.approx(log_weight(fig2, r.scenario), abs=1e-12)
            assert math.exp(-r.log_weight) == pytest.approx(r.probability, rel=1e-12)

    @pytest.mark.parametrize("multi", [False, True])
    def test_twenty_observations_that_nothing_joins_answer_at_once(self, multi):
        # No node reaches two of them, so only the single-terminal masks
        # are filled.  Filling all 3^t submask pairs took 0.95 s at 14.
        n = 20
        net = parse_network(
            "event d prior=0.5 disorder\nevent e\ncause d e p=0.5\n"
            + "".join(f"event o{i}\n" for i in range(n))
        )
        start = time.perf_counter()
        assert explain(net, [f"o{i}" for i in range(n)], k=1, multi=multi) == []
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("multi", [False, True])
    def test_too_many_observations_start_no_dp(self, monkeypatch, multi):
        # 21 distinct observations would need a base DP over 2**21 masks;
        # the stream refuses them before any DP starts.
        def no_dp(*args):
            raise AssertionError("a DP started")

        monkeypatch.setattr(abducer.solver, "_run_dp", no_dp)
        net = parse_network("event d prior=0.5 disorder\n" + "".join(
            f"event e{i}\ncause d e{i} p=0.5\n" for i in range(21)
        ))
        with pytest.raises(TooManyTerminalsError, match="21 terminals exceed 20"):
            explain(net, [f"e{i}" for i in range(21)], k=1, multi=multi)

    @pytest.mark.parametrize(
        "obs, multi, walked",
        [(["e", "g"], False, {"d": 1, "f": 1}), (["g"], True, {TOP_NAME: 1})],
    )
    def test_one_reachable_walk_per_root(self, fig2, monkeypatch, obs, multi, walked):
        # The shadow rule and the stream's extension edges share one memo.
        calls = []
        walk = abducer.solver.reachable

        def counted(net, root):
            calls.append(root)
            return walk(net, root)

        monkeypatch.setattr(abducer.solver, "reachable", counted)
        explain(fig2, obs, k=3, multi=multi)
        assert {r: calls.count(r) for r in calls} == walked

    @pytest.mark.parametrize(
        "obs, multi, tabled",
        [(["e", "g"], False, {"d": 1, "f": 1}), (["g"], True, {TOP_NAME: 1})],
    )
    def test_one_shadow_table_per_root(self, fig2, monkeypatch, obs, multi, tabled):
        # The banned links and the rule's splits read one table per root.
        calls = []
        table = abducer.solver.shadow_table

        def counted(net, root, reach, passes):
            calls.append(root)
            return table(net, root, reach, passes)

        monkeypatch.setattr(abducer.solver, "shadow_table", counted)
        explain(fig2, obs, k=3, multi=multi)
        assert {r: calls.count(r) for r in calls} == tabled

    def test_one_climb_pass_per_attach_point(self, monkeypatch):
        # Both disorders reach p, whose climb has q above it.  Each root's
        # table needs p's covered_below pass; the query makes it once, and
        # the next query makes its own.
        net = parse_network(
            "event d1 prior=0.5 disorder\nevent d2 prior=0.4 disorder\n"
            "event p\nevent q\nevent o\nisa p q\n"
            "cause d1 p p=0.9\ncause d2 p p=0.8\ncause q o p=0.7\n"
        )
        passes, tables = [], []
        covered, table = abducer.scenario.covered_below, abducer.solver.shadow_table

        def counted_pass(net, p):
            passes.append(p)
            return covered(net, p)

        def counted_table(net, root, reach, shared):
            tables.append(root)
            return table(net, root, reach, shared)

        monkeypatch.setattr(abducer.scenario, "covered_below", counted_pass)
        monkeypatch.setattr(abducer.solver, "shadow_table", counted_table)
        for _ in range(2):
            passes.clear()
            tables.clear()
            got = explain(net, ["o"], k=3)
            assert [r.scenario.culprit for r in got] == ["d1", "d2"]
            assert sorted(tables) == ["d1", "d2"]
            assert passes == ["p"]


def _dense_query(seed, index):
    """Query ``index`` (0-based) of the dense family at seed."""
    return list(family_queries("dense", seed, index + 1))[-1]


class TestDenseRegressions:
    def test_no_explanation_ends_after_the_base_dp(self):
        # n13 is reachable only as an isa parent of the disorder n3, and its
        # one cause n5 is unreachable, so nothing covers n13.  The base
        # tree climbs n3 isa n13; n13 has no out-edge, so the repair leaves
        # only the child without that edge, and that child has no tree.
        net, obs = _dense_query(1, 6)
        assert (len(net.events), len(net.causal), len(net.isa)) == (36, 48, 9)
        assert obs == frozenset({"n11", "n13"})
        stats = SolveStats()
        assert explain(net, obs, k=3, multi=True, stats=stats) == []
        assert stats.dp_runs <= 4

    def test_isa_heavy_query_stays_small(self):
        net, obs = _dense_query(0, 4)
        assert (len(net.events), len(net.causal), len(net.isa)) == (12, 49, 16)
        assert obs == frozenset({"n6", "n9", "n10"})
        stats = SolveStats()
        got = explain(net, obs, k=3, stats=stats)
        assert len(got) == 3
        for r in got:
            assert is_explanation(net, r.scenario, obs)
            assert r.log_weight == pytest.approx(log_weight(net, r.scenario), abs=1e-12)
        assert stats.dp_runs < 1500


def _unpruned_children(stream, root, forced, forbidden, tree):
    """Every Lawler child of a yielded tree as (kind, forced, forbidden),
    before any empty child is skipped."""
    out = []
    prefix = set(forced)
    for e in tree.edges:
        if e not in forced:
            out.append(("exclusion", frozenset(prefix), forbidden | {e}))
            prefix.add(e)
    heads = {root} | {dst for _, dst in tree.edges}
    sup_forbidden = set(forbidden)
    for f in stream._extension_edges(root):
        if f in tree.edges or f in sup_forbidden:
            continue
        if f[1] not in heads:
            out.append(("extension", frozenset(tree.edges) | {f}, frozenset(sup_forbidden)))
        sup_forbidden.add(f)
    return out


class TestEmptyChildren:
    def test_a_chain_runs_one_dp(self):
        # Every chain event has one in-edge, so every exclusion child of the
        # one tree is empty and none is solved.
        n = 300
        text = "event e0 prior=0.5 disorder\n" + "".join(f"event e{i}\n" for i in range(1, n))
        text += "".join(f"cause e{i} e{i + 1} p=0.9\n" for i in range(n - 1))
        net = parse_network(text)
        stats = SolveStats()
        got = explain(net, [f"e{n - 1}"], k=1, stats=stats)
        links = [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
        assert [r.scenario for r in got] == [Scenario.make("e0", links)]
        assert got[0].log_weight == pytest.approx(math.log(2) + (n - 1) * math.log(1 / 0.9))
        assert stats.dp_runs == 1

    def test_side_branches_cost_no_copy_per_child(self):
        # Each chain event e_i also starts a side branch e_i -> s_i -> t_i.
        # The one tree defers an extension child per side link, holding the
        # tree and the edge's index; none is built, since the stream stops
        # at the chain's weight.  Children that each copied the tree's edges
        # and the growing forbidden set made this quadratic in n.
        n = 6000
        text = "event d prior=0.5 disorder\n"
        text += "".join(f"event e{i}\nevent s{i}\nevent t{i}\n" for i in range(n))
        text += "cause d e0 p=0.9\n" + "".join(f"cause e{i} e{i + 1} p=0.9\n" for i in range(n - 1))
        text += "".join(f"cause e{i} s{i} p=0.5\ncause s{i} t{i} p=0.5\n" for i in range(n))
        net = parse_network(text)
        start = time.perf_counter()
        got = explain(net, [f"e{n - 1}"], k=1)
        assert time.perf_counter() - start < 1.0
        links = [("d", "e0")] + [(f"e{i}", f"e{i + 1}") for i in range(n - 1)]
        assert [r.scenario for r in got] == [Scenario.make("d", links)]

    @pytest.mark.parametrize("family", ["small", "dense"])
    def test_skipped_children_hold_no_tree(self, monkeypatch, family):
        skipped = []

        class Recording(_CandidateStream):
            def _partition(self, lb, root, forced, forbidden, tree):
                deferred = set()
                defer = self._defer

                def recording_defer(lb, root, forced, forbidden, parent=None):
                    if parent is None:
                        deferred.add((forced, forbidden))
                    else:
                        # An extension entry holds its edge's index i and
                        # its parent's tree T and forbidden set X.
                        ext, keys = self._extension_edges(root), frozenset(parent.edges)
                        deferred.add((keys | {ext[forced]}, forbidden | (set(ext[:forced]) - keys)))
                    defer(lb, root, forced, forbidden, parent)

                self._defer = recording_defer
                try:
                    super()._partition(lb, root, forced, forbidden, tree)
                finally:
                    del self._defer
                children = _unpruned_children(self, root, forced, forbidden, tree)
                assert deferred <= {(f, x) for _, f, x in children}
                for kind, f, x in children:
                    if (f, x) not in deferred:
                        skipped.append((kind, self.g, root, self.terminals, f, x))

        monkeypatch.setattr(abducer.solver, "_CandidateStream", Recording)
        for net, obs in family_queries(family):
            for multi in (False, True):
                try:
                    explain(net, obs, k=3, multi=multi)
                except AbducerError:
                    pass
        assert {kind for kind, *_ in skipped} == {"exclusion", "extension"}
        for _, g, root, terminals, forced, forbidden in skipped:
            assert steiner_dp(g, root, terminals, forced, forbidden)[0] is None


def _dead_isa_edges(net, terminals):
    """The isa edges c->x where x has no causal out-edge (x a terminal) or
    no out-edge at all (x not a terminal), from the network's link lists."""
    causes = {l.cause for l in net.causal}
    sources = causes | {l.child for l in net.isa}
    return {(c, x) for c, x in net.isa if x not in (causes if x in terminals else sources)}


def _distances_to(g, t, skip=frozenset()):
    """Every node's distance to t in g without the skip edges, by a reverse
    Dijkstra of its own."""
    dist = {t: 0.0}
    heap = [(0.0, t)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, u, k in g.in_edges.get(v, ()):
            if k not in skip and d + w < dist.get(u, math.inf):
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


def _reference_bound(net, g, root, terminals, forced, forbidden):
    """The child bound of the ``_CandidateStream`` docstring, from the
    graph's edge list and fresh distances in the graph without the query's
    dead isa edges, taken from the network's link lists."""
    inside = {root} | {dst for _, dst in forced}
    if any(src not in inside for src, _ in forced):
        return -math.inf
    exits = [
        (w, z) for (a, z), w in g.weight.items() if a in inside and z not in inside and (a, z) not in forbidden
    ]
    dead = _dead_isa_edges(net, terminals)
    far = 0.0
    for t in terminals:
        if t not in inside:
            dist = _distances_to(g, t, dead)
            far = max(far, min((w + dist[z] for w, z in exits if z in dist), default=math.inf))
    return g.node_weight.get(root, 0.0) + math.fsum(g.weight[k] for k in forced) + far - WEIGHT_TIE_TOL


class _Unbounded(_CandidateStream):
    """The stream with every child keyed by its parent's weight."""

    def _lower_bound(self, root, forced, forbidden):
        return -math.inf


class TestChildBounds:
    @pytest.mark.parametrize("multi", [False, True])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bounds_are_sound(self, monkeypatch, family, multi):
        # Every bound the stream computes is the direct computation's, and
        # every child is solved: one bounded at infinity (dropped) holds no
        # tree, and any other weighs at least its bound (so a re-keyed
        # child still sorts before its trees).
        bounds = []

        class Recording(_CandidateStream):
            def _lower_bound(self, root, forced, forbidden):
                lb = super()._lower_bound(root, forced, forbidden)
                bounds.append((self.net, self.g, self.terminals, root, forced, forbidden, lb))
                return lb

        monkeypatch.setattr(abducer.solver, "_CandidateStream", Recording)
        for net, obs in family_queries(family, count=100):
            if obs:
                explain(net, obs, k=3, multi=multi)
        seen = collections.Counter()
        for net, g, terminals, root, forced, forbidden, lb in bounds:
            want = _reference_bound(net, g, root, terminals, forced, forbidden)
            assert lb == want or abs(lb - want) <= 1e-12
            tree, _ = steiner_dp(g, root, terminals, forced, forbidden)
            if lb == math.inf:
                assert tree is None
                seen["dropped"] += 1
            elif lb > -math.inf:
                seen["bounded"] += 1
                if tree is not None:
                    assert g.node_weight.get(root, 0.0) + tree.total_weight >= lb
        assert seen["dropped"] and seen["bounded"]

    @pytest.mark.parametrize("family", ["small", "isa-rich"])
    def test_bounds_keep_the_yield_order(self, family):
        for net, obs in family_queries(family, count=100):
            for work, roots in ((net, net.disorders), multi_roots(net)):
                if not obs or not roots:
                    continue
                got = [(w, root, tree.edges) for w, root, tree in _CandidateStream(work, roots, obs)]
                want = [(w, root, tree.edges) for w, root, tree in _Unbounded(work, roots, obs)]
                assert got == want

    @pytest.mark.parametrize("multi, most", [(False, 431), (True, 1098)])
    def test_dense_family_dp_count(self, multi, most):
        # Dense family, k=3, seeds 0-3.  Keyed by their parents' weights
        # alone, the children took 707 DPs in single mode and 1,501 in
        # multi mode; with base-DP bounds alone, 502 and 1,182.  Dead isa
        # edges forbidden up front and roots opened at the heap top bring
        # them to 432 and 1,099, and shadowed links out of uncaused events
        # forbidden up front to 431 and 1,098.
        stats = SolveStats()
        for seed in range(4):
            for net, obs in family_queries("dense", seed):
                if obs:
                    explain(net, obs, k=3, multi=multi, stats=stats)
        assert stats.dp_runs <= most

    @pytest.mark.parametrize("kind, sizes", [("cause", [9999]), ("isa", [])])
    def test_a_10000_event_chain_answers_quickly(self, chain_texts, kind, sizes):
        # The causal chain runs one DP, and the tree's own order certifies
        # its scenario with one step per link.  The isa chain's one tree
        # reaches e9999 by isa alone, so nothing explains it.
        net = parse_network(chain_texts[kind].replace("event e0\n", "event e0 prior=0.5 disorder\n", 1))
        start = time.perf_counter()
        got = explain(net, ["e9999"], k=1)
        assert time.perf_counter() - start < 2.0
        assert [len(r.scenario.causations) for r in got] == sizes


class _Undead(_CandidateStream):
    """The stream with no isa edge forbidden up front: the clean rule
    splits every popped tree that holds a dead one."""

    def _dead_edges(self):
        return frozenset()


class TestUpFront:
    @pytest.mark.parametrize("multi", [False, True])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_dead_edges_change_no_yield(self, family, multi):
        # Forbidding the dead isa edges in every subspace is the clean
        # rule's split of a tree that holds one, applied before any tree
        # is popped: the stream yields what the one that splits them later
        # yields (its first 200 trees; dense streams run to many thousands).
        dead = yields = 0
        for net, obs in family_queries(family, count=150):
            work, roots = multi_roots(net) if multi else (net, net.disorders)
            if not obs or not roots:
                continue
            stream = _CandidateStream(work, roots, obs)
            for e in sorted(work.isa):
                split = stream._unclean_edge(e[0], SteinerTree(e[0], (e,), frozenset(obs), 0.0))
                assert split[0] == e
                assert (split[1] == []) == (e in stream._dead)
            assert stream._dead == _dead_isa_edges(work, frozenset(obs))
            got = [(w, root, tree.edges) for w, root, tree in itertools.islice(stream, 200)]
            undead = itertools.islice(_Undead(work, roots, obs), 200)
            assert got == [(w, root, tree.edges) for w, root, tree in undead]
            dead += len(stream._dead)
            yields += len(got)
        assert dead and yields

    def test_a_root_past_the_answer_is_never_opened(self, monkeypatch):
        # Each root waits unopened under its prior weight plus its base DP
        # weight.  At k=1 the stream stops at d's tree before it pops c:
        # c's tree is never extracted and its banned links (out of its isa
        # ancestor a) are never computed.  At k=2 c is opened.
        net = parse_network(
            "event d prior=0.5 disorder\nevent c prior=0.01 disorder\nevent a\nevent o\n"
            "isa c a\ncause d o p=0.9\ncause c o p=0.5\ncause a o p=0.9\n"
        )
        extracted, shadowed = [], []
        extract = abducer.solver._extract

        def recording_extract(table, root):
            extracted.append(root)
            return extract(table, root)

        class Recording(_CandidateStream):
            def shadowed(self, root, x):
                shadowed.append(root)
                return super().shadowed(root, x)

        monkeypatch.setattr(abducer.solver, "_extract", recording_extract)
        monkeypatch.setattr(abducer.solver, "_CandidateStream", Recording)
        got = explain(net, ["o"], k=1)
        assert [r.scenario for r in got] == [Scenario.make("d", [("d", "o")])]
        assert "c" not in extracted + shadowed
        got = explain(net, ["o"], k=2)
        assert [r.scenario.culprit for r in got] == ["d", "c"]
        assert "c" in extracted and "c" in shadowed
        # With no roots and no terminals the stream still builds, and the
        # rule tests reach _banned through it.
        rule = _rule(net)
        assert list(rule) == []
        assert rule._banned("c") == {("a", "o")}

    def test_only_the_answers_root_is_opened_at_scale(self, monkeypatch):
        # 200 disorders d_j (prior 0.5 - j/1000) each cause e0 of a
        # 2,000-event chain.  At k=1 only d0, the lightest, is popped: one
        # reach walk and one tree extraction in all, where opening every
        # root would walk the chain 200 times.
        n_roots, n_chain = 200, 2000
        lines = [f"event e{i}\n" for i in range(n_chain)]
        lines += [f"cause e{i} e{i + 1} p=0.9\n" for i in range(n_chain - 1)]
        for j in range(n_roots):
            lines.append(f"event d{j} prior={0.5 - j / 1000!r} disorder\ncause d{j} e0 p=0.9\n")
        net = parse_network("".join(lines))
        walked, extracted = [], []
        walk, extract = abducer.solver.reachable, abducer.solver._extract

        def recording_walk(net, root):
            walked.append(root)
            return walk(net, root)

        def recording_extract(table, root):
            extracted.append(root)
            return extract(table, root)

        monkeypatch.setattr(abducer.solver, "reachable", recording_walk)
        monkeypatch.setattr(abducer.solver, "_extract", recording_extract)
        got = explain(net, [f"e{n_chain - 1}"], k=1)
        assert [r.scenario.culprit for r in got] == ["d0"]
        assert walked == ["d0"] and extracted == ["d0"]
        got = explain(net, [f"e{n_chain - 1}"], k=2)
        assert [r.scenario.culprit for r in got] == ["d0", "d1"]


class TestDenseProperties:
    # Networks too large for the oracle: every answer is still an
    # explanation, weighed exactly as scenario.log_weight weighs it, and
    # ranked in order.
    @settings(max_examples=200, deadline=None)
    @given(
        networks_with_observations(max_events=40, max_causal=80, max_isa=20),
        st.sampled_from([1, 3, 10]),
        st.booleans(),
    )
    def test_answers_are_ranked_explanations(self, net_obs, k, multi):
        net, obs = net_obs
        if not obs:
            return
        try:
            got = explain(net, obs, k=k, multi=multi)
        except AbducerError:
            return
        work = add_top(net) if multi else net
        assert len(got) <= k
        assert [r.rank for r in got] == list(range(1, len(got) + 1))
        assert [r.log_weight for r in got] == sorted(r.log_weight for r in got)
        for r in got:
            assert is_explanation(work, r.scenario, obs)
            assert r.log_weight == log_weight(work, r.scenario)


class TestTraceSeam:
    # perfbench's per-layer funnel counts the calls explain makes through
    # these abducer.solver attributes; explain must keep resolving each of
    # them there when it runs.
    NAMES = ("build_search_graph", "steiner_dp", "tree_to_scenario", "participants", "is_valid_scenario")

    def test_explain_calls_each_traced_function_through_the_solver_module(self, fig2, monkeypatch):
        calls = dict.fromkeys(self.NAMES, 0)
        accepted = 0

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                nonlocal accepted
                calls[name] += 1
                result = fn(*args, **kwargs)
                if name == "is_valid_scenario" and result:
                    accepted += 1
                return result

            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(abducer.solver, name, counted(name, getattr(abducer.solver, name)))
        # On obs g with k=10 the stream still solves Lawler children (4 DPs
        # in all); on obs e, g with k=3 every child is bounded away.
        got = explain(fig2, ["g"], k=10)
        assert all(calls.values()), calls
        assert calls["tree_to_scenario"] >= calls["is_valid_scenario"] >= accepted >= len(got) > 0


# Two disorders, e0 isa e1 isa e2.  At e0, e0->e4 and e0->e5 shadow the
# links of e1 and e2 to e4 and e5, and e1->e3 shadows e2->e3; at e1, the
# links of e1 shadow all three of e2's.
SHADOW_NET = """\
event e0 prior=0.1019 disorder
event e1 prior=0.1593 disorder
event e2
event e3
event e4
event e5
isa e0 e1
isa e1 e2
cause e0 e2 p=0.0602
cause e0 e4 p=0.4371
cause e0 e5 p=0.5706
cause e1 e3 p=0.7023
cause e1 e4 p=0.7032
cause e1 e5 p=0.8188
cause e2 e3 p=0.8214
cause e2 e4 p=0.3762
cause e2 e5 p=0.2128
cause e3 e5 p=0.9390
cause e4 e5 p=0.6055
"""


class TestShadowedLinks:
    def test_the_lightest_trees_are_preempted(self):
        # The general links are the cheap ones, so a stream that offered
        # them would pop dozens of preempted trees (46 DPs) before it had
        # 10 explanations.
        net = parse_network(SHADOW_NET)
        assert ("e1", "e4") in _rule(net)._banned("e0")
        obs = ["e2", "e3", "e4"]
        stats = SolveStats()
        got = explain(net, obs, k=10, stats=stats)
        want = best_explanations_bruteforce(net, obs, 10)
        assert [r.scenario for r in got] == [r.scenario for r in want]
        for g_, w_ in zip(got, want):
            assert g_.log_weight == pytest.approx(w_.log_weight, abs=1e-9)
        assert stats.dp_runs <= 12

    def test_multi_mode_drops_the_links_below_the_distinguished_root(self):
        # TOP has no proper isa ancestor, but a tree that climbs e0 isa e1
        # isa e2 never makes e2 a maximal participant, so the general links
        # of e2 are never offered below TOP (66 DPs when they were).
        net = parse_network(SHADOW_NET)
        aug = add_top(net)
        assert ("e2", "e4") in _rule(aug).shadowed(TOP_NAME, "e2")
        obs = ["e2", "e3", "e4"]
        stats = SolveStats()
        got = explain(net, obs, k=10, multi=True, stats=stats)
        want = best_explanations_bruteforce(aug, obs, 10, culprit=TOP_NAME)
        assert [r.scenario for r in got] == [r.scenario for r in want]
        for g_, w_ in zip(got, want):
            assert g_.log_weight == pytest.approx(w_.log_weight, abs=1e-9)
        assert stats.dp_runs <= 40

    def test_recognition_offers_only_the_relevant_statistics(self):
        # c isa b isa a, each with its own p=v statistic: only c's edge is
        # offered, so the search ends after the base DP and one child.
        net = parse_network(
            "event a prior=0.5 disorder\nevent b prior=0.5 disorder\n"
            "event c prior=0.5 disorder\nevent pv\n"
            "isa c b\nisa b a\ncause a pv p=0.9\ncause b pv p=0.8\ncause c pv p=0.1\n"
        )
        stats = SolveStats()
        stream = _CandidateStream(net, ["c"], ["pv"], stats)
        assert stream._banned("c") == {("a", "pv"), ("b", "pv")}
        _, _, tree = next(iter(stream))
        assert tree_to_scenario(net, tree) == Scenario.make("c", [("c", "pv")])
        assert stats.dp_runs == 2


class TestExplainAgainstOracle:
    @pytest.mark.parametrize("multi", [False, True])
    def test_isa_heavy_networks(self, multi):
        for seed in range(60):
            rng = random.Random(seed)
            net = random_network(rng, max_events=8, max_causal=10, max_isa=6)
            obs = random_observations(rng, net)
            if not obs:
                continue
            got = explain(net, obs, k=10, multi=multi)
            want = best_explanations_bruteforce(net, obs, 10, multi=multi)
            assert [r.scenario for r in got] == [r.scenario for r in want], seed
            for g_, w_ in zip(got, want):
                assert g_.log_weight == pytest.approx(w_.log_weight, abs=1e-9)

    def test_networks_with_shadowed_links(self):
        # The first 60 seeded networks where some disorder shadows a link.
        compared = 0
        for seed in itertools.count():
            rng = random.Random(seed)
            net = random_network(rng, max_events=8, max_causal=12, max_isa=10)
            obs = random_observations(rng, net)
            rule = _rule(net)
            if not any(rule._banned(r) for r in net.disorders):
                continue
            got = explain(net, obs, k=10)
            want = best_explanations_bruteforce(net, obs, 10)
            assert [r.scenario for r in got] == [r.scenario for r in want], seed
            for g_, w_ in zip(got, want):
                assert g_.log_weight == pytest.approx(w_.log_weight, abs=1e-9)
            compared += 1
            if compared == 60:
                break

    def test_multi_mode_where_links_are_shadowed_below_the_root(self):
        # The first 60 isa-heavy seeded networks where some event that a
        # tree can enter by isa has links shadowed below the distinguished
        # root.
        compared = 0
        for seed in itertools.count():
            rng = random.Random(seed)
            net = random_network(rng, max_events=8, max_causal=12, max_isa=10)
            obs = random_observations(rng, net)
            if not obs or not net.disorders:
                continue
            aug = add_top(net)
            rule = _rule(aug)
            if not any(rule.shadowed(TOP_NAME, l.parent) for l in aug.isa):
                continue
            got = explain(net, obs, k=10, multi=True)
            want = best_explanations_bruteforce(aug, obs, 10, culprit=TOP_NAME)
            assert [r.scenario for r in got] == [r.scenario for r in want], seed
            for g_, w_ in zip(got, want):
                assert g_.log_weight == pytest.approx(w_.log_weight, abs=1e-9)
            compared += 1
            if compared == 60:
                break

    @settings(max_examples=60, deadline=None)
    @given(networks_with_observations())
    def test_single_mode(self, net_obs):
        net, obs = net_obs
        if not obs:
            return
        got = explain(net, obs, k=3)
        want = best_explanations_bruteforce(net, obs, 3)
        assert [r.scenario for r in got] == [r.scenario for r in want]
        for g_, w_ in zip(got, want):
            assert g_.rank == w_.rank
            assert g_.log_weight == pytest.approx(w_.log_weight, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(networks_with_observations(max_events=9, max_causal=10, max_isa=5))
    def test_multi_mode(self, net_obs):
        net, obs = net_obs
        if not obs or not net.disorders:
            return
        aug = add_top(net)
        got = explain(net, obs, k=3, multi=True)
        want = best_explanations_bruteforce(aug, obs, 3, culprit=TOP_NAME)
        assert [r.scenario for r in got] == [r.scenario for r in want]


class TestMultiMode:
    def test_two_disorder_probability(self):
        net = two_disorder_network()
        got = explain(net, ["s1", "s2"], k=1, multi=True)
        assert len(got) == 1
        assert got[0].scenario.culprit == TOP_NAME
        assert got[0].probability == pytest.approx(0.0081, rel=1e-12)

    def test_single_mode_finds_nothing_there(self):
        net = two_disorder_network()
        assert explain(net, ["s1", "s2"], k=1) == []

    def test_multi_respects_predeclared_root(self):
        net = add_top(two_disorder_network())
        got = explain(net, ["s1", "s2"], k=1, multi=True)
        assert got[0].probability == pytest.approx(0.0081, rel=1e-12)

    @pytest.mark.parametrize(
        "decl, want",
        [("event TOP prior=0.9", []), ("event TOP", []), ("event TOP prior=0.9 disorder", ["TOP"])],
    )
    def test_a_declared_root_is_a_culprit_only_as_a_disorder(self, decl, want):
        # Both engines keep only disorder culprits, in both modes.
        net = parse_network(
            f"{decl}\nevent d prior=0.5 disorder\nevent e\ncause d e p=0.5\ncause TOP d p=0.5\n"
        )
        for multi in (False, True):
            got = explain(net, ["e"], k=3, multi=multi)
            oracle = best_explanations_bruteforce(net, ["e"], 3, multi=multi)
            assert [(r.scenario, r.log_weight) for r in got] == [
                (r.scenario, r.log_weight) for r in oracle
            ]
        assert [r.scenario.culprit for r in explain(net, ["e"], k=3, multi=True)] == want


class TestStats:
    def test_counters_accumulate(self, fig2):
        stats = SolveStats()
        explain(fig2, ["e", "g"], k=2, stats=stats)
        assert stats.dp_runs >= 1
        assert stats.relaxations > 0
        assert stats.table_entries > 0
        assert stats.touched_nodes

    def test_absorb_sums(self, fig2):
        g = build_search_graph(fig2)
        stats = SolveStats()
        _, t1 = steiner_dp(g, "f", ["e", "g"])
        _, t2 = steiner_dp(g, "d", ["e"])
        stats.absorb(t1)
        stats.absorb(t2)
        assert stats.dp_runs == 2
        assert stats.relaxations == t1.relaxations + t2.relaxations
        assert stats.table_entries == t1.entry_count + t2.entry_count
        assert stats.touched_nodes == set(t1.touched_nodes() | t2.touched_nodes())


class TestExplainPastInvalidTrees:
    def test_skips_invalid_minimum(self):
        # the general link a->e is far more probable than the specific
        # b->e, so the lightest tree rooted at d uses it; that scenario
        # is preempted and explain must return the valid one instead
        net = parse_network(
            "event a\nevent b\nevent d prior=0.5 disorder\nevent e\n"
            "isa d b\nisa b a\n"
            "cause a e p=0.9\ncause b e p=0.3\n"
        )
        g = build_search_graph(net)
        light, _ = steiner_dp(g, "d", ["e"])
        assert ("a", "e") in light.edges
        got = explain(net, ["e"], k=1)
        assert [r.scenario for r in got] == [Scenario.make("d", [("b", "e")])]

    def test_none_when_unreachable(self, fig2):
        # c reaches e but not g: no explanation of g is rooted at c
        got = explain(fig2, ["g"], k=10)
        assert got
        assert "c" not in {r.scenario.culprit for r in got}
        assert best_explanations_bruteforce(fig2, ["g"], 10, culprit="c") == []
