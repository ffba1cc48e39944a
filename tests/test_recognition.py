import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from abducer import (
    AmbiguousReferenceClassError,
    CountExceedsParentError,
    DuplicateDeclarationError,
    NoRelevantConceptError,
    ParseError,
    RecognitionQuery,
    Scenario,
    UnknownConceptError,
    UnknownPropertyValueError,
    best_explanations_bruteforce,
    build_search_graph,
    parse_recognition_kb,
    recognize,
    relevant_concept,
    serialize_recognition_kb,
    shastri_score,
)
from abducer.recognition import (
    Concept,
    PropertySpec,
    RecognitionKB,
    all_concept_ids,
    value_node,
)
from abducer.kb import IsaLink

from strategies import taxonomies
from synth import random_taxonomy


def query(cset, descr):
    return RecognitionQuery.make(cset, descr)


GREEN = ("color", "green")
SOUR = ("taste", "sour")


class TestKbBasics:
    def test_fixture_counts(self, fruits):
        assert len(fruits.concepts) == 3
        assert len(fruits.isa) == 2
        assert len(fruits.specs) == 4

    def test_accessors(self, fruits):
        assert fruits.concept("fruit").count == 100
        assert fruits.concept("grape").count == 30
        assert fruits.spec_for("apple", "color", "green").count == 15
        assert fruits.spec_for("apple", "taste", "sour") is None
        assert fruits.isa_star("apple") == frozenset({"apple", "fruit"})
        assert fruits.known_pairs() == frozenset({GREEN, SOUR})
        assert all_concept_ids(fruits) == ("apple", "fruit", "grape")

    def test_synthesized_network(self, fruits):
        net = fruits.to_causal_network()
        assert len(net.events) == 5  # three concepts, two value nodes
        assert len(net.causal) == 4
        assert net.node("fruit").prior == pytest.approx(1 / 100)
        assert net.node("grape").prior == pytest.approx(1 / 30)
        assert net.cond_prob("grape", value_node(*SOUR)) == pytest.approx(12 / 30)

    def test_zero_count_spec_has_no_edge(self):
        kb = parse_recognition_kb(
            "concept c count=10\nprop c p=v count=0\n"
        )
        assert kb.spec_for("c", "p", "v").count == 0
        assert len(kb.to_causal_network().causal) == 0

    def test_unknown_concept_lookup(self, fruits):
        with pytest.raises(UnknownConceptError):
            fruits.concept("pear")


class TestParsing:
    def test_round_trip(self, fruits):
        back = parse_recognition_kb(serialize_recognition_kb(fruits))
        assert back.concepts == fruits.concepts
        assert back.isa == fruits.isa
        assert back.specs == fruits.specs

    @settings(max_examples=50, deadline=None)
    @given(taxonomies())
    def test_round_trip_random(self, kb_pairs):
        kb, _ = kb_pairs
        back = parse_recognition_kb(serialize_recognition_kb(kb))
        assert (back.concepts, back.isa, back.specs) == (kb.concepts, kb.isa, kb.specs)

    def test_comments_and_blank_lines(self):
        kb = parse_recognition_kb(
            "# header\nconcept c count=5\n\nprop c p=v count=2  # own spec\n"
        )
        assert kb.concept("c").count == 5

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_recognition_kb("concept c count=5\nfrob c\n")
        assert "line 2" in str(err.value)

    def test_malformed_lines(self):
        with pytest.raises(ParseError):
            parse_recognition_kb("concept c\n")
        with pytest.raises(ParseError):
            parse_recognition_kb("concept c count=many\n")
        with pytest.raises(ParseError):
            parse_recognition_kb("concept c count=5\nprop c pv count=1\n")
        with pytest.raises(ParseError):
            parse_recognition_kb("concept c count=0\n")
        with pytest.raises(ParseError):
            parse_recognition_kb("concept c count=5\nprop c p=v count=-1\n")

    def test_no_concepts(self):
        with pytest.raises(ParseError):
            parse_recognition_kb("# empty\n")

    def test_duplicates(self):
        with pytest.raises(DuplicateDeclarationError):
            parse_recognition_kb("concept c count=5\nconcept c count=6\n")
        with pytest.raises(DuplicateDeclarationError):
            parse_recognition_kb(
                "concept c count=5\nprop c p=v count=1\nprop c p=v count=2\n"
            )

    def test_unknown_concepts_in_links(self):
        with pytest.raises(UnknownConceptError):
            parse_recognition_kb("concept c count=5\nisa c zz\n")
        with pytest.raises(UnknownConceptError):
            parse_recognition_kb("concept c count=5\nprop zz p=v count=1\n")

    def test_count_exceeds_parent(self):
        with pytest.raises(CountExceedsParentError):
            parse_recognition_kb("concept c count=5\nprop c p=v count=6\n")
        with pytest.raises(CountExceedsParentError):
            parse_recognition_kb(
                "concept big count=5\nconcept small count=9\nisa small big\n"
            )


class TestRelevantConcept:
    def test_own_spec_wins(self, fruits):
        assert relevant_concept(fruits, "apple", "color", "green") == "apple"
        assert relevant_concept(fruits, "grape", "taste", "sour") == "grape"

    def test_inherited_spec(self, fruits):
        assert relevant_concept(fruits, "apple", "taste", "sour") == "fruit"

    def test_nobody_has_it(self, fruits):
        assert relevant_concept(fruits, "fruit", "color", "green") is None

    def test_ambiguous_diamond(self):
        kb = parse_recognition_kb(
            "concept top count=100\n"
            "concept l count=50\nconcept r count=50\nconcept x count=10\n"
            "isa l top\nisa r top\nisa x l\nisa x r\n"
            "prop l p=v count=5\nprop r p=v count=7\n"
        )
        with pytest.raises(AmbiguousReferenceClassError) as err:
            relevant_concept(kb, "x", "p", "v")
        assert str(err.value) == "ambiguous reference class for p=v at x: l, r"

    def test_diamond_resolved_by_own_spec(self):
        kb = parse_recognition_kb(
            "concept top count=100\n"
            "concept l count=50\nconcept r count=50\nconcept x count=10\n"
            "isa l top\nisa r top\nisa x l\nisa x r\n"
            "prop l p=v count=5\nprop r p=v count=7\nprop x p=v count=1\n"
        )
        assert relevant_concept(kb, "x", "p", "v") == "x"


class TestScore:
    def test_fixture_scores_are_exact(self, fruits):
        assert shastri_score(fruits, "grape", [GREEN, SOUR]) == Fraction(8)
        assert shastri_score(fruits, "apple", [GREEN, SOUR]) == Fraction(3, 2)
        assert shastri_score(fruits, "apple", [GREEN]) == Fraction(15)
        assert shastri_score(fruits, "grape", [GREEN]) == Fraction(20)

    def test_missing_statistic(self, fruits):
        with pytest.raises(NoRelevantConceptError):
            shastri_score(fruits, "fruit", [GREEN])

    def test_zero_count_scores_zero(self):
        kb = parse_recognition_kb("concept c count=10\nprop c p=v count=0\n")
        assert shastri_score(kb, "c", [("p", "v")]) == 0

    def test_full_count_scores_the_population(self):
        kb = parse_recognition_kb("concept c count=10\nprop c p=v count=10\n")
        assert shastri_score(kb, "c", [("p", "v")]) == Fraction(10)

    def test_duplicate_pairs_count_once(self, fruits):
        assert shastri_score(fruits, "grape", [GREEN, GREEN]) == Fraction(20)


class TestRecognitionGraph:
    def test_root_weights_are_logs_of_counts(self, fruits):
        # ln(1/prior) with prior 1/#c
        g = build_search_graph(fruits.to_causal_network())
        assert g.node_weight["grape"] == pytest.approx(math.log(30))
        assert g.node_weight["fruit"] == pytest.approx(math.log(100))

    def test_edge_weights_follow_the_statistics(self, fruits):
        g = build_search_graph(fruits.to_causal_network())
        assert g.weight[("grape", "taste=sour")] == pytest.approx(math.log(30 / 12))
        assert g.weight[("apple", "fruit")] == 0.0


class TestRecognize:
    def test_fixture_ranking(self, fruits):
        got = recognize(fruits, query(["apple", "grape"], [GREEN, SOUR]))
        assert [r.concept for r in got] == ["grape", "apple"]
        grape, apple = got
        assert grape.applicable and apple.applicable
        assert grape.weight == pytest.approx(-math.log(8), abs=1e-9)
        assert grape.score == Fraction(8)
        assert apple.weight == pytest.approx(-math.log(3 / 2), abs=1e-9)
        assert apple.score == Fraction(3, 2)

    def test_single_description(self, fruits):
        got = recognize(fruits, query(["apple"], [GREEN]))
        assert got[0].weight == pytest.approx(-math.log(15), abs=1e-9)

    def test_inapplicable_candidate_is_kept(self, fruits):
        got = recognize(fruits, query(["apple", "fruit", "grape"], [GREEN, SOUR]))
        assert [r.concept for r in got] == ["grape", "apple", "fruit"]
        fruit = got[-1]
        assert not fruit.applicable
        assert fruit.weight is None
        assert "no relevant concept" in fruit.reason

    def test_zero_count_candidate(self):
        kb = parse_recognition_kb(
            "concept fruit count=100\nconcept kiwi count=10\nisa kiwi fruit\n"
            "prop fruit color=green count=20\nprop kiwi color=green count=0\n"
        )
        got = recognize(kb, query(["kiwi"], [GREEN]))
        assert len(got) == 1
        assert not got[0].applicable
        assert got[0].score == 0
        assert got[0].reason == "no color=green instances"

    def test_ambiguous_candidate(self):
        kb = parse_recognition_kb(
            "concept top count=100\n"
            "concept l count=50\nconcept r count=50\nconcept x count=10\n"
            "isa l top\nisa r top\nisa x l\nisa x r\n"
            "prop l p=v count=5\nprop r p=v count=7\n"
        )
        got = recognize(kb, query(["x"], [("p", "v")]))
        assert not got[0].applicable
        assert "ambiguous reference class" in got[0].reason

    def test_specific_statistic_preempts_cheaper_general_one(self):
        # the parent's edge is far lighter, but the child owns a statistic
        # for the pair, so the scenario through the parent is not a legal
        # reading; the child's own edge must be used
        kb = parse_recognition_kb(
            "concept parent count=100\nconcept child count=10\n"
            "isa child parent\n"
            "prop parent p=v count=90\nprop child p=v count=1\n"
        )
        got = recognize(kb, query(["child"], [("p", "v")]))
        assert got[0].applicable
        assert got[0].score == Fraction(1)
        assert got[0].weight == pytest.approx(0.0, abs=1e-9)
        assert got[0].scenario == Scenario.make("child", [("child", "p=v")])

    def test_weight_is_negative_log_score(self, fruits):
        got = recognize(fruits, query(["apple", "grape"], [GREEN, SOUR]))
        for r in got:
            if r.applicable:
                assert r.weight == pytest.approx(-math.log(r.score), abs=1e-9)

    def test_query_validation(self, fruits):
        with pytest.raises(ValueError):
            recognize(fruits, query([], [GREEN]))
        with pytest.raises(ValueError):
            recognize(fruits, query(["apple"], []))
        with pytest.raises(UnknownConceptError):
            recognize(fruits, query(["pear"], [GREEN]))
        with pytest.raises(UnknownPropertyValueError) as err:
            recognize(fruits, query(["apple"], [("taste", "bitter")]))
        assert str(err.value) == "unknown property-value: taste=bitter"


class TestExactTies:
    def test_equal_scores_rank_by_concept(self):
        # c1 and c8 both score 4; their witnesses' summed float link
        # weights differ by an ulp, with c8's the lighter.
        kb, _ = random_taxonomy(random.Random(63), max_concepts=10)
        got = recognize(kb, query(all_concept_ids(kb), [("p0", "v0")]))
        tied = [r for r in got if r.applicable and r.score == 4]
        assert [r.concept for r in tied] == ["c1", "c8"]
        assert tied[0].weight == tied[1].weight == -math.log(4)


class TestRandomTaxonomies:
    @settings(max_examples=60, deadline=None)
    @given(taxonomies())
    def test_recognition_agrees_with_direct_scores(self, kb_pairs):
        kb, pairs = kb_pairs
        cset = all_concept_ids(kb)
        for p, v in sorted(pairs):
            got = recognize(kb, query(cset, [(p, v)]))
            for r in got:
                if r.applicable:
                    want = shastri_score(kb, r.concept, [(p, v)])
                    assert r.score == want
                    assert r.weight == pytest.approx(-math.log(want), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(taxonomies())
    def test_ranked_prefix_is_sorted(self, kb_pairs):
        kb, pairs = kb_pairs
        descr = sorted(pairs)[:2]
        got = recognize(kb, query(all_concept_ids(kb), descr))
        ranked = [r for r in got if r.applicable]
        rest = got[len(ranked):]
        assert all(not r.applicable for r in rest)
        weights = [r.weight for r in ranked]
        assert weights == sorted(weights)
        assert [r.concept for r in rest] == sorted(r.concept for r in rest)


def dag_taxonomy(rng: random.Random, max_concepts: int = 6, max_pairs: int = 2):
    """A taxonomy where each concept has 1 to 3 parents among the earlier
    concepts.  Each concept holds a spec for each pair with probability 0.7
    (root) or 0.35, with a count from 0 to #c."""
    nc = rng.randint(2, max_concepts)
    counts = [rng.randint(20, 100)]
    isa = []
    for i in range(1, nc):
        parents = rng.sample(range(i), rng.randint(1, min(3, i)))
        isa += [IsaLink(f"c{i}", f"c{j}") for j in parents]
        counts.append(rng.randint(1, min(counts[j] for j in parents)))
    pairs = [(f"p{j}", f"v{j}") for j in range(rng.randint(1, max_pairs))]
    specs = [
        PropertySpec(f"c{i}", p, v, rng.randint(0, counts[i]))
        for i in range(nc)
        for p, v in pairs
        if rng.random() < (0.7 if i == 0 else 0.35)
    ]
    concepts = [Concept(f"c{i}", n) for i, n in enumerate(counts)]
    return RecognitionKB(concepts, isa, specs)


class TestWitnessAgainstSearch:
    """The closed-form witness is the lightest valid scenario the exhaustive
    search finds for the candidate, and its weight is -ln(score)."""

    @staticmethod
    def check(kb) -> int:
        net = kb.to_causal_network()
        pairs = sorted(kb.known_pairs())
        checked = 0
        for descr in [[pair] for pair in pairs] + [pairs]:
            obs = [value_node(p, v) for p, v in descr]
            for r in recognize(kb, query(all_concept_ids(kb), descr)):
                if not r.applicable:
                    continue
                best = best_explanations_bruteforce(net, obs, 1, culprit=r.concept)
                assert r.scenario == best[0].scenario
                weight = -math.log(kb.concept(r.concept).count) + sum(
                    math.log(1.0 / net.cond_prob(x, y)) for x, y in r.scenario.causations
                )
                assert r.weight == pytest.approx(weight, abs=1e-9)
                checked += 1
        return checked

    def test_tree_taxonomies(self):
        checked = sum(
            self.check(random_taxonomy(random.Random(seed), max_concepts=6, max_pairs=2)[0])
            for seed in range(150)
        )
        assert checked >= 1400

    def test_dag_taxonomies(self):
        checked = 0
        for seed in range(300):
            kb = dag_taxonomy(random.Random(seed))
            if kb.specs:
                checked += self.check(kb)
        assert checked >= 2200
