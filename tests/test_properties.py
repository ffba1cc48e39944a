"""Every generated query to explain, is_valid_scenario and recognize ends
in an answer or a typed AbducerError: never a bare exception, a
traceback or a hang.  The parsers are covered by TestMutatedDocuments."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abducer import (
    AbducerError,
    Concept,
    InvalidArgumentError,
    PropertySpec,
    RecognitionKB,
    RecognitionQuery,
    Scenario,
    ValidityResult,
    explain,
    is_valid_scenario,
    recognize,
)

from strategies import networks, networks_with_observations, seeds, taxonomies


class TestInvalidArguments:
    # Each is typed, and still a ValueError for callers that catch that.
    @pytest.mark.parametrize(
        "call",
        [
            lambda fig2, fruits: explain(fig2, [], k=1),
            lambda fig2, fruits: explain(fig2, ["g"], k=0),
            lambda fig2, fruits: recognize(fruits, RecognitionQuery.make([], [("color", "green")])),
            lambda fig2, fruits: recognize(fruits, RecognitionQuery.make(["apple"], [])),
            lambda fig2, fruits: RecognitionKB([Concept("c", 0)], [], []),
            lambda fig2, fruits: RecognitionKB([Concept("c", 2)], [], [PropertySpec("c", "p", "v", -1)]),
        ],
        ids=["no-observations", "k-zero", "no-candidates", "no-description", "count-zero", "negative-spec"],
    )
    def test_typed_and_still_a_value_error(self, fig2, fruits, call):
        with pytest.raises(InvalidArgumentError) as err:
            call(fig2, fruits)
        assert isinstance(err.value, AbducerError) and isinstance(err.value, ValueError)


class TestExplainProperties:
    @settings(max_examples=400, deadline=None)
    @given(
        networks_with_observations(),
        st.sampled_from([0, 1, 3, 10]),
        st.booleans(),
        st.sampled_from(["empty", "known", "unknown"]),
    )
    def test_answers_or_raises_a_typed_error(self, net_obs, k, multi, kind):
        net, obs = net_obs
        obs = {"empty": set(), "known": set(obs), "unknown": {*obs, "no_such_event"}}[kind]
        try:
            got = explain(net, obs, k=k, multi=multi)
        except AbducerError:
            return
        assert kind == "known" and k >= 1
        assert [r.rank for r in got] == list(range(1, len(got) + 1))
        assert len(got) <= k


class TestValidityProperties:
    @settings(max_examples=400, deadline=None)
    @given(networks(), seeds)
    def test_answers_or_raises_a_typed_error(self, net, seed):
        rng = random.Random(seed)
        links = [(l.cause, l.effect) for l in net.causal]
        culprit = rng.choice([n.id for n in net.events] + ["no_such_event"])
        chosen = rng.sample(links, rng.randint(0, len(links)))
        try:
            got = is_valid_scenario(net, Scenario.make(culprit, chosen))
        except AbducerError:
            return
        assert isinstance(got, ValidityResult)
        assert (got.certificate is not None) == got.valid


class TestRecognizeProperties:
    @settings(max_examples=400, deadline=None)
    @given(taxonomies(), seeds)
    def test_answers_or_raises_a_typed_error(self, kb_pairs, seed):
        kb, pairs = kb_pairs
        rng = random.Random(seed)
        ids = [c.id for c in kb.concepts] + ["no_such_concept"]
        known = sorted(pairs) + [("no_such_property", "v")]
        cset = rng.sample(ids, rng.randint(0, len(ids)))
        descr = rng.sample(known, rng.randint(0, len(known)))
        try:
            got = recognize(kb, RecognitionQuery.make(cset, descr))
        except AbducerError:
            return
        assert sorted(r.concept for r in got) == sorted(cset)
