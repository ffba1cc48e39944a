"""The release gate.

Each test here checks one headline property of the engine end to end,
prints a single PASS/FAIL line with the measured numbers, and enforces a
wall-clock budget.  Everything below must stay green; nothing in this
file may be tuned to make a failing property look good.
"""

import math
import random
import time

from abducer import (
    RecognitionQuery,
    Scenario,
    SolveStats,
    add_top,
    best_explanations_bruteforce,
    build_search_graph,
    enumerate_valid_scenarios,
    explain,
    is_explanation,
    is_valid_scenario,
    recognize,
    shastri_score,
    steiner_dp,
)
from abducer.kb import TOP_NAME
from abducer.recognition import all_concept_ids
from abducer.scenario import log_weight, probability

from synth import (
    COMPLEXITY_ROOT,
    COMPLEXITY_TERMINALS,
    LOCALITY_COMPONENT,
    LOCALITY_OBSERVATIONS,
    complexity_network,
    exact_two_disorder_probability,
    locality_network,
    random_network,
    random_observations,
    random_taxonomy,
    two_disorder_network,
)


def _finish(name: str, failures: list, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget_s
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({elapsed:.2f}s of {budget_s:.0f}s budget)")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])
    assert elapsed < budget_s, f"{name}: {elapsed:.2f}s over the {budget_s:.0f}s budget"


def test_worked_example_verdicts(fig2):
    started = time.perf_counter()
    failures = []

    valid = [
        Scenario.make("d", [("b", "e"), ("d", "g")]),
        Scenario.make("c", [("a", "e")]),
        Scenario.make("f", [("f", "g"), ("a", "e")]),
    ]
    for s in valid:
        if not is_valid_scenario(fig2, s):
            failures.append(f"{s!r} should be valid")
    invalid = Scenario.make("d", [("a", "e")])
    if is_valid_scenario(fig2, invalid):
        failures.append(f"{invalid!r} should be invalid")

    for s in (valid[0], valid[2]):
        if not is_explanation(fig2, s, {"e", "g"}):
            failures.append(f"{s!r} should explain e and g")
    if is_explanation(fig2, valid[1], {"e", "g"}):
        failures.append("a one-link scenario cannot cover both observations")

    _finish("worked-example verdicts", failures, started, 1.0)


def test_probability_weight_duality():
    started = time.perf_counter()
    failures = []
    checked = 0
    for seed in range(50):
        rng = random.Random(seed)
        net = random_network(rng)
        priors = {e.id for e in net.events if e.prior is not None}
        for s in enumerate_valid_scenarios(net, 4):
            if s.culprit not in priors:
                continue
            p = probability(net, s)
            w = log_weight(net, s)
            if abs(math.exp(-w) - p) / p > 1e-12:
                failures.append(f"seed {seed}: {s!r} off by more than 1e-12")
            checked += 1
    if checked < 1000:
        failures.append(f"only {checked} scenarios checked, need 1000")

    _finish(f"probability-weight duality ({checked} scenarios)", failures, started, 10.0)


def test_oracle_solver_equivalence():
    started = time.perf_counter()
    failures = []
    compared = 0
    for seed in range(220):
        rng = random.Random(seed)
        net = random_network(rng)
        obs = random_observations(rng, net)
        if not obs:
            continue
        got = explain(net, obs, k=3)
        want = best_explanations_bruteforce(net, obs, 3)
        if [r.scenario for r in got] != [r.scenario for r in want]:
            failures.append(f"seed {seed}: scenario lists differ for obs {sorted(obs)}")
            continue
        for g_, w_ in zip(got, want):
            if abs(g_.log_weight - w_.log_weight) > 1e-9:
                failures.append(f"seed {seed}: weight gap {g_.log_weight - w_.log_weight}")
        compared += 1
    if compared < 200:
        failures.append(f"only {compared} networks compared, need 200")

    _finish(f"oracle-solver equivalence ({compared} networks)", failures, started, 60.0)


def test_oracle_solver_equivalence_deep_k():
    # k=10 ranks reach far past the first tree, where lazily solved Lawler
    # children and the never-built two-parent children decide the order
    started = time.perf_counter()
    failures = []
    compared = 0
    for seed in range(1000, 1060):
        rng = random.Random(seed)
        net = random_network(rng, max_events=9, max_causal=10, max_isa=5)
        obs = random_observations(rng, net)
        if not obs:
            continue
        for multi in (False, True):
            got = explain(net, obs, k=10, multi=multi)
            if multi:
                want = best_explanations_bruteforce(add_top(net), obs, 10, culprit=TOP_NAME)
            else:
                want = best_explanations_bruteforce(net, obs, 10)
            if [r.scenario for r in got] != [r.scenario for r in want]:
                failures.append(f"seed {seed}, multi={multi}: scenario lists differ")
                continue
            for g_, w_ in zip(got, want):
                if abs(g_.log_weight - w_.log_weight) > 1e-9:
                    failures.append(f"seed {seed}, multi={multi}: weight gap {g_.log_weight - w_.log_weight}")
        compared += 1
    if compared < 50:
        failures.append(f"only {compared} networks compared, need 50")

    _finish(f"oracle-solver equivalence at k=10 ({compared} networks)", failures, started, 15.0)


def test_relaxation_budget():
    started = time.perf_counter()
    failures = []
    g = build_search_graph(complexity_network())

    # measured on this fixed instance; the model must fit with one constant
    fitted_c = 0.24
    ratios = []
    for k in range(1, 6):
        tree, table = steiner_dp(g, COMPLEXITY_ROOT, COMPLEXITY_TERMINALS[:k])
        if tree is None:
            failures.append(f"k={k}: no tree found")
            continue
        model = 3**k * 50 + k * 2**k * 80
        ratio = table.relaxations / model
        ratios.append(ratio)
        if not fitted_c / 2 <= ratio <= fitted_c * 2:
            failures.append(f"k={k}: ratio {ratio:.4f} outside [{fitted_c / 2}, {fitted_c * 2}]")
        if table.entry_count > 50 * 2**k:
            failures.append(f"k={k}: {table.entry_count} entries exceed {50 * 2**k}")

    spread = max(ratios) / min(ratios) if ratios else float("inf")
    _finish(f"relaxation budget (ratio spread {spread:.2f}x)", failures, started, 30.0)


def test_locality():
    started = time.perf_counter()
    failures = []
    net = locality_network()
    if len(net.events) != 200:
        failures.append(f"fixture has {len(net.events)} events, wanted 200")

    stats = SolveStats()
    got = explain(net, LOCALITY_OBSERVATIONS, k=1, stats=stats)
    if not got:
        failures.append("no explanation found")
    touched = stats.touched_nodes
    component = set(LOCALITY_COMPONENT)
    if not touched <= component:
        failures.append(f"touched {sorted(touched - component)} outside the component")
    if touched != component:
        failures.append(f"expected the full component, missing {sorted(component - touched)}")

    _finish(f"locality ({len(touched)} of 200 nodes touched)", failures, started, 5.0)


def test_independent_culprits():
    started = time.perf_counter()
    failures = []
    net = two_disorder_network()

    multi = explain(net, ["s1", "s2"], k=1, multi=True)
    if not multi:
        failures.append("multi mode found nothing")
    else:
        s = multi[0].scenario
        want_links = frozenset(
            {(TOP_NAME, "d1"), ("d1", "s1"), (TOP_NAME, "d2"), ("d2", "s2")}
        )
        if s.culprit != TOP_NAME or s.causations != want_links:
            failures.append(f"unexpected multi scenario {s!r}")
        exact = float(exact_two_disorder_probability())
        if abs(multi[0].probability - exact) / exact > 1e-12:
            failures.append(f"probability {multi[0].probability} != {exact}")

    if explain(net, ["s1", "s2"], k=1):
        failures.append("single mode should find nothing")

    _finish("independent culprits", failures, started, 1.0)


def test_recognition_ranking(fruits):
    started = time.perf_counter()
    failures = []
    checked = 0
    for seed in range(110):
        rng = random.Random(seed)
        kb, pairs = random_taxonomy(rng)
        descr = sorted(pairs)[: rng.randint(1, min(2, len(pairs)))]
        rows = recognize(kb, RecognitionQuery.make(all_concept_ids(kb), descr))
        ranked = [r for r in rows if r.applicable]
        for r in ranked:
            want = shastri_score(kb, r.concept, descr)
            if r.score != want:
                failures.append(f"seed {seed}: {r.concept} score {r.score} != {want}")
            if abs(r.weight + math.log(want)) > 1e-9:
                failures.append(f"seed {seed}: {r.concept} weight off by 1e-9")
        scores = [r.score for r in ranked]
        if scores != sorted(scores, reverse=True):
            failures.append(f"seed {seed}: ranking is not by descending score")
        checked += 1
    if checked < 100:
        failures.append(f"only {checked} taxonomies checked, need 100")

    rows = recognize(
        fruits,
        RecognitionQuery.make(["apple", "grape"], [("color", "green"), ("taste", "sour")]),
    )
    if [r.concept for r in rows[:2]] != ["grape", "apple"]:
        failures.append("grape should outrank apple for a green sour thing")

    _finish(f"recognition ranking ({checked} taxonomies)", failures, started, 10.0)


def test_probability_monotonicity():
    started = time.perf_counter()
    failures = []
    checked = 0
    for seed in range(50):
        rng = random.Random(seed)
        net = random_network(rng)
        priors = {e.id for e in net.events if e.prior is not None}
        by_culprit = {}
        for s in enumerate_valid_scenarios(net, 4):
            if s.culprit in priors:
                by_culprit.setdefault(s.culprit, []).append(s)
        for group in by_culprit.values():
            for small in group:
                for big in group:
                    if small.causations < big.causations:
                        if probability(net, big) > probability(net, small):
                            failures.append(f"seed {seed}: {big!r} beats {small!r}")
                        checked += 1
    if checked < 1000:
        failures.append(f"only {checked} pairs checked, need 1000")

    _finish(f"probability monotonicity ({checked} pairs)", failures, started, 5.0)
