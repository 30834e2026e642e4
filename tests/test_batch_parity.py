"""Batch parity: a batch equals the per-item calls, in order.

``certain_answers_batch`` / ``solve_batch`` are plain order-preserving
loops over ``certain_answers`` / ``solve``; the observable results —
success flags, answer sets, strategies, details, order — must be identical
to calling the per-tree method once per item on the same generated batch.
Fresh engines are used per side so no result cache blurs the comparison.
"""

import pytest

from repro import ExchangeEngine
from repro.generators import generate_scenario
from repro.workloads import library

#: (scenario seed, profile) pairs for the sweep; small but structurally
#: diverse (general profiles route consistency differently and produce
#: different chase shapes).
SWEEP = [(101, "nested_relational"), (202, "general"), (303, "mixed")]


def _payload_view(result):
    return (result.ok, result.payload, result.strategy, result.detail)


@pytest.mark.parametrize("seed,profile", SWEEP)
def test_certain_answers_batch_parity(seed, profile):
    scenario = generate_scenario(seed, profile=profile, n_trees=4)
    query = scenario.queries[0]
    trees = scenario.source_trees

    batch = ExchangeEngine(scenario.setting).certain_answers_batch(
        trees, query)
    engine = ExchangeEngine(scenario.setting)
    single = [engine.certain_answers(tree, query) for tree in trees]

    assert len(batch) == len(single) == len(trees)
    for one, two in zip(batch, single):
        assert _payload_view(one) == _payload_view(two), scenario.describe()


@pytest.mark.parametrize("seed,profile", SWEEP)
def test_solve_batch_parity(seed, profile):
    scenario = generate_scenario(seed, profile=profile, n_trees=4)
    trees = scenario.source_trees

    batch = ExchangeEngine(scenario.setting).solve_batch(trees)
    engine = ExchangeEngine(scenario.setting)
    single = [engine.solve(tree) for tree in trees]

    assert len(batch) == len(single) == len(trees)
    for one, two in zip(batch, single):
        assert one.ok == two.ok, scenario.describe()
        if one.ok:
            assert one.payload.equals(two.payload), scenario.describe()
        else:
            assert one.detail == two.detail, scenario.describe()


def test_elementwise_queries_keep_order():
    scenario = generate_scenario(404, n_trees=3, n_queries=3)
    trees = scenario.source_trees
    queries = scenario.queries
    batch = ExchangeEngine(scenario.setting).certain_answers_batch(
        trees, queries)
    engine = ExchangeEngine(scenario.setting)
    single = [engine.certain_answers(tree, query)
              for tree, query in zip(trees, queries)]
    assert [_payload_view(r) for r in batch] == \
        [_payload_view(r) for r in single]


def test_repeated_trees_within_one_batch_compute_once():
    engine = ExchangeEngine(library.library_setting())
    tree = library.generate_source(5, seed=9)
    query = library.query_writer_of("Book-0")
    results = engine.certain_answers_batch([tree, tree, tree], query)
    assert all(_payload_view(r) == _payload_view(results[0]) for r in results)
    # The first occurrence computes; the repeats are result-cache hits.
    assert engine.stats["result_cache_misses"] == 1
    assert engine.stats["result_cache_hits"] == 2


def test_batch_methods_take_no_executor():
    """The batch methods are plain loops: no executor, no worker count."""
    engine = ExchangeEngine(library.library_setting())
    tree = library.figure_1_source()
    query = library.query_writer_of("Book-0")
    with pytest.raises(TypeError):
        engine.certain_answers_batch([tree], query, parallel=2)
    with pytest.raises(TypeError):
        engine.certain_answers_batch([tree], query, executor="serial")
    with pytest.raises(TypeError):
        engine.solve_batch([tree], parallel=2)
