"""Property-test harness over generated scenarios (the ScenarioForge lock).

Instead of hand-written fixtures, these tests sweep hundreds of seeded
random scenarios (``repro.generators.scenario_batch``) and assert pipeline
*properties* on each:

1. **Engine/functional parity** — ``ExchangeEngine.certain_answers`` and the
   functional ``certain_answers`` return identical answer sets, solution
   flags and canonical-solution shapes for every (tree, query) pair.
2. **Consistency ↔ solve agreement** — an inconsistent setting admits no
   canonical solution for any conforming source tree, and any successful
   solve proves the setting consistent; successful solves really are
   unordered solutions (target conformance + STD satisfaction).
3. **Cache transparency** — repeating every request on the same engine hits
   the result cache and returns results indistinguishable from the first
   pass, and a cache-disabled engine agrees with a cache-enabled one.
4. **Plan/interpreter parity** — the compiled plan evaluator
   (:mod:`repro.patterns.plan`, the hot path) returns exactly the
   interpreter's assignments on every (tree, query) pair, and the plan-based
   certain answers equal the interpreted read-off from the same canonical
   solution.

The scenario count defaults to 200 and scales with the
``REPRO_GENERATED_SCENARIOS`` environment variable (the CI property job sets
it to 25 for a fast signal).  Every assertion message carries the scenario's
``describe()`` line — ``(seed, spec)`` reproduces the exact failing case via
``generate_scenario(seed)``.
"""

import os

import pytest

from repro import ExchangeEngine, certain_answers, check_consistency
from repro.analysis import verify_plan
from repro.generators import scenario_batch
from repro.patterns import assignment_key, compile_query
from repro.xmlmodel.values import is_constant

#: Harness size: seeds are derived from BATCH_SEED, so runs are identical
#: across machines for a fixed count.
SCENARIO_COUNT = int(os.environ.get("REPRO_GENERATED_SCENARIOS", "200"))
BATCH_SEED = 20260730


@pytest.fixture(scope="module")
def scenarios():
    return scenario_batch(SCENARIO_COUNT, seed=BATCH_SEED)


def test_scenario_count_meets_floor(scenarios):
    assert len(scenarios) == SCENARIO_COUNT >= 25


def test_engine_functional_parity(scenarios):
    """Property 1: the engine is a cache/batch facade, never a different
    algorithm — its answers equal the functional API's on every pair."""
    checked = 0
    for scenario in scenarios:
        engine = ExchangeEngine(scenario.setting)
        for tree in scenario.source_trees:
            for query in scenario.queries:
                functional = certain_answers(scenario.setting, tree, query)
                via_engine = engine.certain_answers(tree, query)
                context = (f"{scenario.describe()} tree={tree.fingerprint()} "
                           f"query={query.fingerprint()}")
                assert via_engine.ok == functional.has_solution, context
                assert via_engine.payload == functional.answers, context
                checked += 1
    assert checked >= SCENARIO_COUNT  # every scenario contributed pairs


def test_consistency_solve_agreement(scenarios):
    """Property 2: per-tree solve outcomes never contradict the setting-level
    consistency verdict, and produced solutions verify."""
    solved = failed = 0
    for scenario in scenarios:
        engine = ExchangeEngine(scenario.setting)
        consistency = engine.check_consistency()
        for tree in scenario.source_trees:
            result = engine.solve(tree)
            context = f"{scenario.describe()} tree={tree.fingerprint()}"
            if result.ok:
                solved += 1
                # A successful solve is a consistency witness.
                assert consistency.payload is True, context
                report = scenario.setting.solution_report(
                    tree, result.payload, ordered=False)
                assert report.is_solution, f"{context}: {report.summary()}"
            else:
                failed += 1
                assert result.detail, context  # failures carry their reason
    # The generator must exercise both outcomes, otherwise the properties
    # above are vacuous.
    assert solved > 0
    assert failed > 0


def test_cache_transparency(scenarios):
    """Property 3: the result cache changes counters, never answers."""
    hits_seen = 0
    for scenario in scenarios[:max(25, SCENARIO_COUNT // 4)]:
        cached_engine = ExchangeEngine(scenario.setting)
        uncached_engine = ExchangeEngine(scenario.setting,
                                         result_cache=False)
        for tree in scenario.source_trees:
            for query in scenario.queries:
                first = cached_engine.certain_answers(tree, query)
                second = cached_engine.certain_answers(tree, query)
                plain = uncached_engine.certain_answers(tree, query)
                context = (f"{scenario.describe()} "
                           f"tree={tree.fingerprint()} "
                           f"query={query.fingerprint()}")
                assert (first.ok, first.payload, first.strategy,
                        first.detail) == \
                    (second.ok, second.payload, second.strategy,
                     second.detail), context
                assert (plain.ok, plain.payload) == \
                    (first.ok, first.payload), context
        stats = cached_engine.stats
        assert stats["result_cache_hits"] >= stats["result_cache_entries"] > 0
        assert uncached_engine.stats["result_cache_hits"] == 0
        hits_seen += stats["result_cache_hits"]
    assert hits_seen > 0


def test_plan_interpreter_parity(scenarios):
    """Property 4: compiling a query to a slot-based plan changes *how* it
    is evaluated, never *what* it returns — assignments and certain answers
    agree with the interpreter oracle on every generated pair."""
    checked = 0
    for scenario in scenarios:
        engine = ExchangeEngine(scenario.setting)
        for tree in scenario.source_trees:
            frozen = tree.freeze()
            for query in scenario.queries:
                context = (f"{scenario.describe()} tree={tree.fingerprint()} "
                           f"query={query.fingerprint()}")
                plan = compile_query(query)
                # Every swept plan is structurally sound (and, with
                # REPRO_PLAN_VERIFY=1 from conftest, was already verified
                # and stamped at compile time).
                verify_plan(plan)
                if os.environ.get("REPRO_PLAN_VERIFY") == "1":
                    assert plan.verified, context
                # Same satisfying assignments over the source tree itself.
                planned = sorted(map(assignment_key, plan.evaluate(frozen)))
                interpreted = sorted(map(assignment_key,
                                         query.evaluate(tree)))
                assert planned == interpreted, context
                # Same certain answers: the engine's plan-based pipeline vs
                # the interpreted read-off from its own canonical solution.
                via_plan = engine.certain_answers(tree, query)
                solved = engine.solve(tree)
                assert via_plan.ok == solved.ok, context
                if solved.ok:
                    order = tuple(query.free_variables())
                    oracle = {tup for tup in query.answers(solved.payload,
                                                           order)
                              if all(is_constant(value) for value in tup)}
                    assert via_plan.payload == oracle, context
                checked += 1
        # Per-setting plans are compiled at most once per query fingerprint.
        stats = engine.stats
        assert stats["plan_cache_misses"] <= len(scenario.queries), \
            scenario.describe()
    assert checked >= SCENARIO_COUNT


def test_functional_consistency_matches_engine(scenarios):
    """The engine's strategy routing returns the same verdict as the
    functional front door on every generated setting."""
    for scenario in scenarios[:max(25, SCENARIO_COUNT // 4)]:
        engine = ExchangeEngine(scenario.setting)
        functional = check_consistency(scenario.setting)
        via_engine = engine.check_consistency()
        assert via_engine.payload == functional.consistent, \
            scenario.describe()
        if scenario.profile == "nested_relational":
            assert via_engine.strategy == "nested-relational", \
                scenario.describe()
