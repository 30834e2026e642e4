"""Pickle round-trips for everything the shard-host pipe and the store ship.

The shard host pickles compiled settings (``register``, and the replay
into a restarted worker), requests with their trees and queries, and the
:class:`EngineResult` replies; the corpus store persists compiled settings
as pickles.  These tests pin down that every object on those paths
survives a round-trip *semantically* — same answers, same structural keys,
same verdicts — and that an unpickled compiled setting arrives warm (no
recompilations).
"""

import pickle

import pytest

from repro import (ExchangeEngine, Null, NullFactory, certain_answers,
                   compile_setting)
from repro.generators import generate_scenario
from repro.workloads import library, nested_relational


@pytest.fixture(scope="module")
def setting():
    return library.library_setting()


class TestTreeRoundtrip:
    def test_tree_roundtrip_preserves_structure(self):
        tree = library.generate_source(6, seed=4)
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.equals(tree)
        assert clone.fingerprint() == tree.fingerprint()
        assert clone.ordered == tree.ordered

    def test_tree_with_nulls_roundtrips(self, setting):
        solved = ExchangeEngine(setting).solve(library.figure_1_source())
        solution = solved.payload
        clone = pickle.loads(pickle.dumps(solution))
        assert clone.equals(solution)
        assert {n.ident for n in clone.nulls()} == \
            {n.ident for n in solution.nulls()}

    def test_null_identity_semantics_survive(self):
        null = Null(7)
        clone = pickle.loads(pickle.dumps(null))
        assert clone == null and hash(clone) == hash(null)
        assert clone != Null(8)

    def test_null_factory_roundtrips(self):
        factory = NullFactory(start=5)
        factory.fresh()
        clone = pickle.loads(pickle.dumps(factory))
        # The clone continues the sequence instead of restarting it.
        assert clone.fresh() == factory.fresh()


class TestCompiledSettingRoundtrip:
    def test_roundtrip_preserves_verdicts(self, setting):
        compiled = compile_setting(setting)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.nested_relational == compiled.nested_relational
        assert clone.dichotomy == compiled.dichotomy
        assert clone.setting.fingerprint() == setting.fingerprint()

    def test_unpickled_compiled_arrives_warm(self, setting):
        compiled = compile_setting(setting)
        clone = pickle.loads(pickle.dumps(compiled))
        tree = library.generate_source(8, seed=2)
        query = library.query_writer_of("Book-1")
        outcome = certain_answers(clone.setting, tree, query, compiled=clone)
        assert outcome.has_solution
        assert clone.cache_stats()["rule_cache_misses"] == 0

    def test_lazy_machinery_survives_and_lock_is_fresh(self, setting):
        compiled = compile_setting(setting)
        compiled.goal_search()
        compiled.source_skeletons()
        clone = pickle.loads(pickle.dumps(compiled))
        # Memoised machinery travelled: first use on the clone is a hit.
        clone.goal_search()
        clone.source_skeletons()
        stats = clone.cache_stats()
        assert stats["goal_search_hits"] >= 1
        assert stats["skeletons_hits"] >= 1
        # ... and the clone still serialises (a dead lock would throw here).
        pickle.dumps(clone)

    def test_roundtrip_engine_serves_identical_answers(self):
        scenario = generate_scenario(17, profile="mixed")
        compiled = compile_setting(scenario.setting)
        clone = pickle.loads(pickle.dumps(compiled))
        original_engine = ExchangeEngine(compiled)
        clone_engine = ExchangeEngine(clone)
        for tree in scenario.source_trees:
            for query in scenario.queries:
                first = original_engine.certain_answers(tree, query)
                second = clone_engine.certain_answers(tree, query)
                assert (first.ok, first.payload) == (second.ok, second.payload)


class TestResultObjects:
    def test_engine_result_roundtrips(self, setting):
        engine = ExchangeEngine(setting)
        result = engine.certain_answers(library.figure_1_source(),
                                        library.query_writer_of(
                                            "Computational Complexity"))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.ok == result.ok
        assert clone.payload == result.payload
        assert clone.strategy == result.strategy
        assert clone.detail == result.detail
        assert clone.cache == result.cache

    def test_company_setting_roundtrips_too(self):
        compiled = compile_setting(nested_relational.company_setting())
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.nested_relational
        tree = nested_relational.generate_company_source(2, seed=1)
        engine = ExchangeEngine(clone)
        assert engine.solve(tree).ok
