"""The engine API: parity with the functional API, caching, batching, errors."""

import asyncio
import dataclasses
import pickle

import pytest

from repro import (ChaseError, CompiledSetting, DataExchangeSetting,
                   EngineResult, ExchangeEngine, ExchangeError, NoSolutionError,
                   canonical_pre_solution, canonical_solution, certain_answers,
                   check_consistency, check_consistency_general,
                   check_consistency_nested_relational, classify_setting,
                   compile_setting, std)
from repro.workloads import library, nested_relational
from repro.xmlmodel import DTD, XMLTree


@pytest.fixture
def library_engine(library_setting):
    return ExchangeEngine(library_setting)


@pytest.fixture
def inconsistent_setting():
    """The Section-4 example: the STD forces l2 below l1, the DTD forbids it.
    Its target rule ``r → l1 | l2`` is not univocal."""
    source_dtd = DTD("rs", {"rs": ""})
    target_dtd = DTD("r", {"r": "l1 | l2", "l1": "", "l2": ""}, {"l2": ["a"]})
    return DataExchangeSetting(source_dtd, target_dtd,
                               [std("r[l1[l2(@a=x)]]", "rs")])


@pytest.fixture
def univocal_inconsistent_setting():
    """The same STD against the univocal target ``r → l1``: in C_U, and
    still without a solution."""
    source_dtd = DTD("rs", {"rs": ""})
    target_dtd = DTD("r", {"r": "l1", "l1": "", "l2": ""}, {"l2": ["a"]})
    return DataExchangeSetting(source_dtd, target_dtd,
                               [std("r[l1[l2(@a=x)]]", "rs")])


class TestCompiledSetting:
    def test_structural_verdicts_match_legacy_predicates(self, library_setting):
        compiled = compile_setting(library_setting)
        verdict = compiled.dichotomy
        assert verdict.fully_specified == library_setting.is_fully_specified()
        assert compiled.nested_relational
        assert verdict.target_univocal == \
            library_setting.target_dtd.is_univocal()
        assert compiled.source_satisfiable
        assert verdict.std_classes == library_setting.std_classes()

    def test_compile_precompiles_every_content_model(self, library_setting):
        compiled = compile_setting(library_setting)
        info = library_setting.source_dtd.rule_cache_info()
        assert info["entries"] == len(library_setting.source_dtd.element_types)
        assert set(compiled.target_analyses) == \
            library_setting.target_dtd.element_types

    def test_dichotomy_matches_classify_setting(self, company_setting):
        compiled = compile_setting(company_setting)
        legacy = classify_setting(company_setting)
        assert compiled.dichotomy.tractable == legacy.tractable
        assert compiled.dichotomy.std_classes == legacy.std_classes
        assert compiled.dichotomy.target_rules == legacy.target_rules
        # engine.classify serves the cached verdicts through a defensive
        # copy: mutating it must not poison the cache.
        engine = ExchangeEngine(compiled)
        served = engine.classify().payload
        assert served == compiled.dichotomy
        served.reasons.append("mutated by caller")
        served.target_rules.clear()
        assert compiled.dichotomy.reasons == legacy.reasons
        assert compiled.dichotomy.target_rules == legacy.target_rules
        again = engine.classify()
        assert again.payload == legacy
        assert again.detail == legacy.summary()

    def test_mismatched_compiled_handle_is_rejected(self, library_setting,
                                                    company_setting):
        wrong = compile_setting(company_setting)
        source = library.figure_1_source()
        calls = [
            lambda: check_consistency(library_setting, compiled=wrong),
            lambda: check_consistency_general(library_setting,
                                              compiled=wrong),
            lambda: check_consistency_nested_relational(library_setting,
                                                        compiled=wrong),
            lambda: canonical_pre_solution(library_setting, source,
                                           compiled=wrong),
            lambda: canonical_solution(library_setting, source,
                                       compiled=wrong),
            lambda: certain_answers(library_setting, source,
                                    library.query_writer_of("X"),
                                    compiled=wrong),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="different DataExchangeSetting"):
                call()

    def test_nested_relational_skeletons_rejected_outside_class(
            self, figure_6_setting):
        compiled = compile_setting(figure_6_setting)
        assert not compiled.nested_relational
        with pytest.raises(ValueError):
            compiled.nested_relational_skeletons()


class TestBareCallsCompileOnce:
    """A bare functional call compiles its setting once, at the outermost
    entry point, and every inner stage runs on that handle."""

    CALLS = {
        "certain_answers": lambda setting, source: certain_answers(
            setting, source,
            library.query_writer_of("Computational Complexity")),
        "canonical_solution": canonical_solution,
        "check_consistency": lambda setting, source: check_consistency(
            setting),
        "check_consistency_via_general": lambda setting, source:
            check_consistency(setting, method="general"),
        "check_consistency_general": lambda setting, source:
            check_consistency_general(setting),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_one_compiled_setting_per_call(self, monkeypatch, name,
                                           library_setting, figure_1_source):
        built = []
        original = CompiledSetting.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledSetting, "__init__", counting_init)
        self.CALLS[name](library_setting, figure_1_source)
        assert len(built) == 1
        assert built[0].setting is library_setting


class TestEngineParityQuickstart:
    """Engine results equal the legacy functional API on Figures 1/2."""

    def test_consistency_parity(self, library_setting, library_engine):
        legacy = check_consistency(library_setting)
        result = library_engine.check_consistency()
        assert result.ok is legacy.consistent is True
        assert result.strategy == legacy.method == "nested-relational"
        assert result.payload is legacy.consistent

    def test_solve_parity(self, library_setting, library_engine, figure_1_source):
        legacy = canonical_solution(library_setting, figure_1_source)
        result = library_engine.solve(figure_1_source)
        assert result.ok is legacy.success is True
        assert sorted(result.payload.children_labels(result.payload.root)) == \
            sorted(legacy.tree.children_labels(legacy.tree.root))
        assert library_setting.is_unordered_solution(figure_1_source,
                                                     result.payload)

    def test_certain_answers_parity(self, library_setting, library_engine,
                                    figure_1_source):
        query = library.query_writer_of("Computational Complexity")
        legacy = certain_answers(library_setting, figure_1_source, query)
        result = library_engine.certain_answers(figure_1_source, query)
        assert result.ok is legacy.has_solution is True
        assert result.payload == legacy.answers == {("Papadimitriou",)}

    def test_boolean_certain_answers_parity(self, library_setting,
                                            library_engine, figure_1_source):
        query = library.query_writer_of("Computational Complexity")
        legacy = certain_answers(library_setting, figure_1_source, query)
        result = library_engine.certain_answer_boolean(figure_1_source, query)
        assert result.ok and result.payload is legacy.certain() is True


class TestEngineParityNestedRelational:
    def test_company_consistency_parity(self, company_setting):
        engine = ExchangeEngine(company_setting)
        legacy = check_consistency(company_setting)
        result = engine.check_consistency()
        assert result.ok is legacy.consistent is True
        assert result.strategy == "nested-relational"
        # Explicit override routes to the general procedure and agrees.
        general = engine.check_consistency(strategy="general")
        assert general.ok is check_consistency_general(company_setting).consistent
        assert general.strategy == "general"

    def test_company_certain_answers_parity(self, company_setting,
                                            company_source):
        engine = ExchangeEngine(company_setting)
        query = nested_relational.query_projects_of("Dept-0")
        legacy = certain_answers(company_setting, company_source, query)
        result = engine.certain_answers(company_source, query)
        assert result.ok is legacy.has_solution is True
        assert result.payload == legacy.answers

    def test_strategy_spelling_variants(self, company_setting):
        engine = ExchangeEngine(company_setting)
        assert engine.check_consistency(strategy="nested_relational").ok
        assert engine.check_consistency(strategy="nested-relational").ok
        with pytest.raises(ValueError):
            engine.check_consistency(strategy="quantum")


class TestEngineParityInconsistent:
    def test_consistency_parity(self, inconsistent_setting):
        engine = ExchangeEngine(inconsistent_setting)
        legacy = check_consistency(inconsistent_setting)
        result = engine.check_consistency()
        assert result.ok is legacy.consistent is False
        assert result.strategy == legacy.method == "general"
        # Repeated calls reuse the compiled machinery and agree.
        assert engine.check_consistency().ok is False

    def test_solve_and_certain_answers_report_no_solution(
            self, inconsistent_setting, univocal_inconsistent_setting):
        source = XMLTree("rs", ordered=True)
        query = library.query_writer_of("X")
        engine = ExchangeEngine(univocal_inconsistent_setting)
        assert engine.classify().payload.tractable
        assert engine.check_consistency().ok is False
        legacy = certain_answers(univocal_inconsistent_setting, source, query)
        solved = engine.solve(source)
        answered = engine.certain_answers(source, query)
        assert legacy.has_solution is solved.ok is answered.ok is False
        assert not solved and not answered
        with pytest.raises(NoSolutionError):
            answered.unwrap()
        # Outside C_U a failing chase proves nothing: both are refused.
        outside = ExchangeEngine(inconsistent_setting)
        with pytest.raises(ChaseError, match="not univocal"):
            outside.solve(source)
        with pytest.raises(ChaseError, match="not univocal"):
            outside.certain_answers(source, query)


class TestCacheReuse:
    def test_second_call_recompiles_nothing(self, library_setting,
                                            figure_1_source):
        # result_cache=False so the second call re-runs the full pipeline
        # and proves it still recompiles no content model.
        engine = ExchangeEngine(library_setting, result_cache=False)
        query = library.query_writer_of("Computational Complexity")

        first = engine.certain_answers(figure_1_source, query)
        after_first = first.cache
        second = engine.certain_answers(figure_1_source, query)
        after_second = second.cache

        assert after_second["rule_cache_misses"] == \
            after_first["rule_cache_misses"] == 0
        assert after_second["rule_cache_hits"] > after_first["rule_cache_hits"]
        assert after_second["result_cache_hits"] == 0  # cache disabled

    def test_explicit_null_factory_bypasses_the_result_cache(
            self, library_setting, figure_1_source):
        from repro import NullFactory
        engine = ExchangeEngine(library_setting)
        query = library.query_writer_of("Computational Complexity")
        engine.certain_answers(figure_1_source, query)  # populate the cache
        factory = NullFactory(start=500)
        result = engine.certain_answers(figure_1_source, query,
                                        nulls=factory)
        # The caller's factory really was consumed, by exactly the nulls
        # the canonical solution draws from a twin — a cache hit would have
        # left it untouched.
        twin = NullFactory(start=500)
        assert canonical_solution(library_setting, figure_1_source, twin,
                                  compiled=engine.compiled).success
        drawn = twin.fresh().ident - 500
        assert drawn > 0
        assert factory.fresh().ident == 500 + drawn
        assert result.cache["result_cache_hits"] == 0

    def test_second_call_hits_the_result_cache(self, library_setting,
                                               figure_1_source):
        engine = ExchangeEngine(library_setting)
        query = library.query_writer_of("Computational Complexity")

        first = engine.certain_answers(figure_1_source, query)
        second = engine.certain_answers(figure_1_source, query)

        assert first.cache["result_cache_misses"] == 1
        assert second.cache["result_cache_hits"] == 1
        # A cache hit skips the chase entirely: rule-cache counters freeze.
        assert second.cache["rule_cache_hits"] == first.cache["rule_cache_hits"]
        assert (second.ok, second.payload, second.strategy, second.detail) == \
            (first.ok, first.payload, first.strategy, first.detail)

    def test_cached_answers_cannot_be_changed_by_a_caller(
            self, library_setting, figure_1_source):
        engine = ExchangeEngine(library_setting)
        query = library.query_writer_of("Computational Complexity")
        first = engine.certain_answers(figure_1_source, query)
        assert isinstance(first.payload, frozenset)
        with pytest.raises(AttributeError):
            first.payload.add(("intruder",))
        second = engine.certain_answers(figure_1_source, query)
        assert second.cache["result_cache_hits"] == 1
        assert isinstance(second.payload, frozenset)
        assert second.payload == first.payload == {("Papadimitriou",)}

    def test_variable_order_is_checked_before_the_cache(
            self, library_setting, figure_1_source):
        engine = ExchangeEngine(library_setting)
        query = library.query_writer_of("Computational Complexity")
        # A string would read as one variable per character.
        with pytest.raises(ValueError, match="not the string"):
            engine.certain_answers(figure_1_source, query, "w")
        with pytest.raises(ValueError, match="not a free variable"):
            engine.certain_answers(figure_1_source, query, ["nope"])
        with pytest.raises(ValueError, match="not a free variable"):
            certain_answers(library_setting, figure_1_source, query,
                            ["nope"])
        assert engine.stats["result_cache_misses"] == 0
        assert engine.certain_answers(figure_1_source, query,
                                      ["w"]).payload == {("Papadimitriou",)}

    def test_consistency_machinery_is_reused(self, inconsistent_setting):
        engine = ExchangeEngine(inconsistent_setting)
        first = engine.check_consistency()
        second = engine.check_consistency()
        delta_hits = (second.cache["skeletons_hits"]
                      - first.cache["skeletons_hits"])
        assert delta_hits == 1
        assert second.cache["skeletons_misses"] == 1  # only the first call
        assert second.cache["goal_search_misses"] == 1
        assert second.cache["goal_search_hits"] >= 1

    def test_fresh_compiled_setting_starts_at_zero_recompilations(
            self, library_setting):
        compiled = compile_setting(library_setting)
        stats = compiled.cache_stats()
        assert stats["rule_cache_misses"] == 0


class TestResultCacheEviction:
    """The bounded (LRU) result cache for long-lived engines."""

    @staticmethod
    def _sources(n):
        return [library.generate_source(3, seed=seed) for seed in range(n)]

    def test_default_stays_unbounded(self, library_setting):
        engine = ExchangeEngine(library_setting)
        assert engine.result_cache_maxsize is None
        query = library.query_writer_of("Book-0")
        for tree in self._sources(4):
            engine.certain_answers(tree, query)
        stats = engine.stats
        assert stats["result_cache_entries"] == 4
        assert stats["result_cache_evictions"] == 0

    def test_maxsize_evicts_least_recently_used(self, library_setting):
        engine = ExchangeEngine(library_setting, result_cache_maxsize=2)
        query = library.query_writer_of("Book-0")
        a, b, c = self._sources(3)
        engine.certain_answers(a, query)
        engine.certain_answers(b, query)
        engine.certain_answers(a, query)  # refresh a: b is now the LRU entry
        engine.certain_answers(c, query)  # evicts b
        stats = engine.stats
        assert stats["result_cache_entries"] == 2
        assert stats["result_cache_evictions"] == 1
        assert engine.result_cache_maxsize == 2
        # a survived the eviction (it was refreshed), b did not.
        assert engine.certain_answers(a, query).cache["result_cache_hits"] == 2
        before = engine.stats["result_cache_misses"]
        engine.certain_answers(b, query)
        assert engine.stats["result_cache_misses"] == before + 1

    def test_eviction_counter_reaches_stats_and_results(self, library_setting):
        engine = ExchangeEngine(library_setting, result_cache_maxsize=1)
        query = library.query_writer_of("Book-0")
        trees = self._sources(3)
        last = None
        for tree in trees:
            last = engine.certain_answers(tree, query)
        assert last is not None
        assert last.cache["result_cache_evictions"] == 2
        assert engine.stats["result_cache_evictions"] == 2
        assert engine.stats["result_cache_entries"] == 1

    def test_results_identical_to_unbounded_engine(self, library_setting):
        bounded = ExchangeEngine(library_setting, result_cache_maxsize=1)
        unbounded = ExchangeEngine(library_setting)
        query = library.query_writer_of("Book-0")
        for tree in self._sources(3) + self._sources(3):
            ours = bounded.certain_answers(tree, query)
            theirs = unbounded.certain_answers(tree, query)
            assert (ours.ok, ours.payload) == (theirs.ok, theirs.payload)

    def test_invalid_maxsize_rejected(self, library_setting):
        with pytest.raises(ValueError, match="result_cache_maxsize"):
            ExchangeEngine(library_setting, result_cache_maxsize=0)

    def test_batch_executors_respect_the_bound(self, library_setting):
        engine = ExchangeEngine(library_setting, result_cache_maxsize=2)
        query = library.query_writer_of("Book-0")
        trees = self._sources(4)
        engine.certain_answers_batch(trees, query)
        stats = engine.stats
        assert stats["result_cache_entries"] <= 2
        assert stats["result_cache_evictions"] >= 2


class TestBatch:
    def test_batch_matches_single_calls(self, library_setting):
        engine = ExchangeEngine(library_setting)
        sources = [library.generate_source(4, seed=s) for s in range(5)]
        query = library.query_writer_of("Book-0")
        single = [engine.certain_answers(tree, query).payload
                  for tree in sources]
        batch = engine.certain_answers_batch(sources, query)
        assert [r.payload for r in batch] == single
        assert all(r.ok for r in batch)

    def test_batch_with_paired_queries(self, library_setting):
        engine = ExchangeEngine(library_setting)
        sources = [library.generate_source(3, seed=s) for s in range(3)]
        queries = [library.query_writer_of(f"Book-{i}") for i in range(3)]
        results = engine.certain_answers_batch(sources, queries)
        for tree, query, result in zip(sources, queries, results):
            assert result.payload == engine.certain_answers(tree, query).payload

    def test_batch_length_mismatch_raises(self, library_setting):
        engine = ExchangeEngine(library_setting)
        sources = [library.figure_1_source()]
        with pytest.raises(ValueError):
            engine.certain_answers_batch(
                sources, [library.query_writer_of("A"),
                          library.query_writer_of("B")])

    def test_solve_batch(self, library_setting):
        engine = ExchangeEngine(library_setting)
        sources = [library.generate_source(3, seed=s) for s in range(4)]
        results = engine.solve_batch(sources)
        assert all(r.ok for r in results)
        for tree, result in zip(sources, results):
            assert library_setting.is_unordered_solution(tree, result.payload)


class TestEngineResultProtocol:
    def test_uniform_fields(self, library_engine, figure_1_source):
        for result in (library_engine.classify(),
                       library_engine.check_consistency(),
                       library_engine.solve(figure_1_source)):
            assert isinstance(result, EngineResult)
            assert result.elapsed >= 0.0
            assert isinstance(result.strategy, str) and result.strategy
            assert isinstance(result.cache, dict)
        # A result carries the answer, not the pipeline's objects.
        assert "raw" not in {f.name for f in dataclasses.fields(EngineResult)}

    def test_classify_payload_is_dichotomy_report(self, library_engine,
                                                  library_setting):
        result = library_engine.classify()
        assert result.ok
        assert result.payload.tractable == \
            classify_setting(library_setting).tractable

    def test_engine_accepts_precompiled_setting(self, library_setting):
        compiled = compile_setting(library_setting)
        engine = ExchangeEngine(compiled)
        assert engine.compiled is compiled
        assert isinstance(engine.compiled, CompiledSetting)
        with pytest.raises(TypeError):
            ExchangeEngine("not a setting")


#: The functional API's pipeline objects, which no engine result carries.
PIPELINE_CLASSES = (b"CertainAnswers", b"ChaseResult", b"ChaseStep",
                    b"ConsistencyResult")
WRITER_QUERY = library.query_writer_of("Computational Complexity")


class TestResultsCarryAnswersOnly:
    """A result pickles (as a host reply does) and is cached without the
    canonical tree, the chase log or the consistency witness."""

    #: Each engine operation, with the class names its pickle must not
    #: hold (a solve's payload is itself a tree).
    OPERATIONS = {
        "certain_answers": (lambda engine, tree: engine.certain_answers(
            tree, WRITER_QUERY), PIPELINE_CLASSES + (b"XMLTree",)),
        "check_consistency": (lambda engine, tree: engine.check_consistency(),
                              PIPELINE_CLASSES + (b"XMLTree",)),
        "classify": (lambda engine, tree: engine.classify(), PIPELINE_CLASSES),
        "solve": (lambda engine, tree: engine.solve(tree), PIPELINE_CLASSES),
    }

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_pickle_holds_no_pipeline_object(self, name, library_setting,
                                             figure_1_source):
        run, forbidden = self.OPERATIONS[name]
        result = run(ExchangeEngine(library_setting), figure_1_source)
        assert result.ok
        pickled = pickle.dumps(result)
        assert [n for n in forbidden if n in pickled] == []

    def test_result_cache_holds_answer_sets(self, library_setting,
                                            figure_1_source):
        engine = ExchangeEngine(library_setting)
        result = engine.certain_answers(figure_1_source, WRITER_QUERY)
        assert list(engine._results.values()) == [result.payload]

    def test_host_reply_holds_no_pipeline_object(self, library_setting,
                                                 figure_1_source):
        from repro.service import AsyncExchangeService

        async def run():
            async with AsyncExchangeService(executor="host",
                                            workers=1) as service:
                fingerprint = service.register(library_setting)
                return await service.certain_answers(
                    fingerprint, figure_1_source, WRITER_QUERY)

        result = asyncio.run(run())
        assert result.payload == ExchangeEngine(library_setting).certain_answers(
            figure_1_source, WRITER_QUERY).payload
        pickled = pickle.dumps(result)
        forbidden = self.OPERATIONS["certain_answers"][1]
        assert [n for n in forbidden if n in pickled] == []


class TestErrorHierarchy:
    def test_no_solution_error_is_value_error(self):
        assert issubclass(NoSolutionError, ValueError)
        assert issubclass(NoSolutionError, ExchangeError)

    def test_chase_error_is_runtime_error(self):
        assert issubclass(ChaseError, RuntimeError)
        assert issubclass(ChaseError, ExchangeError)

    def test_certain_answers_raise_dedicated_error(
            self, inconsistent_setting, univocal_inconsistent_setting):
        source = XMLTree("rs", ordered=True)
        outcome = certain_answers(univocal_inconsistent_setting, source,
                                  library.query_writer_of("X"))
        with pytest.raises(NoSolutionError):
            outcome.certain()
        with pytest.raises(NoSolutionError):
            outcome.contains(("x",))
        with pytest.raises(ChaseError, match="not univocal"):
            certain_answers(inconsistent_setting, source,
                            library.query_writer_of("X"))
