"""Error-path parity: failures surface identically through every entry point.

Two failure families matter to callers:

* ``NoSolutionError`` — the *legitimate* "no solution exists" outcome:
  reported as a failed result (``has_solution`` / ``ok`` false) and raised
  only when the caller demands an answer anyway (``certain()``,
  ``contains()``, ``unwrap()``);
* ``ChaseError`` — the chase asked for a canonical solution outside its
  class ``C_U`` (a target DTD that is not univocal): always raised.

Both must behave identically through the functional API, a warm engine, a
result-cached engine (first *and* repeat calls — the cache must never mask
or swallow an exception) and the batch methods.
"""

import pytest

from repro import (ChaseError, DataExchangeSetting, DTD, ExchangeEngine,
                   NoSolutionError, XMLTree, certain_answers,
                   canonical_solution, std)
from repro.patterns.parse import parse_pattern
from repro.patterns.queries import pattern_query


@pytest.fixture()
def clash_setting():
    """Forcing two distinct titles into the single ``item`` slot of the
    target clashes on a constant attribute: a clean no-solution case."""
    source = DTD("db", {"db": "book*", "book": ""},
                 {"book": ["title"]})
    target = DTD("lib", {"lib": "item", "item": ""},
                 {"item": ["t"]})
    dependency = std("lib[item(@t=x)]", "db[book(@title=x)]")
    return DataExchangeSetting(source, target, [dependency])


@pytest.fixture()
def clash_tree():
    return XMLTree.build(("db", [("book", {"title": "A"}),
                                 ("book", {"title": "B"})]))


@pytest.fixture()
def non_univocal_setting():
    """Target rule ``r → a a`` is non-univocal (c = 2), so the setting lies
    outside C_U and ``canonical_solution`` must raise ``ChaseError``."""
    source = DTD("db", {"db": "rec*", "rec": ""}, {"rec": ["v"]})
    target = DTD("r", {"r": "a a", "a": ""}, {"a": ["v"]})
    dependency = std("r[a(@v=x)]", "db[rec(@v=x)]")
    return DataExchangeSetting(source, target, [dependency])


@pytest.fixture()
def three_records():
    return XMLTree.build(("db", [("rec", {"v": "1"}), ("rec", {"v": "2"}),
                                 ("rec", {"v": "3"})]))


QUERY = pattern_query(parse_pattern("lib[item(@t=w)]"))
R_QUERY = pattern_query(parse_pattern("r[a(@v=w)]"))


class TestNoSolution:
    def test_functional_api(self, clash_setting, clash_tree):
        outcome = certain_answers(clash_setting, clash_tree, QUERY)
        assert not outcome.has_solution
        with pytest.raises(NoSolutionError):
            outcome.certain()
        with pytest.raises(NoSolutionError):
            outcome.contains(("A",))

    def test_warm_engine(self, clash_setting, clash_tree):
        engine = ExchangeEngine(clash_setting, result_cache=False)
        result = engine.certain_answers(clash_tree, QUERY)
        assert not result.ok
        assert result.detail == "the source tree has no solution"
        with pytest.raises(NoSolutionError):
            result.unwrap()

    def test_cached_engine_first_and_repeat(self, clash_setting, clash_tree):
        engine = ExchangeEngine(clash_setting)
        first = engine.certain_answers(clash_tree, QUERY)
        second = engine.certain_answers(clash_tree, QUERY)  # cache hit
        assert second.cache["result_cache_hits"] == 1
        for result in (first, second):
            assert not result.ok
            with pytest.raises(NoSolutionError) as excinfo:
                result.unwrap()
            assert "no result" in str(excinfo.value) or \
                "no solution" in str(excinfo.value)
        assert first.detail == second.detail

    def test_solve_reports_failure_not_exception(self, clash_setting,
                                                 clash_tree):
        engine = ExchangeEngine(clash_setting)
        result = engine.solve(clash_tree)
        assert not result.ok and "clash" in result.detail
        functional = canonical_solution(clash_setting, clash_tree)
        assert not functional.success and functional.failure == result.detail

    def test_batch_reports_identically(self, clash_setting, clash_tree):
        engine = ExchangeEngine(clash_setting)
        results = engine.certain_answers_batch([clash_tree, clash_tree],
                                               QUERY)
        for result in results:
            assert not result.ok
            assert result.detail == "the source tree has no solution"
            with pytest.raises(NoSolutionError):
                result.unwrap()


class TestChaseError:
    def test_functional_api(self, non_univocal_setting, three_records):
        with pytest.raises(ChaseError, match="not univocal"):
            certain_answers(non_univocal_setting, three_records, R_QUERY)
        with pytest.raises(ChaseError):
            canonical_solution(non_univocal_setting, three_records)

    def test_warm_engine(self, non_univocal_setting, three_records):
        engine = ExchangeEngine(non_univocal_setting, result_cache=False)
        with pytest.raises(ChaseError, match="not univocal"):
            engine.certain_answers(three_records, R_QUERY)
        with pytest.raises(ChaseError):
            engine.solve(three_records)

    def test_cache_never_masks_or_stores_the_exception(
            self, non_univocal_setting, three_records):
        engine = ExchangeEngine(non_univocal_setting)
        for _ in range(2):  # identical on first call and on repeat
            with pytest.raises(ChaseError, match="not univocal"):
                engine.certain_answers(three_records, R_QUERY)
        stats = engine.stats
        assert stats["result_cache_entries"] == 0  # exceptions are not cached
        assert stats["result_cache_misses"] == 2   # ... and each retry recomputes

    def test_batch_propagates(self, non_univocal_setting, three_records):
        engine = ExchangeEngine(non_univocal_setting)
        with pytest.raises(ChaseError):
            engine.certain_answers_batch([three_records, three_records],
                                         R_QUERY)


class TestPreconditionErrors:
    def test_not_fully_specified_raises_everywhere(self):
        source = DTD("db", {"db": "book*", "book": ""}, {"book": ["title"]})
        target = DTD("lib", {"lib": "item*", "item": ""}, {"item": ["t"]})
        dependency = std("//item(@t=x)", "db[book(@title=x)]")
        setting = DataExchangeSetting(source, target, [dependency])
        tree = XMLTree.build(("db", [("book", {"title": "A"})]))
        with pytest.raises(ValueError, match="fully-specified"):
            certain_answers(setting, tree, QUERY)
        engine = ExchangeEngine(setting)
        for _ in range(2):  # the cache must not swallow this either
            with pytest.raises(ValueError, match="fully-specified"):
                engine.certain_answers(tree, QUERY)
