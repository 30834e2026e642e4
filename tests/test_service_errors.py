"""Async error propagation through the serving layer.

The contract (mirroring ``test_error_paths.py`` one layer up): an exception
raised inside a shard — ``ChaseError`` for a non-univocal target, a
precondition ``ValueError`` — surfaces **unchanged** from the ``await``-side
single-request calls on every executor, while in a mixed batch it marks only
the slot of the request that raised, leaving batch neighbours (on the same
and on other shards) untouched.  ``NoSolutionError`` keeps its two-level
shape: a failed-but-defined result from the service, raised only when the
caller demands the payload (``EngineResult.unwrap``).
"""

import asyncio

import pytest

from repro import (ChaseError, DataExchangeSetting, DTD, NoSolutionError,
                   XMLTree, std)
from repro.patterns.parse import parse_pattern
from repro.patterns.queries import pattern_query
from repro.service import (AsyncExchangeService, UnknownSettingError,
                           certain_answers_request, classify_request,
                           consistency_request, solve_request)
from repro.workloads import library


@pytest.fixture
def non_univocal_setting():
    """Target rule ``r → a a`` is non-univocal: the setting lies outside
    C_U, so every solve and certain-answers request raises ``ChaseError``."""
    source = DTD("db", {"db": "rec*", "rec": ""}, {"rec": ["v"]})
    target = DTD("r", {"r": "a a", "a": ""}, {"a": ["v"]})
    return DataExchangeSetting(source, target,
                               [std("r[a(@v=x)]", "db[rec(@v=x)]")])


@pytest.fixture
def three_records():
    return XMLTree.build(("db", [("rec", {"v": "1"}), ("rec", {"v": "2"}),
                                 ("rec", {"v": "3"})]))


@pytest.fixture
def clash_setting():
    """Two distinct titles forced into one target slot: a clean no-solution
    outcome (reported, not raised)."""
    source = DTD("db", {"db": "book*", "book": ""}, {"book": ["title"]})
    target = DTD("lib", {"lib": "item", "item": ""}, {"item": ["t"]})
    return DataExchangeSetting(source, target,
                               [std("lib[item(@t=x)]", "db[book(@title=x)]")])


@pytest.fixture
def clash_tree():
    return XMLTree.build(("db", [("book", {"title": "A"}),
                                 ("book", {"title": "B"})]))


R_QUERY = pattern_query(parse_pattern("r[a(@v=w)]"))
LIB_QUERY = pattern_query(parse_pattern("lib[item(@t=w)]"))


def run(coroutine):
    return asyncio.run(coroutine)


class TestAwaitSidePropagation:
    @pytest.mark.parametrize("executor,parallel", [
        ("serial", 1), ("thread", 2)])
    def test_chase_error_surfaces_unchanged(self, non_univocal_setting,
                                            three_records, executor,
                                            parallel):
        async def scenario():
            async with AsyncExchangeService(executor=executor,
                                            parallel=parallel) as service:
                fingerprint = service.register(non_univocal_setting)
                with pytest.raises(ChaseError, match="not univocal"):
                    await service.certain_answers(fingerprint, three_records,
                                                  R_QUERY)
                with pytest.raises(ChaseError, match="not univocal"):
                    await service.solve(fingerprint, three_records)
                # ... and the cache never stores (or masks) the exception.
                with pytest.raises(ChaseError, match="not univocal"):
                    await service.certain_answers(fingerprint, three_records,
                                                  R_QUERY)
                return service.stats()["shards"][fingerprint]

        shard_stats = run(scenario())
        assert shard_stats["errors"] == 3
        assert shard_stats["result_cache_entries"] == 0

    def test_no_solution_is_reported_not_raised(self, clash_setting,
                                                clash_tree):
        async def scenario():
            async with AsyncExchangeService() as service:
                fingerprint = service.register(clash_setting)
                return await service.certain_answers(fingerprint, clash_tree,
                                                     LIB_QUERY)

        result = run(scenario())
        assert not result.ok
        assert result.detail == "the source tree has no solution"
        with pytest.raises(NoSolutionError):
            result.unwrap()

    def test_unknown_fingerprint_raises_from_await(self, clash_tree):
        async def scenario():
            async with AsyncExchangeService() as service:
                with pytest.raises(UnknownSettingError,
                                   match="no setting registered"):
                    await service.solve("f" * 64, clash_tree)

        run(scenario())


class TestMixedBatchIsolation:
    @pytest.mark.parametrize("executor", ["serial", "thread", "host"])
    def test_failure_marks_only_its_own_slot(self, non_univocal_setting,
                                             three_records, library_setting,
                                             executor):
        """A ChaseError on one shard leaves same-shard and cross-shard
        neighbours fully served."""
        ok_tree = library.generate_source(3, authors_per_book=2, seed=1)
        ok_query = library.query_writer_of("Book-0")

        async def scenario():
            async with AsyncExchangeService(executor=executor,
                                            parallel=3) as service:
                bad_fp = service.register(non_univocal_setting)
                lib_fp = service.register(library_setting)
                requests = [
                    certain_answers_request(lib_fp, ok_tree, ok_query),
                    certain_answers_request(bad_fp, three_records, R_QUERY),
                    classify_request(bad_fp),          # same shard, fine
                    consistency_request(bad_fp),       # same shard, fine
                    certain_answers_request(lib_fp, ok_tree, ok_query),
                ]
                return await service.batch(requests)

        slots = run(scenario())
        assert [slot.failed for slot in slots] == \
            [False, True, False, False, False]
        assert isinstance(slots[1].error, ChaseError)
        with pytest.raises(ChaseError, match="not univocal"):
            slots[1].unwrap()
        assert slots[0].result.payload == slots[4].result.payload != set()
        assert slots[2].ok and slots[3].ok

    @pytest.mark.parametrize("executor", ["serial", "thread", "host"])
    def test_unknown_fingerprint_fails_only_its_group(self, library_setting,
                                                      executor):
        """The in-process router fails an unknown fingerprint when its
        handle settles, the shard host already at submission; either way
        only that fingerprint's slots fail."""
        ok_tree = library.generate_source(2, authors_per_book=1, seed=2)
        ok_query = library.query_writer_of("Book-0")

        async def scenario():
            async with AsyncExchangeService(executor=executor) as service:
                lib_fp = service.register(library_setting)
                requests = [
                    certain_answers_request(lib_fp, ok_tree, ok_query),
                    consistency_request("f" * 64),
                    consistency_request(lib_fp),
                    solve_request("f" * 64, ok_tree),
                ]
                return await service.batch(requests)

        slots = run(scenario())
        assert [slot.failed for slot in slots] == [False, True, False, True]
        assert isinstance(slots[1].error, UnknownSettingError)
        assert isinstance(slots[3].error, UnknownSettingError)
        assert slots[0].ok and slots[2].ok

    def test_return_exceptions_false_reraises_after_settling(
            self, non_univocal_setting, three_records, library_setting):
        ok_tree = library.generate_source(2, authors_per_book=1, seed=3)
        ok_query = library.query_writer_of("Book-0")

        async def scenario():
            async with AsyncExchangeService() as service:
                bad_fp = service.register(non_univocal_setting)
                lib_fp = service.register(library_setting)
                with pytest.raises(ChaseError, match="not univocal"):
                    await service.batch(
                        [certain_answers_request(lib_fp, ok_tree, ok_query),
                         certain_answers_request(bad_fp, three_records,
                                                 R_QUERY)],
                        return_exceptions=False)
                # The healthy shard still did (and cached) its work.
                stats = service.stats()["shards"][lib_fp]
                assert stats["requests"] == 1 and stats["errors"] == 0

        run(scenario())

    def test_host_executor_batch_isolates_failures(
            self, non_univocal_setting, three_records, library_setting):
        """Worker-raised exceptions cross the process boundary into their
        slot only."""
        ok_tree = library.generate_source(2, authors_per_book=1, seed=4)
        ok_query = library.query_writer_of("Book-0")

        async def scenario():
            async with AsyncExchangeService(executor="host",
                                            workers=2) as service:
                bad_fp = service.register(non_univocal_setting)
                lib_fp = service.register(library_setting)
                return await service.batch(
                    [certain_answers_request(bad_fp, three_records, R_QUERY),
                     certain_answers_request(lib_fp, ok_tree, ok_query)])

        slots = run(scenario())
        assert slots[0].failed and isinstance(slots[0].error, ChaseError)
        assert slots[1].ok
