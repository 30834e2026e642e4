"""The serving layer: registry, router and the async facade.

Covers admission/lazy compilation/LRU eviction of compiled settings,
order-preserving mixed-batch routing, executor parity and the per-setting
isolation of the bounded result caches.  (Error propagation has its own
file, ``test_service_errors.py``; the JSON-lines server has
``test_service_server.py``.)
"""

import asyncio
import threading

import pytest

from repro import DTD, DataExchangeSetting, ExchangeEngine, std
from repro.service import (SERVICE_EXECUTORS, AsyncExchangeService,
                           ExchangeRequest, Router, SettingRegistry,
                           UnknownSettingError,
                           certain_answers_request, classify_request,
                           consistency_request, solve_request)
from repro.workloads import library, nested_relational


@pytest.fixture
def company_pair(company_setting):
    tree = nested_relational.generate_company_source(2, employees_per_dept=2,
                                                     projects_per_dept=1)
    query = nested_relational.query_projects_of("Dept-0")
    return company_setting, tree, query


@pytest.fixture
def library_pair(library_setting):
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    return library_setting, tree, query


class TestRequests:
    def test_validation(self, library_setting):
        fingerprint = library_setting.fingerprint()
        with pytest.raises(ValueError, match="unknown operation"):
            ExchangeRequest("frobnicate", fingerprint)
        with pytest.raises(ValueError, match="source tree"):
            ExchangeRequest("solve", fingerprint)
        with pytest.raises(ValueError, match="query"):
            ExchangeRequest("certain_answers", fingerprint,
                            tree=library.figure_1_source())

    def test_helpers_set_op(self, library_pair):
        setting, tree, query = library_pair
        fingerprint = setting.fingerprint()
        assert consistency_request(fingerprint).op == "consistency"
        assert classify_request(fingerprint).op == "classify"
        assert solve_request(fingerprint, tree).op == "solve"
        request = certain_answers_request(fingerprint, tree, query, ["w"])
        assert request.op == "certain_answers"
        assert request.variable_order == ("w",)


class TestSettingRegistry:
    def test_register_returns_fingerprint_and_is_idempotent(
            self, library_setting):
        registry = SettingRegistry()
        fingerprint = registry.register(library_setting)
        assert fingerprint == library_setting.fingerprint()
        assert registry.register(library.library_setting()) == fingerprint
        assert len(registry) == 1
        assert fingerprint in registry

    def test_compilation_is_lazy(self, library_setting):
        registry = SettingRegistry()
        fingerprint = registry.register(library_setting)
        assert registry.stats()["compiled_entries"] == 0
        shard = registry.shard(fingerprint)
        assert registry.stats()["compiled_entries"] == 1
        assert registry.shard(fingerprint) is shard  # cached, same shard
        stats = registry.stats()
        assert stats["compiled_hits"] == 1
        assert stats["compiled_misses"] == 1

    def test_unknown_fingerprint_raises(self):
        registry = SettingRegistry()
        with pytest.raises(UnknownSettingError, match="no setting registered"):
            registry.shard("f" * 64)
        with pytest.raises(UnknownSettingError):
            registry.setting("f" * 64)

    def test_compiled_lru_evicts_but_settings_survive(
            self, library_setting, company_setting, figure_6_setting):
        registry = SettingRegistry(max_compiled=2)
        keys = [registry.register(setting) for setting in
                (library_setting, company_setting, figure_6_setting)]
        registry.shard(keys[0])
        registry.shard(keys[1])
        registry.shard(keys[0])          # refresh: keys[1] is now the LRU
        registry.shard(keys[2])          # evicts keys[1]
        assert registry.compiled_fingerprints() == [keys[0], keys[2]]
        assert registry.stats()["compiled_evictions"] == 1
        # The evicted setting is still registered: the next request simply
        # recompiles it (counted as a fresh miss).
        misses = registry.stats()["compiled_misses"]
        shard = registry.shard(keys[1])
        assert shard.fingerprint == keys[1]
        assert registry.stats()["compiled_misses"] == misses + 1

    def test_len_and_contains_under_concurrent_register(self):
        """Regression: __len__/__contains__ read the settings map without
        the registry lock.  Hammer both while registrations mutate the map
        and assert nothing raises and the final view is exact."""
        def tiny(i):
            source = DTD("db", {"db": f"r{i}*", f"r{i}": ""},
                         {f"r{i}": ["v"]})
            target = DTD("t", {"t": f"a{i}*", f"a{i}": ""}, {f"a{i}": ["v"]})
            return DataExchangeSetting(
                source, target, [std(f"t[a{i}(@v=x)]", f"db[r{i}(@v=x)]")])

        registry = SettingRegistry()
        settings = [tiny(i) for i in range(24)]
        errors = []

        def register_chunk(chunk):
            try:
                for setting in chunk:
                    registry.register(setting)
            except BaseException as error:  # pragma: no cover - regression
                errors.append(error)

        def poll():
            try:
                for _ in range(400):
                    count = len(registry)
                    assert 0 <= count <= len(settings)
                    ("f" * 64) in registry
            except BaseException as error:  # pragma: no cover - regression
                errors.append(error)

        threads = [threading.Thread(target=register_chunk,
                                    args=(settings[i::4],))
                   for i in range(4)]
        threads += [threading.Thread(target=poll) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(registry) == len(settings)
        for setting in settings:
            assert setting.fingerprint() in registry

    def test_failing_compile_counts_failures_not_misses(self,
                                                        library_setting,
                                                        monkeypatch):
        """Regression: _obtain charged compiled_misses/prewarm_compiles
        *before* compile_setting ran, so a raising compile permanently
        skewed those counters against shards that were never admitted."""
        from repro.service import registry as registry_module
        real = registry_module.compile_setting
        registry = SettingRegistry()
        fingerprint = registry.register(library_setting)

        def failing(setting):
            raise RuntimeError("compile exploded")

        monkeypatch.setattr(registry_module, "compile_setting", failing)
        with pytest.raises(RuntimeError, match="compile exploded"):
            registry.shard(fingerprint)
        with pytest.raises(RuntimeError, match="compile exploded"):
            registry.prewarm(fingerprint)
        stats = registry.stats()
        assert stats["compile_failures"] == 2
        assert stats["compiled_misses"] == 0
        assert stats["prewarm_compiles"] == 0
        assert stats["compiled_entries"] == 0
        # Recovery: the next request elects a new compile owner and the
        # success is counted exactly once.
        monkeypatch.setattr(registry_module, "compile_setting", real)
        registry.shard(fingerprint)
        stats = registry.stats()
        assert stats["compiled_misses"] == 1
        assert stats["compiled_entries"] == 1
        assert stats["compile_failures"] == 2  # unchanged

    def test_register_compiled_preseeds_the_shard(self, library_setting):
        from repro import compile_setting
        registry = SettingRegistry()
        fingerprint = registry.register(compile_setting(library_setting))
        assert registry.stats()["compiled_entries"] == 1
        assert registry.shard(fingerprint).engine.compiled.setting \
            is library_setting

    def test_result_caches_are_per_setting(self, library_pair, company_pair):
        """One tenant's traffic cannot evict another tenant's entries."""
        registry = SettingRegistry(result_cache_maxsize=2)
        lib_setting, lib_tree, lib_query = library_pair
        com_setting, com_tree, com_query = company_pair
        lib = registry.shard(registry.register(lib_setting))
        com = registry.shard(registry.register(com_setting))
        fingerprint = lib.fingerprint
        lib.execute(certain_answers_request(fingerprint, lib_tree, lib_query))
        # A flood on the company shard fills (and overflows) only its cache.
        for seed in range(4):
            tree = nested_relational.generate_company_source(
                1 + seed % 2, employees_per_dept=1 + seed // 2,
                projects_per_dept=1)
            com.execute(certain_answers_request(com.fingerprint, tree,
                                                com_query))
        assert com.stats()["result_cache_evictions"] >= 1
        assert lib.stats()["result_cache_evictions"] == 0
        # ... and the library entry is still warm.
        result = lib.execute(certain_answers_request(fingerprint, lib_tree,
                                                     lib_query))
        assert result.cache["result_cache_hits"] == 1

    def test_invalid_max_compiled_rejected(self):
        with pytest.raises(ValueError, match="max_compiled"):
            SettingRegistry(max_compiled=0)


class TestRouter:
    def test_submit_returns_a_settled_future(self, library_pair):
        """``Router.submit`` has ShardHost's call shape: the handle's
        ``result()`` is ``execute``'s payload, or re-raises its error."""
        setting, tree, query = library_pair
        registry = SettingRegistry()
        fingerprint = registry.register(setting)
        router = Router(registry)
        request = certain_answers_request(fingerprint, tree, query)
        handle = router.submit(request)
        assert handle.done()
        assert handle.result().payload == router.execute(request).payload
        with pytest.raises(UnknownSettingError):
            router.submit(consistency_request("f" * 64)).result()

    def test_wrong_shard_is_rejected(self, library_pair, company_pair):
        registry = SettingRegistry()
        lib_fp = registry.register(library_pair[0])
        com_fp = registry.register(company_pair[0])
        shard = registry.shard(lib_fp)
        with pytest.raises(ValueError, match="routed to"):
            shard.execute(consistency_request(com_fp))


class TestAsyncService:
    def test_single_requests_match_direct_engine(self, library_pair):
        setting, tree, query = library_pair
        direct = ExchangeEngine(setting)

        async def scenario():
            async with AsyncExchangeService(parallel=2) as service:
                fingerprint = service.register(setting)
                consistency = await service.check_consistency(fingerprint)
                classify = await service.classify(fingerprint)
                solved = await service.solve(fingerprint, tree)
                answers = await service.certain_answers(fingerprint, tree,
                                                        query)
                return consistency, classify, solved, answers

        consistency, classify, solved, answers = asyncio.run(scenario())
        assert consistency.payload == direct.check_consistency().payload
        assert classify.payload.tractable == direct.classify().payload.tractable
        assert solved.payload.equals(direct.solve(tree).payload,
                                     respect_order=False)
        assert answers.payload == direct.certain_answers(tree, query).payload

    @pytest.mark.parametrize("executor,parallel", [
        ("serial", 1), ("thread", 3), ("host", 2)])
    def test_mixed_batch_parity_across_executors(self, library_pair,
                                                 company_pair, executor,
                                                 parallel):
        lib_setting, lib_tree, lib_query = library_pair
        com_setting, com_tree, com_query = company_pair

        async def scenario():
            async with AsyncExchangeService(executor=executor,
                                            parallel=parallel) as service:
                lib_fp = service.register(lib_setting)
                com_fp = service.register(com_setting)
                requests = [
                    certain_answers_request(com_fp, com_tree, com_query),
                    certain_answers_request(lib_fp, lib_tree, lib_query),
                    consistency_request(lib_fp),
                    consistency_request(com_fp),
                    certain_answers_request(lib_fp, lib_tree, lib_query),
                ]
                return lib_fp, com_fp, await service.batch(requests)

        lib_fp, com_fp, slots = asyncio.run(scenario())
        # Slots keep submission order whatever order the groups ran in.
        assert [slot.index for slot in slots] == [0, 1, 2, 3, 4]
        assert [slot.fingerprint for slot in slots] == \
            [com_fp, lib_fp, lib_fp, com_fp, lib_fp]
        assert all(slot.ok for slot in slots)
        lib_direct = ExchangeEngine(lib_setting)
        com_direct = ExchangeEngine(com_setting)
        assert slots[0].result.payload == \
            com_direct.certain_answers(com_tree, com_query).payload
        assert slots[1].result.payload == \
            lib_direct.certain_answers(lib_tree, lib_query).payload
        assert slots[2].result.payload is True
        assert slots[3].result.payload is True
        # The duplicate request was a result-cache hit on the library shard.
        assert slots[4].result.cache["result_cache_hits"] >= 1

    def test_cancelled_batch_still_releases_its_quota(self, library_pair,
                                                      company_pair):
        """A group still queued on the executor when its batch is
        cancelled runs anyway, so the in-flight slots it holds return."""
        from repro.service import QuotaPolicy
        gate = threading.Event()

        async def scenario():
            async with AsyncExchangeService(
                    executor="thread", parallel=1,
                    quota=QuotaPolicy(max_in_flight=4)) as service:
                keys = [service.register(library_pair[0]),
                        service.register(company_pair[0])]
                submit = service.router.submit

                def held(request):  # the first group holds the one thread
                    gate.wait(timeout=30)
                    return submit(request)

                service.router.submit = held
                batch = asyncio.ensure_future(service.batch(
                    [consistency_request(key) for key in keys]))
                for _ in range(5):  # both groups reach the executor
                    await asyncio.sleep(0)
                batch.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await batch
                gate.set()
                for _ in range(1000):
                    if not any(map(service.registry.in_flight, keys)):
                        break
                    await asyncio.sleep(0.01)
                return [service.registry.in_flight(key) for key in keys]

        assert asyncio.run(scenario()) == [0, 0]

    def test_empty_batch(self, library_setting):
        async def scenario():
            async with AsyncExchangeService() as service:
                service.register(library_setting)
                return await service.batch([])
        assert asyncio.run(scenario()) == []

    def test_submit_after_close_is_refused(self, library_pair):
        setting, tree, query = library_pair

        async def scenario():
            service = AsyncExchangeService()
            fingerprint = service.register(setting)
            await service.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await service.check_consistency(fingerprint)

        asyncio.run(scenario())

    def test_invalid_executor_rejected(self):
        assert SERVICE_EXECUTORS == ("serial", "thread", "host")
        for name in ("fiber", "process"):
            with pytest.raises(ValueError, match="unknown service executor"):
                AsyncExchangeService(executor=name)

    def test_cache_bounds_with_explicit_registry_rejected(self):
        """Silently dropping the caller's bounds would defeat the knob."""
        with pytest.raises(ValueError, match="not both"):
            AsyncExchangeService(registry=SettingRegistry(),
                                 result_cache_maxsize=4)
        with pytest.raises(ValueError, match="not both"):
            AsyncExchangeService(registry=SettingRegistry(), max_compiled=2)

    def test_stats_shape(self, library_pair):
        setting, tree, query = library_pair

        async def scenario():
            async with AsyncExchangeService(parallel=2) as service:
                fingerprint = service.register(setting)
                await service.certain_answers(fingerprint, tree, query)
                return service.stats(), fingerprint

        stats, fingerprint = asyncio.run(scenario())
        assert stats["registry"]["settings_registered"] == 1
        assert stats["registry"]["compiled_entries"] == 1
        shard = stats["shards"][fingerprint]
        assert shard["requests"] == 1
        assert shard["errors"] == 0
        assert shard["result_cache_misses"] == 1
