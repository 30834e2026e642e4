"""Compiled query plans: slot mapping, lowering, evaluation, plan cache.

The generated property harness (tests/test_properties_generated.py) sweeps
plan-vs-interpreter parity across hundreds of scenarios; this file pins the
plan layer's *mechanics* — slot allocation and ∃-scoping, ``//`` lowering,
union alignment, the frozen-tree layout, and plan-cache hit/miss/eviction
accounting through the engine and the serving layer.
"""

import pickle

import pytest

from repro import CacheStats, ExchangeEngine, XMLTree, compile_setting
from repro.patterns import (PlanCache, compile_pattern, compile_query,
                            conjunction, descendant, exists, match_anywhere,
                            node, pattern_query, union_query, wildcard)
from repro.service import SettingRegistry
from repro.service.requests import ExchangeRequest
from repro.workloads import library


@pytest.fixture
def tree():
    return XMLTree.build(("db", [
        ("book", {"title": "B1"}, [("author", {"name": "A", "aff": "U"}),
                                   ("author", {"name": "B", "aff": "V"})]),
        ("book", {"title": "B2"}, [("author", {"name": "A", "aff": "W"})]),
        ("shelf", [("book", {"title": "B3"},
                    [("author", {"name": "C", "aff": "U"})])]),
    ]))


def _norm(assignments):
    return sorted(sorted(a.items(), key=lambda kv: kv[0])
                  for a in assignments)


class TestFrozenTree:
    def test_layout_invariants(self, tree):
        frozen = tree.freeze()
        assert len(frozen) == len(tree)
        assert frozen.label(0) == "db"
        assert frozen.parent(0) is None
        # BFS numbering: every child span is contiguous and below its parent.
        for pos in range(frozen.n):
            for child in frozen.children(pos):
                assert child > pos
                assert frozen.parent(child) == pos
        # Per-label index covers exactly the nodes carrying the label.
        for label in ("db", "book", "author", "shelf"):
            lid = frozen.label_id(label)
            assert lid >= 0
            index = frozen.nodes_by_label[lid]
            assert all(frozen.label(pos) == label for pos in index)
        assert len(frozen.nodes_by_label[frozen.label_id("book")]) == 3
        assert frozen.label_id("nowhere") == -1

    def test_attributes_and_snapshot_isolation(self, tree):
        frozen = tree.freeze()
        book = frozen.nodes_by_label[frozen.label_id("book")][0]
        assert frozen.attribute(book, "title") == "B1"
        assert frozen.attribute(book, "missing") is None
        assert frozen.attributes(book) == {"title": "B1"}
        fingerprint = frozen.fingerprint()
        assert fingerprint == tree.fingerprint()
        # Snapshot semantics: later mutations don't leak into the freeze.
        tree.set_attribute(tree.root, "note", "changed")
        assert frozen.attribute(0, "note") is None
        assert frozen.fingerprint() == fingerprint
        assert tree.fingerprint() != fingerprint

    def test_post_order_is_bottom_up(self, tree):
        frozen = tree.freeze()
        seen = set()
        for pos in frozen.post_order:
            for child in frozen.children(pos):
                assert child in seen
            seen.add(pos)
        assert seen == set(range(frozen.n))


class TestSlotMapping:
    def test_free_variables_keep_interpreter_order(self):
        query = pattern_query(node("db", None,
                                   node("book", {"title": "$t"},
                                        node("author", {"name": "$n"}))))
        plan = compile_query(query)
        assert list(plan.free_variables) == query.free_variables() == ["t", "n"]
        assert len(set(plan.free_slots)) == 2

    def test_conjunction_members_share_slots_by_name(self):
        left = pattern_query(node("db", None, node("book", {"title": "$x"})))
        right = pattern_query(
            node("db", None, node("book", {"title": "$x"},
                                  node("author", {"name": "$y"}))))
        plan = compile_query(conjunction(left, right))
        # One slot for x (the join), one for y.
        assert plan.width == 2
        assert sorted(plan.free_variables) == ["x", "y"]

    def test_exists_allocates_fresh_shadowing_slots(self):
        inner = pattern_query(node("db", None,
                                   node("book", {"title": "$x"},
                                        node("author", {"name": "$y"}))))
        shadowing = conjunction(
            pattern_query(node("db", None, node("book", {"title": "$x"}))),
            exists(["x"], pattern_query(
                node("db", None, node("book", {"title": "$x"},
                                      node("author", {"name": "$y"}))))))
        plan = compile_query(shadowing)
        # Three slots: the free x, the shadowed ∃x, and y.
        assert plan.width == 3
        assert sorted(plan.free_variables) == ["x", "y"]
        del inner

    def test_exists_parity_with_interpreter(self, tree):
        query = exists(["n"], pattern_query(
            node("book", {"title": "$t"}, node("author", {"name": "$n"}))))
        plan = compile_query(query)
        assert _norm(plan.evaluate(tree.freeze())) == _norm(query.evaluate(tree))
        assert plan.answers(tree.freeze()) == query.answers(tree)


class TestDescendantLowering:
    def test_descendant_matches_proper_descendants_only(self, tree):
        # //book(@title=t): the shelf's book is a descendant of the root,
        # so all three titles appear; the root itself never witnesses its
        # own label.
        pattern = descendant(node("book", {"title": "$t"}))
        plan = compile_pattern(pattern)
        got = {row[plan.slot_of("t")] for row in plan.matches(tree.freeze())}
        assert got == {"B1", "B2", "B3"}
        assert _norm(plan.assignments(tree.freeze())) == \
            _norm(match_anywhere(tree, pattern))

    def test_nested_descendant_under_child(self, tree):
        # db[//author(@aff=a)]: a descendant pattern as a child formula is
        # witnessed at a *child* of db having a proper descendant author —
        # only the shelf's author qualifies under shelf.
        pattern = node("db", None, descendant(node("author", {"aff": "$a"})))
        plan = compile_pattern(pattern)
        assert _norm(plan.assignments(tree.freeze())) == \
            _norm(match_anywhere(tree, pattern))

    def test_wildcard_descendant(self, tree):
        pattern = descendant(wildcard({"name": "$n"}))
        plan = compile_pattern(pattern)
        got = {row[plan.slot_of("n")] for row in plan.matches(tree.freeze())}
        assert got == {"A", "B", "C"}

    def test_absent_label_disables_op_at_bind_time(self, tree):
        plan = compile_pattern(node("nowhere", {"x": "$x"}))
        assert plan.matches(tree.freeze()) == ()


class TestUnionPlans:
    def test_union_members_align_on_free_slots(self, tree):
        by_title = exists(["n"], pattern_query(
            node("book", {"title": "$t"}, node("author", {"name": "$n"}))))
        anywhere = pattern_query(descendant(node("book", {"title": "$t"})))
        query = union_query(by_title, anywhere)
        plan = compile_query(query)
        frozen = tree.freeze()
        assert plan.answers(frozen) == query.answers(tree)
        assert plan.answers(frozen, ["t"]) == query.answers(tree, ["t"])

    def test_boolean_union(self, tree):
        query = union_query(
            exists(["t"], pattern_query(node("book", {"title": "$t"}))),
            exists(["z"], pattern_query(node("zine", {"title": "$z"}))))
        plan = compile_query(query)
        assert plan.holds(tree.freeze()) is query.holds(tree)
        assert plan.answers(tree.freeze()) == {()}


class TestPlanCache:
    def test_hit_miss_accounting(self):
        cache = PlanCache(CacheStats(), maxsize=8)
        query = library.query_writer_of("B")
        first = cache.get(query)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get(query) is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        # A given CacheStats records each event exactly once.
        shared = CacheStats()
        PlanCache(shared).get(query)
        assert shared.snapshot() == {"plan_cache_hits": 0,
                                     "plan_cache_misses": 1}

    def test_lru_eviction_accounting(self):
        cache = PlanCache(CacheStats(), maxsize=2)
        queries = [library.query_writer_of(title)
                   for title in ("A", "B", "C")]
        for query in queries:
            cache.get(query)
        assert cache.evictions == 1
        assert len(cache) == 2
        # The evicted (least recently used) entry recompiles: a miss.
        cache.get(queries[0])
        assert cache.misses == 4
        assert cache.snapshot() == {
            "plan_cache_hits": 0, "plan_cache_misses": 4,
            "plan_cache_evictions": 2, "plan_cache_entries": 2}
        with pytest.raises(ValueError):
            PlanCache(CacheStats(), maxsize=0)

    def test_unpickles_state_with_retired_fields(self, monkeypatch):
        """Caches pickled by older versions carry ``name``, ``_key``,
        ``_compiler`` and a ``_counters`` shadow copy, and keep their
        stats under ``_stats``; such a cache loads and serves."""
        from collections import Counter, OrderedDict

        from repro.patterns import plan as plan_module

        cached = library.query_writer_of("Computational Complexity")
        stats = CacheStats()
        old_state = {
            "maxsize": 8, "name": "plan_cache", "_stats": stats,
            "_key": plan_module._query_fingerprint,
            "_compiler": compile_query,
            "_plans": OrderedDict(
                [(cached.fingerprint(), compile_query(cached))]),
            "_counters": Counter({"plan_cache_misses": 1}),
        }
        monkeypatch.setattr(PlanCache, "__getstate__",
                            lambda self: dict(old_state))
        blob = pickle.dumps(PlanCache(CacheStats()))
        monkeypatch.undo()
        cache = pickle.loads(blob)
        assert sorted(vars(cache)) == sorted(vars(PlanCache(CacheStats())))
        assert len(cache) == 1 and cache.maxsize == 8
        tree = ExchangeEngine(library.library_setting()).solve(
            library.figure_1_source()).payload
        assert cache.get(cached).answers(tree.freeze()) == \
            cached.answers(tree) == {("Papadimitriou",)}
        fresh = library.query_writer_of("Combinatorial Optimization")
        cache.get(fresh)
        assert cache.snapshot() == {
            "plan_cache_hits": 1, "plan_cache_misses": 1,
            "plan_cache_evictions": 0, "plan_cache_entries": 2}
        assert pickle.loads(pickle.dumps(cache)).snapshot() == \
            cache.snapshot()

    def test_engine_surfaces_plan_cache_counters(self):
        engine = ExchangeEngine(library.library_setting(), result_cache=False)
        source = library.generate_source(3, authors_per_book=1, seed=1)
        query = library.query_writer_of("Book-0")
        first = engine.certain_answers(source, query)
        assert first.cache["plan_cache_misses"] == 1
        second = engine.certain_answers(source, query)
        # The acceptance invariant: second evaluation of any query on a
        # compiled setting never recompiles its plan.
        assert second.cache["plan_cache_misses"] == 1
        assert second.cache["plan_cache_hits"] >= 1
        stats = engine.stats
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_entries"] == 1
        assert stats["plan_cache_evictions"] == 0

    def test_result_cache_hits_bypass_plan_lookup(self):
        engine = ExchangeEngine(library.library_setting())
        source = library.generate_source(3, authors_per_book=1, seed=1)
        query = library.query_writer_of("Book-0")
        engine.certain_answers(source, query)
        before = engine.stats["plan_cache_hits"]
        engine.certain_answers(source, query)  # served from the result cache
        assert engine.stats["plan_cache_hits"] == before
        assert engine.stats["plan_cache_misses"] == 1

    def test_plans_shared_by_functional_and_engine_paths(self):
        from repro import certain_answers
        compiled = compile_setting(library.library_setting())
        engine = ExchangeEngine(compiled, result_cache=False)
        source = library.generate_source(3, authors_per_book=1, seed=1)
        query = library.query_writer_of("Book-0")
        engine.certain_answers(source, query)
        certain_answers(compiled.setting, source, query, compiled=compiled)
        assert engine.stats["plan_cache_misses"] == 1
        assert engine.stats["plan_cache_hits"] == 1


class TestServicePlanStats:
    def test_shard_and_registry_surface_plan_cache(self):
        registry = SettingRegistry()
        setting = library.library_setting()
        fingerprint = registry.register(setting)
        source = library.generate_source(3, authors_per_book=1, seed=1)
        query = library.query_writer_of("Book-0")
        request = ExchangeRequest(op="certain_answers",
                                  fingerprint=fingerprint, tree=source,
                                  query=query)
        shard = registry.shard(fingerprint)
        shard.execute(request)
        stats = shard.stats()
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_entries"] == 1
        fresh_tree = library.generate_source(3, authors_per_book=1, seed=2)
        shard.execute(ExchangeRequest(op="certain_answers",
                                      fingerprint=fingerprint,
                                      tree=fresh_tree, query=query))
        stats = shard.stats()
        assert stats["plan_cache_misses"] == 1  # plans are reused per shard
        assert stats["plan_cache_hits"] >= 1
        registry_stats = registry.stats()
        assert registry_stats["plan_cache_misses"] == 1
        assert registry_stats["plan_cache_hits"] >= 1
        assert registry_stats["plan_cache_entries"] == 1

    def test_shard_view_is_the_engine_view_plus_shard_fields(self):
        registry = SettingRegistry()
        fingerprint = registry.register(library.library_setting(),
                                        prewarm=True)
        source = library.generate_source(3, authors_per_book=1, seed=1)
        query = library.query_writer_of("Book-0")
        shard = registry.shard(fingerprint)
        for _ in range(2):
            shard.execute(ExchangeRequest(op="certain_answers",
                                          fingerprint=fingerprint,
                                          tree=source, query=query))
        engine_view = shard.engine.stats
        view = shard.stats()
        assert set(view) == set(engine_view) | {"requests", "errors",
                                                "prewarmed"}
        assert {name: view[name] for name in engine_view} == engine_view
        assert (view["requests"], view["errors"], view["prewarmed"]) == \
            (2, 0, True)
        # The key set does not depend on the deployment: with no store
        # attached the store counters are present and read 0.
        assert (view["store_hits"], view["store_misses"],
                view["store_bytes"]) == (0, 0, 0)

    def test_registry_plan_counters_survive_eviction(self):
        from repro.generators import generate_scenario
        registry = SettingRegistry(max_compiled=1)
        first = registry.register(library.library_setting())
        second = registry.register(
            generate_scenario(11, profile="nested_relational").setting)
        source = library.generate_source(3, authors_per_book=1, seed=1)
        query = library.query_writer_of("Book-0")
        registry.shard(first).execute(ExchangeRequest(
            op="certain_answers", fingerprint=first, tree=source,
            query=query))
        before = registry.stats()
        assert before["plan_cache_misses"] == 1
        registry.shard(second)  # evicts the first shard (max_compiled=1)
        after = registry.stats()
        # Monotonic: the evicted shard's counters are folded in, not lost.
        assert after["compiled_evictions"] == 1
        assert after["plan_cache_misses"] >= before["plan_cache_misses"]
        assert after["plan_cache_hits"] >= before["plan_cache_hits"]
        assert after["plan_cache_entries"] == 0  # live caches only
