"""ReproStore: the persistent corpus store and its fingerprint-first API.

Covers the columnar record codec (pre/post interval correctness included),
the store's durability contract (kill-mid-ingest crash safety, orphan-byte
reclaim), cross-process / cross-``PYTHONHASHSEED`` persistence, the
fingerprint-addressed engine and service paths (bit-identical to inline
trees), plan-warm restarts via persisted compiled settings, and the
consolidated ``register(prewarm=, persist=)`` keyword surface.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro import ExchangeEngine
from repro.engine.compiled import compile_setting
from repro.service import SettingRegistry, ShardHost
from repro.storage import (CorpusStore, StoreError, StoreReadOnlyError,
                           UnknownDocumentError)
from repro.storage.encoding import decode_document, encode_document
from repro.workloads import library
from repro.xmlmodel import XMLTree
from repro.xmlmodel.frozen import compute_pre_post


def _tree(size=4, seed=1):
    return library.generate_source(size, authors_per_book=2, seed=seed)


# --------------------------------------------------------------------- #
# Record codec
# --------------------------------------------------------------------- #

class TestEncoding:
    def test_roundtrip_columns(self):
        frozen = _tree().freeze()
        back = decode_document(memoryview(encode_document(frozen)))
        assert back.ordered == frozen.ordered
        assert back.n == frozen.n
        assert back.labels == frozen.labels
        assert back.label_names == frozen.label_names
        assert back.label_ids == frozen.label_ids
        assert back.parents == frozen.parents
        assert back.child_start == frozen.child_start
        assert back.child_end == frozen.child_end
        assert back.post_order == frozen.post_order
        assert back.attr_names == frozen.attr_names
        assert back.attr_tables == frozen.attr_tables
        assert back.nodes_by_label == frozen.nodes_by_label

    def test_roundtrip_fingerprint_via_thaw(self):
        tree = _tree(size=3, seed=7)
        frozen = tree.freeze()
        back = decode_document(memoryview(encode_document(frozen)))
        # The decoder does not trust the record for the fingerprint; a
        # from-scratch rehash of the thawed tree must reproduce it.
        assert back.thaw().fingerprint() == tree.fingerprint()

    def test_roundtrip_null_attributes(self):
        # Solution trees carry nulls; the codec must round-trip them.
        from repro.xmlmodel.values import Null
        tree = XMLTree("r")
        node = tree.add_child(tree.root, "a")
        tree.set_attribute(node, "x", Null(7))
        tree.set_attribute(node, "y", "constant")
        back = decode_document(
            memoryview(encode_document(tree.freeze()))).thaw()
        attrs = back.attributes(next(iter(back.children(back.root))))
        assert attrs["x"] == Null(7)
        assert attrs["y"] == "constant"
        assert back.fingerprint() == tree.fingerprint()

    def test_pre_post_accelerator_invariant(self):
        """v is a proper ancestor of w  iff  pre(v) < pre(w) and
        post(v) > post(w) — the XPath-accelerator contract the interval
        columns exist for."""
        for seed in range(3):
            frozen = _tree(size=3, seed=seed).freeze()
            pre, post = compute_pre_post(frozen.child_start,
                                         frozen.child_end, frozen.n)
            ancestors = set()
            for w in range(frozen.n):
                v = frozen.parents[w]
                while v >= 0:
                    ancestors.add((v, w))
                    v = frozen.parents[v]
            for v in range(frozen.n):
                for w in range(frozen.n):
                    interval = pre[v] < pre[w] and post[v] > post[w]
                    assert interval == ((v, w) in ancestors)
            # pre and post are permutations of 0..n-1.
            assert sorted(pre) == list(range(frozen.n))
            assert sorted(post) == list(range(frozen.n))

    def test_decoded_intervals_match_the_plane(self):
        frozen = _tree(size=2, seed=3).freeze()
        record = memoryview(encode_document(frozen))
        pre, post = decode_document(record).pre_post()
        assert (pre, post) == compute_pre_post(
            frozen.child_start, frozen.child_end, frozen.n)

    def test_deep_chain_is_iterative(self):
        tree = XMLTree("r")
        node = tree.root
        for _ in range(4000):
            node = tree.add_child(node, "r")
        back = decode_document(memoryview(encode_document(tree.freeze())))
        assert back.n == 4001
        assert back.pre_post()[0][0] == 0


# --------------------------------------------------------------------- #
# The store proper
# --------------------------------------------------------------------- #

class TestCorpusStore:
    def test_in_memory_roundtrip_and_counters(self):
        store = CorpusStore(None)
        tree = _tree()
        fingerprint = store.put_tree(tree)
        assert fingerprint == tree.fingerprint()
        assert store.has_tree(fingerprint)
        loaded = store.get_frozen(fingerprint)
        assert loaded.fingerprint() == fingerprint
        snapshot = store.stats.snapshot()
        assert snapshot["store_hits"] == 1
        assert snapshot["store_misses"] == 0
        assert snapshot["store_bytes"] > 0
        summary = store.summary()
        assert summary["store_documents"] == 1
        assert summary["store_nodes"] == len(tree)

    def test_unknown_fingerprint_is_typed(self):
        store = CorpusStore(None)
        with pytest.raises(UnknownDocumentError,
                           match="no document with fingerprint"):
            store.get_frozen("ab" * 32)
        error = None
        try:
            store.get_frozen("cd" * 32)
        except UnknownDocumentError as caught:
            error = caught
        assert error is not None and error.fingerprint == "cd" * 32
        assert isinstance(error, KeyError)
        assert store.stats.snapshot()["store_misses"] == 2

    def test_put_is_idempotent(self):
        store = CorpusStore(None)
        tree = _tree()
        first = store.put_tree(tree)
        again = store.put_tree(tree)
        assert first == again
        assert store.summary()["store_documents"] == 1

    def test_bulk_ingest_chunks_and_dedups(self, tmp_path):
        trees = [_tree(size=2, seed=seed) for seed in range(7)]
        trees.append(trees[0])  # in-batch duplicate
        with CorpusStore(tmp_path / "store", chunk_docs=3) as store:
            fingerprints = store.put_trees(trees)
            assert fingerprints == [t.fingerprint() for t in trees]
            assert store.summary()["store_documents"] == 7
            assert store.tree_fingerprints() == fingerprints[:7]

    def test_on_disk_survives_reopen(self, tmp_path):
        path = tmp_path / "store"
        tree = _tree()
        with CorpusStore(path) as store:
            fingerprint = store.put_tree(tree)
        with CorpusStore(path, read_only=True) as reader:
            assert reader.get_frozen(fingerprint).fingerprint() == fingerprint
            with pytest.raises(StoreReadOnlyError):
                reader.put_tree(tree)
            with pytest.raises(StoreReadOnlyError):
                reader.put_setting(library.library_setting())

    def test_read_only_needs_existing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no store at"):
            CorpusStore(tmp_path / "absent", read_only=True)
        with pytest.raises(ValueError):
            CorpusStore(None, read_only=True)

    def test_reader_sees_committed_writes_live(self, tmp_path):
        """Single writer, many readers: a read-only handle opened before an
        ingest observes it on its next query (no reopen)."""
        path = tmp_path / "store"
        writer = CorpusStore(path)
        first = writer.put_tree(_tree(seed=1))
        reader = CorpusStore(path, read_only=True)
        assert reader.has_tree(first)
        second = writer.put_tree(_tree(seed=2))
        assert reader.get_frozen(second).fingerprint() == second
        writer.close()
        reader.close()

    def test_orphan_heap_bytes_are_reclaimed(self, tmp_path):
        """Bytes appended past the committed data_end (a killed ingest's
        leavings) are truncated by the next writable open and never reach
        a reader."""
        path = tmp_path / "store"
        with CorpusStore(path) as store:
            fingerprint = store.put_tree(_tree())
            committed = store.summary()["store_data_bytes"]
        heap = path / "trees.bin"
        with open(heap, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 64)  # torn, uncommitted
        with CorpusStore(path) as store:
            assert os.path.getsize(heap) == committed
            assert store.get_frozen(fingerprint).fingerprint() == fingerprint
            other = store.put_tree(_tree(seed=9))
            assert store.get_frozen(other).fingerprint() == other

    def test_setting_roundtrip(self, tmp_path, library_setting):
        path = tmp_path / "store"
        with CorpusStore(path) as store:
            fingerprint = store.put_setting(library_setting, prewarm=True)
            assert fingerprint == library_setting.fingerprint()
        with CorpusStore(path, read_only=True) as reader:
            stored = reader.get_setting(fingerprint)
            assert stored.prewarm is True
            assert stored.compiled.setting.fingerprint() == fingerprint
            assert [s.fingerprint for s in reader.settings()] == [fingerprint]
            with pytest.raises(UnknownDocumentError):
                reader.get_setting("ef" * 32)


_CHILD_WRITER = textwrap.dedent("""
    import sys
    from repro.storage import CorpusStore
    from repro.workloads import library

    store = CorpusStore(sys.argv[1])
    tree = library.generate_source(3, authors_per_book=2, seed=11)
    fingerprint = store.put_tree(tree)
    store.put_setting(library.library_setting(), prewarm=True)
    store.close()
    print(fingerprint)
""")

_CHILD_KILL_TARGET = textwrap.dedent("""
    import sys
    from repro.storage import CorpusStore
    from repro.workloads import library

    store = CorpusStore(sys.argv[1], chunk_docs=1)
    seed = 0
    while True:
        seed += 1
        store.put_tree(library.generate_source(2, authors_per_book=2,
                                               seed=seed))
        print(seed, flush=True)
""")


class TestCrossProcess:
    def _run_child(self, program, *args, hash_seed="0"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run(
            [sys.executable, "-c", program, *map(str, args)],
            capture_output=True, text=True, env=env, check=True, timeout=120)

    def test_store_written_elsewhere_reads_here(self, tmp_path):
        """A store written by another process — under a different
        PYTHONHASHSEED — resolves the same fingerprints here: nothing
        hash-randomized leaks into the record format or the catalog keys."""
        path = tmp_path / "store"
        child = self._run_child(_CHILD_WRITER, path, hash_seed="12345")
        fingerprint = child.stdout.strip().splitlines()[-1]
        tree = library.generate_source(3, authors_per_book=2, seed=11)
        assert fingerprint == tree.fingerprint()
        with CorpusStore(path, read_only=True) as store:
            loaded = store.get_frozen(fingerprint)
            assert loaded.fingerprint() == fingerprint
            assert store.get_setting(
                library.library_setting().fingerprint()).prewarm is True

    def test_kill_mid_ingest_never_corrupts(self, tmp_path):
        """SIGKILL a bulk ingest mid-flight, then reopen: every committed
        document decodes, the catalog and heap agree, and the store accepts
        further writes.  Repeated for good measure."""
        path = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        survivors = 0
        for round_no in range(2):
            process = subprocess.Popen(
                [sys.executable, "-c", _CHILD_KILL_TARGET, str(path)],
                stdout=subprocess.PIPE, text=True, env=env)
            committed = 0
            for line in process.stdout:
                committed = int(line)
                if committed >= 4 * (round_no + 1):
                    break
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            process.stdout.close()
            with CorpusStore(path) as store:
                fingerprints = store.tree_fingerprints()
                # Everything the child reported committed must be there;
                # at most one in-flight chunk on top.
                assert len(fingerprints) >= committed >= survivors
                for fingerprint in fingerprints:
                    loaded = store.get_frozen(fingerprint)
                    assert loaded.fingerprint() == fingerprint
                assert store.summary()["store_data_bytes"] == \
                    os.path.getsize(path / "trees.bin")
                survivors = len(fingerprints)
                extra = store.put_tree(_tree(seed=999))
                assert store.get_frozen(extra).fingerprint() == extra
                survivors += 1


# --------------------------------------------------------------------- #
# Engine: fingerprint-addressed requests
# --------------------------------------------------------------------- #

class TestEngineStore:
    def test_resolution_without_store_is_typed(self, library_setting):
        engine = ExchangeEngine(compile_setting(library_setting))
        with pytest.raises(StoreError, match="cannot resolve"):
            engine.solve("ab" * 32)

    def test_fp_and_inline_share_result_cache_key(self, library_setting):
        engine = ExchangeEngine(compile_setting(library_setting))
        store = engine.attach_store(CorpusStore(None))
        tree = _tree()
        fingerprint = store.put_tree(tree)
        query, order = library.query_writer_of("Book-0"), ["w"]
        inline = engine.certain_answers(tree, query, order)
        by_fp = engine.certain_answers(fingerprint, query, order)
        assert by_fp.payload == inline.payload
        assert engine.stats["result_cache_hits"] == 1  # same key, no rerun

    def test_store_counters_in_stats_and_results(self, library_setting):
        engine = ExchangeEngine(compile_setting(library_setting))
        store = engine.attach_store(CorpusStore(None))
        fingerprint = store.put_tree(_tree())
        result = engine.solve(fingerprint)
        assert result.ok
        assert result.cache["store_hits"] == 1
        assert result.cache["store_bytes"] > 0
        bytes_after_first = engine.stats["store_bytes"]
        engine.solve(fingerprint)  # thawed-tree LRU: a hit, no heap read
        assert engine.stats["store_hits"] == 2
        assert engine.stats["store_bytes"] == bytes_after_first
        stats = engine.stats
        assert stats["store_hits"] == 2
        assert stats["store_misses"] == 0
        assert stats["store_bytes"] == bytes_after_first

    def test_unknown_document_surfaces_through_engine(self, library_setting):
        engine = ExchangeEngine(compile_setting(library_setting))
        engine.attach_store(CorpusStore(None))
        with pytest.raises(UnknownDocumentError):
            engine.solve("ab" * 32)
        assert engine.stats["store_misses"] == 1

    def test_parity_sweep_fp_vs_inline(self, library_setting):
        """Property sweep: for a spread of generated documents, the
        fingerprint-addressed path is bit-identical to the inline path —
        same certain answers, same canonical solution fingerprint —
        computed by *separate* engines so nothing is served from a shared
        result cache."""
        compiled = compile_setting(library_setting)
        query, order = library.query_writer_of("Book-0"), ["w"]
        for seed in range(5):
            tree = _tree(size=2 + seed % 3, seed=seed)
            inline_engine = ExchangeEngine(compiled)
            fp_engine = ExchangeEngine(compiled)
            store = fp_engine.attach_store(CorpusStore(None))
            fingerprint = store.put_tree(tree)
            inline_solution = inline_engine.solve(tree)
            fp_solution = fp_engine.solve(fingerprint)
            assert fp_solution.payload.fingerprint() == \
                inline_solution.payload.fingerprint()
            inline_answers = inline_engine.certain_answers(tree, query, order)
            fp_answers = fp_engine.certain_answers(fingerprint, query, order)
            assert fp_answers.payload == inline_answers.payload

    def test_batch_accepts_fingerprints(self, library_setting):
        engine = ExchangeEngine(compile_setting(library_setting))
        store = engine.attach_store(CorpusStore(None))
        trees = [_tree(seed=seed) for seed in (1, 2)]
        fingerprints = store.put_trees(trees)
        query = library.query_writer_of("Book-0")
        mixed = [trees[0], fingerprints[1]]
        results = engine.certain_answers_batch(mixed, query)
        pure = ExchangeEngine(compile_setting(library_setting))
        expected = [pure.certain_answers(tree, query).payload
                    for tree in trees]
        assert [r.payload for r in results] == expected
        for solved, tree in zip(engine.solve_batch(mixed), trees):
            assert solved.ok
            assert solved.payload.equals(pure.solve(tree).payload,
                                         respect_order=False)


class TestStoredReadView:
    """A stored document is decoded once, into the snapshot the engine
    reads: nothing re-freezes or thaws it on the request path."""

    @pytest.fixture
    def snapshots_built(self, monkeypatch):
        from repro.xmlmodel.frozen import FrozenTree

        built = []
        from_tree = FrozenTree.from_tree.__func__

        def counting(cls, tree):
            built.append(tree)
            return from_tree(cls, tree)

        monkeypatch.setattr(FrozenTree, "from_tree", classmethod(counting))
        return built

    @pytest.fixture
    def thaws(self, monkeypatch):
        from repro.xmlmodel.frozen import FrozenTree

        thawed = []
        thaw = FrozenTree.thaw

        def counting(frozen):
            thawed.append(frozen)
            return thaw(frozen)

        monkeypatch.setattr(FrozenTree, "thaw", counting)
        return thawed

    def test_get_frozen_hands_over_the_decoded_record(self, monkeypatch,
                                                      snapshots_built):
        from repro.storage import store as store_module

        decoded = []

        def recording(record):
            decoded.append(decode_document(record))
            return decoded[-1]

        monkeypatch.setattr(store_module, "decode_document", recording)
        store = CorpusStore(None)
        tree = _tree()
        fingerprint = store.put_tree(tree)
        del snapshots_built[:]
        frozen = store.get_frozen(fingerprint)
        assert frozen is decoded[0]
        assert frozen.freeze() is frozen
        loaded = frozen.thaw()
        assert loaded.freeze() is decoded[0]
        assert loaded.fingerprint() == fingerprint
        assert list(loaded.nodes()) == list(tree.nodes())
        assert snapshots_built == []

    def test_conformance_on_a_stored_document_names_stored_idents(self):
        dtd = library.source_dtd()
        tree = XMLTree.build(("db", [
            ("book", {"title": "B1"}, [("author", {"name": "A"})]),
            ("book", {"title": "B2"})]))
        author = tree.children(tree.children(tree.root)[0])[0]
        store = CorpusStore(None)
        stored = store.get_frozen(store.put_tree(tree))
        violations = dtd.conformance_violations(stored)
        assert violations == dtd.conformance_violations(tree)
        assert violations == [
            f"node {author} (author): attributes ['name'] do not match "
            "R(author) = ['aff', 'name']"]

    def test_snapshots_per_certain_answers_miss(self, library_setting,
                                                snapshots_built, thaws):
        """By fingerprint, and inline from the wire, the source is read as
        the snapshot it was decoded into: only the canonical solution is
        frozen, and nothing is thawed.  An inline ``XMLTree`` is frozen
        too."""
        from repro.service.protocol import frozen_from_wire, tree_to_wire

        compiled = compile_setting(library_setting)
        query, order = library.query_writer_of("Book-0"), ["w"]
        store = CorpusStore(None)
        fingerprint = store.put_tree(_tree())
        by_fp = ExchangeEngine(compiled)
        by_fp.attach_store(store)
        del snapshots_built[:]
        by_fp.certain_answers(fingerprint, query, order)
        assert len(snapshots_built) == 1
        assert thaws == []
        wired = frozen_from_wire(tree_to_wire(_tree()))
        del snapshots_built[:]
        ExchangeEngine(compiled).certain_answers(wired, query, order)
        assert len(snapshots_built) == 1
        assert thaws == []
        del snapshots_built[:]
        ExchangeEngine(compiled).certain_answers(_tree(), query, order)
        assert len(snapshots_built) == 2


# --------------------------------------------------------------------- #
# Registry / host persistence and plan-warm restore
# --------------------------------------------------------------------- #

class TestRegistryPersistence:
    def test_persist_requires_store(self, library_setting):
        registry = SettingRegistry()
        with pytest.raises(StoreError, match="persist=True"):
            registry.register(library_setting, persist=True)
        # Refused before admission: no setting, no registration-quota slot.
        assert len(registry) == 0
        assert library_setting.fingerprint() not in registry

    @pytest.mark.parametrize("host", [False, True],
                             ids=["in-process", "host"])
    def test_service_refused_persist_admits_nothing(self, library_setting,
                                                    host):
        import asyncio

        from repro.service import AsyncExchangeService, UnknownSettingError

        fingerprint = library_setting.fingerprint()

        async def scenario():
            service = (AsyncExchangeService(executor="host", workers=1)
                       if host else
                       AsyncExchangeService(registry=SettingRegistry(),
                                            executor="serial"))
            async with service:
                with pytest.raises(StoreError, match="persist=True"):
                    service.register(library_setting, persist=True)
                assert service.stats()["registry"][
                    "settings_registered"] == 0
                assert fingerprint not in service.registry
                with pytest.raises(UnknownSettingError):
                    await service.check_consistency(fingerprint)

        asyncio.run(scenario())

    def test_persist_compiles_under_prewarm_accounting(
            self, tmp_path, library_setting):
        registry = SettingRegistry(store=tmp_path / "store")
        fingerprint = registry.register(library_setting, persist=True)
        stats = registry.stats()
        assert stats["compiled_misses"] == 0
        assert stats["prewarm_compiles"] == 1
        assert registry.store.get_setting(fingerprint).prewarm is False
        # The persisted pickle answers like a fresh compile.
        stored = registry.store.get_setting(fingerprint)
        registry.close()
        engine = ExchangeEngine(stored.compiled)
        assert engine.check_consistency().payload is True

    def test_restore_into_a_registry_boots_plan_warm(self, tmp_path,
                                                     library_setting):
        path = tmp_path / "store"
        first = SettingRegistry(store=path)
        fingerprint = first.register(library_setting, persist=True,
                                     prewarm=True)
        tree_fp = first.store.put_tree(_tree())
        first.close()  # closes the store it opened from the path
        with pytest.raises(StoreError, match="closed"):
            first.store.put_tree(_tree())

        # "Restart": a brand-new service over the same directory.
        from repro.service import AsyncExchangeService
        service = AsyncExchangeService(registry=SettingRegistry(store=path),
                                       executor="serial")
        registry = service.registry
        assert service.restore_settings() == [fingerprint]
        stats = registry.stats()
        assert stats["compiled_misses"] == 0
        assert stats["prewarm_hits"] >= 1
        # First request after restore: compiled_hits, and the document is
        # resolved from disk through the shard's engine.
        request_answers = registry.shard(fingerprint).engine.certain_answers(
            tree_fp, library.query_writer_of("Book-0"), ["w"])
        assert request_answers.payload == {("Author-1",), ("Author-2",)}
        stats = registry.stats()
        assert stats["compiled_misses"] == 0
        assert stats["compiled_hits"] >= 1
        assert stats["store_hits"] >= 1
        assert stats["store_bytes"] > 0
        service.close()

    def test_registry_stats_overlay_store_counters(self, tmp_path,
                                                   library_setting):
        registry = SettingRegistry(store=tmp_path / "store")
        stats = registry.stats()
        registry.close()
        assert stats["store_hits"] == 0
        assert stats["store_misses"] == 0
        assert stats["store_bytes"] == 0

    def test_a_store_passed_in_stays_the_callers(self, tmp_path):
        """Registry, host and service close only a store they opened from
        a path; a ``CorpusStore`` handed to them stays open."""
        from repro.service import AsyncExchangeService
        with CorpusStore(tmp_path / "store") as store:
            SettingRegistry(store=store).close()
            ShardHost(workers=1, store=store).close()
            AsyncExchangeService(store=store, executor="serial").close()
            fingerprint = store.put_tree(_tree())
            assert store.get_frozen(fingerprint).fingerprint() == fingerprint

    def test_shard_host_requires_on_disk_store(self):
        with pytest.raises(ValueError, match="in-memory"):
            ShardHost(workers=1, store=CorpusStore(None))

    def test_shard_host_restore_and_fp_requests(self, tmp_path,
                                                library_setting):
        from repro.service.requests import certain_answers_request
        path = tmp_path / "store"
        seed_store = CorpusStore(path)
        tree_fp = seed_store.put_tree(_tree())
        seed_store.put_setting(compile_setting(library_setting),
                               prewarm=True)
        seed_store.close()

        with ShardHost(workers=1, store=path) as host:
            restored = [host.register(item.compiled, prewarm=True)
                        for item in host.store.settings()]
            assert restored == [library_setting.fingerprint()]
            result = host.execute(certain_answers_request(
                restored[0], tree_fp, library.query_writer_of("Book-0"),
                ["w"]))
            assert result.payload == {("Author-1",), ("Author-2",)}
            stats = host.stats()["registry"]
            assert stats["compiled_misses"] == 0
            assert stats["prewarm_hits"] >= 1
            assert stats["store_hits"] >= 1


# --------------------------------------------------------------------- #
# The consolidated register() surface
# --------------------------------------------------------------------- #

class TestRegisterConsolidation:
    """``prewarm``/``persist`` are keyword-only on every register surface:
    a positional flag is a TypeError and admits nothing, while the keyword
    form still registers (and prewarms)."""

    def test_registry_positional_flag_raises_and_keyword_prewarms(
            self, library_setting):
        registry = SettingRegistry()
        with pytest.raises(TypeError):
            registry.register(library_setting, True)
        assert len(registry) == 0
        fingerprint = registry.register(library_setting, prewarm=True)
        assert fingerprint == library_setting.fingerprint()
        assert registry.stats()["compiled_entries"] == 1

    def test_service_positional_flag_raises(self, library_setting):
        import asyncio

        from repro.service import AsyncExchangeService

        async def scenario():
            async with AsyncExchangeService(executor="serial") as service:
                with pytest.raises(TypeError):
                    service.register(library_setting, True)
                assert len(service.registry) == 0
                service.register(library_setting, prewarm=True)
                return service.stats()["registry"]["compiled_entries"]

        assert asyncio.run(scenario()) == 1

    def test_host_positional_flag_raises(self, library_setting):
        with ShardHost(workers=1) as host:
            with pytest.raises(TypeError):
                host.register(library_setting, True)
            assert host.fingerprints() == []
            fingerprint = host.register(library_setting, prewarm=True)
            assert fingerprint == library_setting.fingerprint()
            assert host.stats()["registry"]["prewarm_compiles"] == 1

    def test_client_positional_flag_raises(self, library_setting):
        from repro.service.client import ServiceClient
        from repro.service.server import serve_in_background

        port, _server, join = serve_in_background(parallel=2)
        with ServiceClient("127.0.0.1", port) as client:
            with pytest.raises(TypeError):
                client.register(library_setting, True)
            assert client.stats()["registry"]["settings_registered"] == 0
            assert client.shutdown()
        join()

    def test_keyword_form_does_not_warn(self, recwarn, library_setting):
        registry = SettingRegistry()
        registry.register(library_setting, prewarm=True)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


# --------------------------------------------------------------------- #
# Service-level store integration
# --------------------------------------------------------------------- #

class TestServiceStore:
    def test_put_tree_and_fp_requests_default_store(self, library_setting):
        """Without any store configured, the service still accepts
        put_tree (ephemeral in-memory store) and fp-addressed requests."""
        import asyncio

        from repro.service import AsyncExchangeService

        async def scenario():
            async with AsyncExchangeService(executor="serial") as service:
                fingerprint = service.register(library_setting)
                tree = _tree()
                tree_fp = await service.put_tree(tree)
                assert tree_fp == tree.fingerprint()
                by_fp = await service.certain_answers(
                    fingerprint, tree_fp,
                    library.query_writer_of("Book-0"), ["w"])
                inline = await service.certain_answers(
                    fingerprint, tree,
                    library.query_writer_of("Book-0"), ["w"])
                assert by_fp.payload == inline.payload
                stats = service.stats()["registry"]
                assert stats["store_hits"] >= 1
                with pytest.raises(UnknownDocumentError):
                    await service.solve(fingerprint, "ab" * 32)
                return by_fp.payload

        assert asyncio.run(scenario()) == {("Author-1",), ("Author-2",)}

    @pytest.mark.parametrize("mode", [{"executor": "serial"},
                                      {"executor": "host", "workers": 1}],
                             ids=["serial", "host"])
    def test_service_restore_settings(self, tmp_path, library_setting, mode):
        import asyncio

        from repro.service import AsyncExchangeService

        path = tmp_path / "store"

        async def persist():
            async with AsyncExchangeService(executor="serial",
                                            store=path) as service:
                fingerprint = service.register(library_setting, persist=True)
                tree_fp = await service.put_tree(_tree())
                return fingerprint, tree_fp

        fingerprint, tree_fp = asyncio.run(persist())

        async def restart():
            async with AsyncExchangeService(store=path, **mode) as service:
                assert service.restore_settings() == [fingerprint]
                result = await service.certain_answers(
                    fingerprint, tree_fp,
                    library.query_writer_of("Book-0"), ["w"])
                stats = service.stats()["registry"]
                assert stats["compiled_misses"] == 0
                assert stats["prewarm_hits"] >= 1
                assert stats["store_hits"] >= 1
                return result.payload

        assert asyncio.run(restart()) == {("Author-1",), ("Author-2",)}

    def test_host_restore_unpickles_each_setting_once(self, tmp_path,
                                                      library_setting,
                                                      monkeypatch):
        """Host-mode restore reads every stored setting in the one
        ``settings()`` pass; a second per-fingerprint ``get_setting``
        would unpickle each compiled setting twice."""
        import asyncio

        from repro.service import AsyncExchangeService

        path = tmp_path / "store"
        with CorpusStore(path) as store:
            store.put_setting(compile_setting(library_setting), prewarm=True)

        def refuse(self, fingerprint):
            raise AssertionError("restore must not call get_setting")

        monkeypatch.setattr(CorpusStore, "get_setting", refuse)

        async def restart():
            async with AsyncExchangeService(executor="host", workers=1,
                                            store=path) as service:
                restored = service.restore_settings()
                result = await service.check_consistency(restored[0])
                return restored, result.payload

        assert asyncio.run(restart()) == (
            [library_setting.fingerprint()], True)

    def test_explicit_registry_and_store_conflict(self, library_setting):
        from repro.service import AsyncExchangeService

        with pytest.raises(ValueError, match="not both"):
            AsyncExchangeService(registry=SettingRegistry(),
                                 store=CorpusStore(None))


# --------------------------------------------------------------------- #
# Stores written by earlier versions
# --------------------------------------------------------------------- #

class TestOldStore:
    """``tests/fixtures/old_store`` was written by an earlier version (see
    its README): one persisted library setting and one stored tree.  Its
    pickles name that version's classes and fields, so it must keep
    booting plan-warm as they change."""

    def test_old_store_restores_plan_warm(self, tmp_path):
        import asyncio
        import shutil
        from pathlib import Path

        from repro.service import AsyncExchangeService

        path = tmp_path / "store"
        shutil.copytree(Path(__file__).parent / "fixtures" / "old_store",
                        path)

        async def restart():
            async with AsyncExchangeService(executor="serial",
                                            store=path) as service:
                restored = service.restore_settings()
                assert restored == [library.library_setting().fingerprint()]
                result = await service.certain_answers(
                    restored[0], _tree().fingerprint(),
                    library.query_writer_of("Book-0"), ["w"])
                stats = service.stats()["registry"]
                assert stats["compiled_misses"] == 0
                assert stats["prewarm_hits"] >= 1
                return result.payload

        assert asyncio.run(restart()) == {("Author-1",), ("Author-2",)}

    def test_old_store_answers_a_general_consistency_check(self, tmp_path):
        """The old pickle memoised skeletons per enumeration cap (a dict);
        loading drops it, so the general procedure re-enumerates."""
        import asyncio
        import shutil
        from pathlib import Path

        from repro.service import AsyncExchangeService

        path = tmp_path / "store"
        shutil.copytree(Path(__file__).parent / "fixtures" / "old_store",
                        path)

        async def restart():
            async with AsyncExchangeService(executor="serial",
                                            store=path) as service:
                restored = service.restore_settings()
                result = await service.check_consistency(restored[0],
                                                         "general")
                return result.strategy, result.payload

        assert asyncio.run(restart()) == ("general", True)

    def test_old_pickled_trees_keep_their_fingerprints(self, tmp_path):
        """``tests/fixtures/old_store_skeletons`` persisted a setting whose
        nested-relational skeleton trees were pickled with the old
        fingerprint cache and no snapshot attribute."""
        import asyncio
        import shutil
        from pathlib import Path

        from repro.exchange import check_consistency
        from repro.service import AsyncExchangeService

        path = tmp_path / "store"
        shutil.copytree(
            Path(__file__).parent / "fixtures" / "old_store_skeletons", path)

        async def restart():
            async with AsyncExchangeService(executor="serial",
                                            store=path) as service:
                restored = service.restore_settings()
                consistency = await service.check_consistency(restored[0])
                answers = await service.certain_answers(
                    restored[0], _tree().fingerprint(),
                    library.query_writer_of("Book-0"), ["w"])
                compiled = service.registry.shard(restored[0]).engine.compiled
                assert consistency.payload is True
                witness = check_consistency(
                    compiled.setting, compiled=compiled).witness_source
                return witness, answers.payload

        witness, payload = asyncio.run(restart())
        assert witness.fingerprint() == (
            "d57f570e1f9a60fd10e39437b34a987a58e40cd44ec5868a89dfc2dc9d4eb3d7")
        assert payload == {("Author-1",), ("Author-2",)}
