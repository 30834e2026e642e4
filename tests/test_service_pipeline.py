"""Governed concurrent serving: pipelining, quotas, prewarming.

Covers the three serving-layer guarantees PR 4 introduced:

* **pipelining** — over one live connection, replies come back in
  *completion* order matched by id, so fast requests overtake a slow one
  submitted ahead of them; lock-step clients and pipelined servers (and
  vice versa) interoperate because reply matching is id-based on both
  sides;
* **quotas** — over-quota work is rejected deterministically with a typed
  :class:`QuotaExceededError`, await-side and over the wire, without
  touching admitted neighbours in the same batch or connection;
* **prewarming** — ``register(..., prewarm=True)`` compiles ahead, so the
  first request is a ``compiled_hits`` and ``compiled_misses`` stays 0.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro import ExchangeEngine
from repro.service import (AsyncExchangeService, QuotaExceededError,
                           QuotaPolicy, SettingRegistry,
                           certain_answers_request, consistency_request)
from repro.service.client import ServiceClient
from repro.service.protocol import decode_line, encode_line
from repro.service.server import serve_in_background
from repro.workloads import library


@pytest.fixture
def library_pair(library_setting):
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    return library_setting, tree, query


def run_server_in_thread(service_kwargs):
    """The shared embedded-server helper, with test-sized timeouts."""
    port, server, join = serve_in_background(**service_kwargs)
    return port, server, lambda: join(timeout=30)


class TestPipelinedConnection:
    def test_fast_requests_overtake_a_slow_one(self, library_pair):
        """One connection, slow request first: its reply arrives *last*
        because the per-line tasks complete out of submission order."""
        setting, tree, query = library_pair
        # The slow request is a heavy solve (~50 ms — big enough that GIL
        # scheduling on a single-core box cannot let it finish before the
        # loop has served every ping); the fast ones are pings.
        slow_tree = library.generate_source(250, authors_per_book=3, seed=3)
        port, _, join = run_server_in_thread(
            dict(executor="thread", parallel=4))
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting, prewarm=True)
            # Warm the consistency result so the fast path is trivial.
            assert client.check_consistency(fingerprint) is True

            slow_id = client.submit({"op": "solve",
                                     "fingerprint": fingerprint,
                                     "tree": tree_wire(slow_tree)})
            fast_ids = [client.submit({"op": "ping"}) for _ in range(4)]

            completion_order = []
            while client.pending():
                request_id, reply = client.collect_any()
                assert reply["ok"], reply
                completion_order.append(request_id)

            assert set(completion_order) == {slow_id, *fast_ids}
            # Every ping overtook the slow solve submitted before them.
            assert completion_order[-1] == slow_id
            assert completion_order[:4] == fast_ids
            assert client.shutdown()
        join()

    def test_pipeline_helper_keeps_submission_order(self, library_pair):
        setting, tree, query = library_pair
        port, _, join = run_server_in_thread(
            dict(executor="thread", parallel=2))
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting)
            replies = client.pipeline([
                {"op": "solve", "fingerprint": fingerprint,
                 "tree": tree_wire(tree)},
                {"op": "ping"},
                {"op": "consistency", "fingerprint": fingerprint},
            ])
            assert [reply["op"] for reply in replies] == \
                ["solve", "ping", "consistency"]
            assert replies[0]["result_ok"] is True
            assert replies[2]["consistent"] is True
            assert client.shutdown()
        join()

    def test_pipeline_error_slots_do_not_poison_neighbours(self,
                                                           library_pair):
        setting, tree, query = library_pair
        port, _, join = run_server_in_thread(dict(executor="thread"))
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting)
            replies = client.pipeline([
                {"op": "ping"},
                {"op": "consistency", "fingerprint": "f" * 64},  # unknown
                {"op": "consistency", "fingerprint": fingerprint},
            ], return_exceptions=True)
            assert replies[0]["pong"] is True
            assert isinstance(replies[1], KeyError)  # UnknownSettingError
            assert replies[2]["consistent"] is True
            # Without return_exceptions, the error is raised *after* the
            # batch drained — the connection stays usable.
            with pytest.raises(KeyError):
                client.pipeline([{"op": "consistency",
                                  "fingerprint": "f" * 64}])
            assert client.ping()
            assert client.shutdown()
        join()

    def test_double_pipelined_shutdown_still_shuts_down(self):
        """Regression: two pipelined shutdowns in one TCP segment must not
        deadlock awaiting each other — both get replies, the server exits."""
        port, _, join = run_server_in_thread(dict(executor="thread"))
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        reader = sock.makefile("rb")
        try:
            sock.sendall(encode_line({"op": "shutdown", "id": 1}) +
                         encode_line({"op": "shutdown", "id": 2}))
            replies = [decode_line(reader.readline()),
                       decode_line(reader.readline())]
            assert {reply["id"] for reply in replies} == {1, 2}
            assert all(reply["bye"] for reply in replies)
        finally:
            reader.close()
            sock.close()
        join()

    def test_collect_unknown_or_collected_id_fails_fast(self):
        """collect() of a never-submitted or already-collected id raises
        immediately instead of blocking on a reply that cannot arrive."""
        port, _, join = run_server_in_thread(dict(executor="thread"))
        with ServiceClient("127.0.0.1", port) as client:
            request_id = client.submit({"op": "ping"})
            assert client.collect(request_id)["pong"] is True
            with pytest.raises(RuntimeError, match="not outstanding"):
                client.collect(request_id)
            with pytest.raises(RuntimeError, match="not outstanding"):
                client.collect(999)
            assert client.pending() == 0
            assert client.shutdown()
        join()

    def test_new_client_against_arrival_order_server(self, library_pair):
        """Bugfix interop: a server replying strictly in arrival order
        (the PR-3 behaviour) still satisfies the id-demuxing client."""
        setting, _, _ = library_pair

        def arrival_order_server(sock: socket.socket) -> None:
            connection, _ = sock.accept()
            reader = connection.makefile("rb")
            # Read TWO pipelined requests first, then answer them in
            # arrival order — the old per-line-await loop's schedule.
            lines = [reader.readline(), reader.readline()]
            for line in lines:
                message = decode_line(line)
                connection.sendall(encode_line(
                    {"ok": True, "op": message["op"], "pong": True,
                     "id": message["id"]}))
            reader.close()
            connection.close()

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        thread = threading.Thread(target=arrival_order_server,
                                  args=(listener,), daemon=True)
        thread.start()
        client = ServiceClient("127.0.0.1", port)
        try:
            first = client.submit({"op": "ping"})
            second = client.submit({"op": "ping"})
            # Collect in reverse submission order: the reply to ``first``
            # arrives while waiting for ``second`` and must be parked, not
            # treated as a protocol error.
            assert client.collect(second)["id"] == second
            assert client.collect(first)["id"] == first
        finally:
            client.close()
            listener.close()
        thread.join(timeout=10)

    def test_out_of_completion_order_server_with_lockstep_flow(self):
        """The reverse interop: a pipelined (completion-order) server stub
        never breaks the lock-step ``request()`` path, because every reply
        is matched by id."""
        def completion_order_server(sock: socket.socket) -> None:
            connection, _ = sock.accept()
            reader = connection.makefile("rb")
            lines = [reader.readline(), reader.readline()]
            # Reply to the *second* request first (completion order of a
            # pipelined server with a slow first request).
            for line in reversed(lines):
                message = decode_line(line)
                connection.sendall(encode_line(
                    {"ok": True, "op": message["op"], "pong": True,
                     "id": message["id"]}))
            reader.close()
            connection.close()

        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        thread = threading.Thread(target=completion_order_server,
                                  args=(listener,), daemon=True)
        thread.start()
        client = ServiceClient("127.0.0.1", port)
        try:
            first = client.submit({"op": "ping"})
            second = client.submit({"op": "ping"})
            assert client.collect(first)["id"] == first
            assert client.collect(second)["id"] == second
        finally:
            client.close()
            listener.close()
        thread.join(timeout=10)


class TestQuota:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            QuotaPolicy(max_in_flight=0)
        with pytest.raises(ValueError, match="max_registered"):
            QuotaPolicy(max_registered=-1)

    def test_registration_quota_is_typed_and_idempotent(
            self, library_setting, company_setting):
        registry = SettingRegistry(quota=QuotaPolicy(max_registered=1))
        fingerprint = registry.register(library_setting)
        # Re-registering the same setting is a no-op, never a rejection.
        assert registry.register(library.library_setting()) == fingerprint
        with pytest.raises(QuotaExceededError, match="registration quota"):
            registry.register(company_setting)
        assert registry.stats()["quota_rejections"] == 1
        assert len(registry) == 1

    @pytest.mark.parametrize("executor", ["serial", "thread", "host"])
    def test_batch_rejections_are_deterministic_and_isolated(
            self, library_pair, executor):
        """With max_in_flight=2, a 4-request same-setting batch admits the
        first two slots and rejects the last two — every run, with typed
        error slots and untouched neighbours."""
        setting, tree, query = library_pair
        direct = ExchangeEngine(setting)

        async def scenario():
            async with AsyncExchangeService(
                    executor=executor, parallel=4,
                    quota=QuotaPolicy(max_in_flight=2)) as service:
                fingerprint = service.register(setting)
                requests = [
                    certain_answers_request(fingerprint, tree, query),
                    consistency_request(fingerprint),
                    consistency_request(fingerprint),
                    certain_answers_request(fingerprint, tree, query),
                ]
                batches = [await service.batch(requests) for _ in range(3)]
                return batches, service.stats()

        batches, stats = asyncio.run(scenario())
        for slots in batches:
            assert [slot.rejected for slot in slots] == \
                [False, False, True, True]
            assert isinstance(slots[2].error, QuotaExceededError)
            assert slots[3].error.kind == "in_flight"
            assert slots[0].result.payload == \
                direct.certain_answers(tree, query).payload
            assert slots[1].result.payload is True
        assert stats["registry"]["quota_rejections"] == 6
        assert stats["registry"]["in_flight"] == 0  # all slots released
        # ... released exactly once each: an over-release would raise (and
        # count) in quota_release rather than silently absorb.
        assert stats["registry"]["quota_release_underflow"] == 0

    def test_unbalanced_quota_release_is_loud(self, library_setting):
        """Regression: quota_release used to absorb over-release silently
        (popping an absent entry), masking acquire/release imbalance bugs
        in callers.  It now raises and counts the underflow."""
        registry = SettingRegistry(quota=QuotaPolicy(max_in_flight=2))
        fingerprint = registry.register(library_setting)
        registry.quota_acquire(fingerprint)
        registry.quota_release(fingerprint)
        with pytest.raises(RuntimeError, match="without a matching"):
            registry.quota_release(fingerprint)
        assert registry.stats()["quota_release_underflow"] == 1
        # The count itself never went negative: balance still works.
        registry.quota_acquire(fingerprint)
        assert registry.in_flight(fingerprint) == 1
        registry.quota_release(fingerprint)
        assert registry.in_flight(fingerprint) == 0

    def test_await_side_rejection_under_concurrency(self, library_pair):
        """Two concurrent submits under max_in_flight=1: exactly one is
        served, the other raises QuotaExceededError await-side."""
        setting, tree, query = library_pair

        async def scenario():
            async with AsyncExchangeService(
                    executor="thread", parallel=2,
                    quota=QuotaPolicy(max_in_flight=1)) as service:
                fingerprint = service.register(setting)
                outcomes = await asyncio.gather(
                    service.certain_answers(fingerprint, tree, query),
                    service.certain_answers(fingerprint, tree, query),
                    return_exceptions=True)
                # Slots are released once requests settle: afterwards the
                # same request is admitted again.
                after = await service.certain_answers(fingerprint, tree,
                                                      query)
                return outcomes, after

        outcomes, after = asyncio.run(scenario())
        errors = [o for o in outcomes if isinstance(o, QuotaExceededError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(errors) == 1 and len(served) == 1
        assert after.ok

    def test_quota_exceeded_crosses_the_wire_typed(self, library_setting,
                                                   company_setting):
        port, _, join = run_server_in_thread(
            dict(executor="thread",
                 quota=QuotaPolicy(max_registered=1)))
        with ServiceClient("127.0.0.1", port) as client:
            assert client.register(library_setting)
            with pytest.raises(QuotaExceededError,
                               match="registration quota"):
                client.register(company_setting)
            # The rejection did not poison the connection or the
            # registered neighbour.
            assert client.ping()
            assert client.check_consistency(
                library_setting.fingerprint()) is True
            assert client.shutdown()
        join()

    def test_bounds_on_both_registry_and_service_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            AsyncExchangeService(registry=SettingRegistry(),
                                 quota=QuotaPolicy(max_in_flight=1))


class TestPrewarm:
    def test_registry_prewarm_means_no_first_request_miss(
            self, library_pair):
        setting, tree, query = library_pair
        registry = SettingRegistry()
        fingerprint = registry.register(setting, prewarm=True)
        stats = registry.stats()
        assert stats["prewarm_compiles"] == 1
        assert stats["compiled_misses"] == 0
        shard = registry.shard(fingerprint)  # the first "request"
        assert shard.prewarmed
        stats = registry.stats()
        assert stats["compiled_misses"] == 0
        assert stats["compiled_hits"] == 1
        # Prewarming an already-warm setting is a cheap no-op.
        assert registry.prewarm(fingerprint) is False
        assert registry.stats()["prewarm_hits"] == 1

    def test_service_prewarm_runs_off_loop(self, library_pair):
        setting, tree, query = library_pair

        async def scenario():
            async with AsyncExchangeService(parallel=2) as service:
                fingerprint = service.register(setting)
                compiled_now = await service.prewarm(fingerprint)
                result = await service.certain_answers(fingerprint, tree,
                                                       query)
                return compiled_now, result, service.stats()

        compiled_now, result, stats = asyncio.run(scenario())
        assert compiled_now is True
        assert result.ok
        assert stats["registry"]["compiled_misses"] == 0
        assert stats["registry"]["prewarm_compiles"] == 1
        assert stats["shards"][library.library_setting().fingerprint()][
            "prewarmed"] is True

    def test_server_background_prewarm(self, library_pair):
        """register(prewarm=True) over the wire: the background warm task
        compiles the shard, so the first request is a compiled hit."""
        setting, tree, _ = library_pair
        port, _, join = run_server_in_thread(dict(executor="thread"))
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting, prewarm=True)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                registry = client.stats()["registry"]
                if registry["prewarm_compiles"] == 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("background prewarm never completed")
            answers = client.certain_answers(
                fingerprint, tree,
                "bib[writer(@name=w)[work(@title='Book-0')]]")
            assert answers == {("Author-1",), ("Author-2",)}
            registry = client.stats()["registry"]
            assert registry["compiled_misses"] == 0
            assert registry["compiled_hits"] >= 1
            assert client.shutdown()
        join()

    def test_concurrent_lazy_compiles_collapse(self, library_pair):
        """Two threads requesting the same cold setting compile it once —
        the per-fingerprint latch collapses the duplicate."""
        setting, tree, query = library_pair
        registry = SettingRegistry()
        fingerprint = registry.register(setting)
        shards = []
        barrier = threading.Barrier(2)

        def fetch() -> None:
            barrier.wait()
            shards.append(registry.shard(fingerprint))

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(shards) == 2
        assert shards[0] is shards[1]
        stats = registry.stats()
        assert stats["compiled_hits"] + stats["compiled_misses"] == 2
        assert stats["compiled_misses"] == 1


def tree_wire(tree):
    from repro.service.protocol import tree_to_wire
    return tree_to_wire(tree)
