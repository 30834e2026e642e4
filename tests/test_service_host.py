"""ShardHost: one worker process per core, supervised.

Covers fingerprint routing, one pickle per request frame, single-request and
pipelined (``submit``) parity against a direct engine, worker-crash
lifecycle (restart, re-registration, ``worker_restarts`` accounting, no lost
or duplicated replies), workers ending with their supervisor (interpreter
exit without ``close()``, a killed supervisor), cross-process stats
aggregation and the service facade's ``executor="host"`` wiring.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import ExchangeEngine, compile_setting
from repro.engine import merge_counts
from repro.service import (AsyncExchangeService, ExchangeRequest, ShardHost,
                           UnknownSettingError, certain_answers_request,
                           classify_request, consistency_request,
                           solve_request)
from repro.service.host import _WorkerHandle
from repro.service.protocol import answers_to_wire, tree_to_wire
from repro.workloads import library, nested_relational

import asyncio


def wait_until(predicate, timeout=30.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def host():
    with ShardHost(workers=2) as running:
        yield running


@pytest.fixture
def library_pair(library_setting):
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    return library_setting, tree, query


class TestRoutingAndParity:
    def test_worker_for_is_stable_and_in_range(self, host, library_setting,
                                               company_setting):
        for setting in (library_setting, company_setting):
            fingerprint = setting.fingerprint()
            index = host.worker_for(fingerprint)
            assert 0 <= index < host.workers
            assert host.worker_for(fingerprint) == index

    def test_register_returns_fingerprint(self, host, library_setting):
        fingerprint = host.register(library_setting)
        assert fingerprint == library_setting.fingerprint()
        assert fingerprint in host.fingerprints()

    def test_unknown_fingerprint_raises_without_a_round_trip(self, host):
        with pytest.raises(UnknownSettingError):
            host.execute(consistency_request("f" * 64))
        with pytest.raises(UnknownSettingError):
            host.submit(consistency_request("f" * 64))
        assert all(not handle.pending for handle in host._handles)
        with pytest.raises(UnknownSettingError):
            host.prewarm("f" * 64)

    def test_single_request_parity_with_direct_engine(self, host,
                                                      library_pair):
        setting, tree, query = library_pair
        fingerprint = host.register(setting)
        engine = ExchangeEngine(compile_setting(setting))

        got = host.execute(consistency_request(fingerprint))
        want = engine.check_consistency()
        assert (got.ok, bool(got.payload)) == (want.ok, bool(want.payload))

        got = host.execute(classify_request(fingerprint))
        want = engine.classify()
        assert got.payload.tractable == want.payload.tractable

        got = host.execute(solve_request(fingerprint, tree))
        want = engine.solve(tree)
        assert got.ok and want.ok
        assert tree_to_wire(got.payload) == tree_to_wire(want.payload)

        got = host.execute(certain_answers_request(fingerprint, tree, query))
        want = engine.certain_answers(tree, query)
        assert got.ok and want.ok
        assert answers_to_wire(got.payload) == answers_to_wire(want.payload)

    def test_registering_compiled_setting_arrives_plan_warm(
            self, host, library_setting):
        fingerprint = host.register(compile_setting(library_setting))
        view = host.stats()["per_worker"][host.worker_for(fingerprint)]
        assert view["registry"]["compiled_entries"] == 1
        assert view["registry"]["compiled_misses"] == 0

    def test_worker_exceptions_reraise_in_the_supervisor(self, host):
        # A non-univocal chase raises *in the worker process*; the pickled
        # exception must re-raise here with its type and message intact —
        # and the worker must survive to serve the next request.
        from repro import ChaseError, DataExchangeSetting, DTD, XMLTree, std
        from repro.patterns.parse import parse_pattern
        from repro.patterns.queries import pattern_query
        setting = DataExchangeSetting(
            DTD("db", {"db": "rec*", "rec": ""}, {"rec": ["v"]}),
            DTD("r", {"r": "a a", "a": ""}, {"a": ["v"]}),
            [std("r[a(@v=x)]", "db[rec(@v=x)]")])
        tree = XMLTree.build(("db", [("rec", {"v": "1"}), ("rec", {"v": "2"}),
                                     ("rec", {"v": "3"})]))
        query = pattern_query(parse_pattern("r[a(@v=w)]"))
        fingerprint = host.register(setting)
        with pytest.raises(ChaseError, match="not univocal"):
            host.execute(certain_answers_request(fingerprint, tree, query))
        # The same exception through a call handle, collected later.
        handle = host.submit(certain_answers_request(fingerprint, tree, query))
        with pytest.raises(ChaseError, match="not univocal"):
            handle.result()
        assert host.execute(consistency_request(fingerprint)).ok
        assert host.stats()["worker_restarts"] == 0

    def test_submitted_handles_match_execute(self, host, library_pair):
        """Submissions made back to back pipeline down one pipe; each
        handle settles with the payload ``execute`` returns."""
        setting, tree, query = library_pair
        fingerprint = host.register(setting)
        request = certain_answers_request(fingerprint, tree, query)
        handles = [host.submit(request) for _ in range(3)]
        want = answers_to_wire(host.execute(request).payload)
        assert [answers_to_wire(handle.result().payload)
                for handle in handles] == [want] * 3

    def test_results_stay_cached_in_the_worker(self, host, library_pair):
        """The point of long-lived workers: repeat traffic hits the
        worker-resident result cache instead of re-computing."""
        setting, tree, query = library_pair
        fingerprint = host.register(setting)
        request = certain_answers_request(fingerprint, tree, query)
        host.execute(request)
        before = host.stats()["shards"][fingerprint]["result_cache_hits"]
        host.execute(request)
        after = host.stats()["shards"][fingerprint]["result_cache_hits"]
        assert after == before + 1


class TestFramePickling:
    def test_each_request_frame_is_pickled_once(self, host, library_pair,
                                                monkeypatch):
        """One encode per request on the supervisor side (the workers were
        forked before the patch, so only supervisor encodes are
        counted)."""
        from repro.service import host as host_module
        setting, tree, query = library_pair
        fingerprint = host.register(setting)
        encoded = []
        real_encode = host_module._encode_frame

        def counting_encode(obj):
            encoded.append(obj[1])
            return real_encode(obj)

        monkeypatch.setattr(host_module, "_encode_frame", counting_encode)
        result = host.execute(certain_answers_request(fingerprint, tree,
                                                      query))
        assert result.ok
        assert encoded == ["request"]

    def test_unpicklable_payload_raises_and_leaves_nothing_pending(
            self, host, library_setting):
        fingerprint = host.register(library_setting)
        request = ExchangeRequest("consistency", fingerprint,
                                  strategy=threading.Lock())
        with pytest.raises(TypeError, match="pickle"):
            host.execute(request)
        assert all(not handle.pending for handle in host._handles)
        assert host.execute(consistency_request(fingerprint)).ok
        assert host.stats()["worker_restarts"] == 0


class TestWorkerLifecycle:
    def test_injected_crash_restarts_and_re_registers(self, host,
                                                      library_pair):
        setting, tree, query = library_pair
        fingerprint = host.register(setting, prewarm=True)
        victim = host.worker_for(fingerprint)
        old_pid = host.worker_pids()[victim]
        host.inject_crash(victim)
        wait_until(lambda: host.worker_pids()[victim] != old_pid
                   and host.stats()["worker_restarts"] == 1,
                   message="worker restart")
        # The replacement was re-registered (and re-prewarmed) from the
        # supervisor's authoritative map: traffic flows without help.
        view = host.stats()["per_worker"][victim]
        assert view["registry"]["settings_registered"] == 1
        assert view["registry"]["compiled_entries"] == 1  # re-prewarmed
        result = host.execute(certain_answers_request(fingerprint, tree,
                                                      query))
        assert result.ok

    def test_injected_crash_exits_with_the_requested_code(self, host):
        """The crash control frame has the one frame shape: a worker that
        could not decode it would leave its loop and exit 0 instead."""
        victim = host._handles[1].process
        host.inject_crash(1, exit_code=3)
        # The restart joins the dead worker before it counts the restart.
        wait_until(lambda: host.stats()["worker_restarts"] == 1,
                   message="worker restart")
        assert victim.exitcode == 3

    def test_sigkill_mid_stream_loses_no_replies(self, host, library_pair):
        """Kill a worker while requests are in flight: every request gets
        exactly one reply (orphans are resubmitted to the replacement)."""
        setting, tree, query = library_pair
        fingerprint = host.register(setting)
        host.execute(consistency_request(fingerprint))  # warm the worker
        victim = host.worker_for(fingerprint)
        replies = []
        errors = []
        replies_lock = threading.Lock()

        def drive(worker_id):
            for _ in range(4):
                try:
                    outcome = host.execute(
                        certain_answers_request(fingerprint, tree, query))
                except Exception as error:  # pragma: no cover - flake trap
                    with replies_lock:
                        errors.append(error)
                else:
                    with replies_lock:
                        replies.append(answers_to_wire(outcome.payload))

        threads = [threading.Thread(target=drive, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        os.kill(host.worker_pids()[victim], signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(replies) == 24  # one reply per request, none lost
        assert len(set(map(str, replies))) == 1  # ... and all identical
        wait_until(lambda: host.stats()["worker_restarts"] >= 1,
                   message="restart accounting")

    def test_unaffected_workers_keep_their_pids(self, host, library_setting,
                                                company_setting,
                                                figure_6_setting):
        keys = [host.register(setting) for setting in
                (library_setting, company_setting, figure_6_setting)]
        owners = {host.worker_for(key) for key in keys}
        victim = host.worker_for(keys[0])
        pids_before = host.worker_pids()
        host.inject_crash(victim)
        wait_until(lambda: host.worker_pids()[victim] != pids_before[victim],
                   message="victim pid change")
        pids_after = host.worker_pids()
        for index in range(host.workers):
            if index != victim:
                assert pids_after[index] == pids_before[index]
        # Every setting still serves, whichever worker owns it.
        for key in keys:
            assert host.execute(consistency_request(key)).ok
        assert owners  # routing stayed meaningful

    def test_closed_host_refuses_work(self, library_setting):
        host = ShardHost(workers=1)
        fingerprint = host.register(library_setting)
        host.close()
        host.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            host.execute(consistency_request(fingerprint))

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_host_closing_under_a_submission_fails_it(
            self, library_setting, monkeypatch, pipelined):
        """A close racing a submission leaves a dead handle that is never
        replaced; ``execute`` and ``submit`` must give up instead of
        re-reading it forever."""
        host = ShardHost(workers=1)
        fingerprint = host.register(library_setting)
        request = consistency_request(fingerprint)
        submit = _WorkerHandle.submit

        def close_first(handle, call):
            monkeypatch.setattr(_WorkerHandle, "submit", submit)
            host.close()
            return submit(handle, call)

        monkeypatch.setattr(_WorkerHandle, "submit", close_first)
        outcome = []

        def serve():
            try:
                if pipelined:
                    host.submit(request).result()
                else:
                    host.execute(request)
            except RuntimeError as error:
                outcome.append(error)

        worker = threading.Thread(target=serve, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "submission spun on a dead handle"
        assert isinstance(outcome[0], RuntimeError)
        assert "closed" in str(outcome[0])


#: A supervisor process: a host with ``workers`` workers and one setting;
#: it prints the worker pids, then runs ``tail``.
SUPERVISOR = """
import time
from repro.service import ShardHost
from repro.workloads import library

host = ShardHost(workers={workers})
host.register(library.library_setting())
print(" ".join(map(str, host.worker_pids())), flush=True)
{tail}
"""


def live_group_members(group):
    """Pids of process group ``group`` that still run; a zombie counts as
    gone (an orphan's parent may never reap it)."""
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it just went away
        if int(fields[2]) == group and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def kill_group(group):
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def start_supervisor(workers, tail):
    return subprocess.Popen(
        [sys.executable, "-c", SUPERVISOR.format(workers=workers, tail=tail)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process groups from /proc")
class TestWorkersEndWithTheSupervisor:
    """Each supervisor runs in its own session, so its process group holds
    it and its workers only; whatever survives is killed afterwards."""

    def test_workers_exit_when_the_supervisor_is_killed(self):
        with start_supervisor(2, "time.sleep(120)") as supervisor:
            try:
                assert len(supervisor.stdout.readline().split()) == 2
                os.kill(supervisor.pid, signal.SIGKILL)
                supervisor.wait()
                wait_until(lambda: not live_group_members(supervisor.pid),
                           timeout=5.0,
                           message="workers to exit with their supervisor")
            finally:
                kill_group(supervisor.pid)

    def test_exit_without_close_returns_and_leaves_no_worker(self):
        for _ in range(3):
            with start_supervisor(1, "") as supervisor:
                try:
                    assert len(supervisor.stdout.readline().split()) == 1
                    assert supervisor.wait(timeout=20) == 0
                    assert not live_group_members(supervisor.pid)
                finally:
                    kill_group(supervisor.pid)


class TestStatsAggregation:
    def test_merged_registry_reads_like_a_single_process(self, host,
                                                         library_pair):
        setting, tree, query = library_pair
        fingerprint = host.register(setting)
        host.execute(certain_answers_request(fingerprint, tree, query))
        host.execute(certain_answers_request(fingerprint, tree, query))
        stats = host.stats()
        assert stats["workers"] == 2
        assert stats["worker_restarts"] == 0
        assert len(stats["per_worker"]) == 2
        merged = stats["registry"]
        assert merged["settings_registered"] == 1
        assert merged["compiled_entries"] == 1
        assert fingerprint in stats["shards"]
        assert stats["shards"][fingerprint]["requests"] == 2

    def test_shards_merge_is_disjoint_across_workers(self, host,
                                                     library_setting,
                                                     company_setting):
        keys = [host.register(setting, prewarm=True)
                for setting in (library_setting, company_setting)]
        shards = host.stats()["shards"]
        assert sorted(shards) == sorted(keys)

    def test_host_views_equal_serial_views(self, library_pair,
                                           company_setting):
        """One counter plane: the same traffic gives key-for-key equal
        registry and shard views in one process and across two workers
        (store counters included, though only the serial service has a
        store attached)."""
        setting, tree, query = library_pair
        company_tree = nested_relational.generate_company_source(
            2, employees_per_dept=2, projects_per_dept=1)
        company_query = nested_relational.query_projects_of("Dept-0")

        async def run(**kwargs):
            async with AsyncExchangeService(**kwargs) as service:
                lib = service.register(setting, prewarm=True)
                com = service.register(company_setting)
                for _ in range(2):
                    await service.certain_answers(lib, tree, query)
                    await service.certain_answers(com, company_tree,
                                                  company_query)
                await service.solve(lib, tree)
                await service.check_consistency(com)
                stats = service.stats()
                return stats["registry"], stats["shards"]

        serial = asyncio.run(run(executor="serial"))
        hosted = asyncio.run(run(executor="host", workers=2))
        assert hosted == serial

    def test_merge_counts_sums_numbers_and_skips_the_rest(self):
        merged = merge_counts(
            {"hits": 1, "ratio": 0.5, "prewarmed": True, "name": "a"},
            {"hits": 2, "misses": 3, "prewarmed": False,
             "nested": {"hits": 9}, "pid": None})
        assert merged == {"hits": 3, "ratio": 0.5, "misses": 3}
        assert merge_counts() == {}


class TestServiceHostMode:
    def test_workers_require_host_executor(self):
        with pytest.raises(ValueError, match="executor='host'"):
            AsyncExchangeService(executor="thread", workers=2)

    def test_batch_parity_with_serial_executor(self, library_pair):
        setting, tree, query = library_pair

        async def run(**kwargs):
            async with AsyncExchangeService(**kwargs) as service:
                fingerprint = service.register(setting)
                slots = await service.batch([
                    consistency_request(fingerprint),
                    certain_answers_request(fingerprint, tree, query),
                    solve_request(fingerprint, tree),
                ])
                assert all(slot.ok for slot in slots)
                return [
                    bool(slots[0].result.payload),
                    answers_to_wire(slots[1].result.payload),
                    tree_to_wire(slots[2].result.payload),
                ]

        serial = asyncio.run(run(executor="serial"))
        hosted = asyncio.run(run(executor="host", workers=2))
        assert hosted == serial

    def test_stats_shape_and_quota_stay_loop_side(self, library_pair):
        from repro.service import QuotaPolicy
        setting, tree, query = library_pair

        async def run():
            async with AsyncExchangeService(
                    executor="host", workers=2,
                    quota=QuotaPolicy(max_in_flight=4)) as service:
                fingerprint = service.register(setting, prewarm=True)
                await service.certain_answers(fingerprint, tree, query)
                stats = service.stats()
                assert stats["executor"] == "host"
                assert stats["host"]["workers"] == 2
                assert stats["host"]["worker_restarts"] == 0
                registry = stats["registry"]
                assert registry["settings_registered"] == 1
                assert registry["in_flight"] == 0  # balanced acquire/release
                assert registry["quota_rejections"] == 0
                assert fingerprint in stats["shards"]
                # The local registry never compiled anything in host mode.
                assert len(service.registry.compiled_fingerprints()) == 0

        asyncio.run(run())

    def test_prewarm_reaches_the_owning_worker(self, library_pair):
        setting, _, _ = library_pair

        async def run():
            async with AsyncExchangeService(executor="host",
                                            workers=2) as service:
                fingerprint = service.register(setting)
                assert await service.prewarm(fingerprint) is True
                assert await service.prewarm(fingerprint) is False
                merged = service.stats()["registry"]
                assert merged["prewarm_compiles"] == 1
                assert merged["prewarm_hits"] == 1

        asyncio.run(run())
