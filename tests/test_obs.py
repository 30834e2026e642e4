"""ReproScope: spans, metrics and the reporting surfaces.

Covers the pay-for-what-you-use disabled path, span-tree construction,
histogram bucket edges (0 / inf / exact bound), cross-process trace
propagation through the shard host (single rooted tree, crash + retry
included), the generation-tagged host stats snapshot, the slow-request
log, the JSON-lines file sink, the ``repro.obs.report`` CLI and the
server's ``trace_dump`` / extended ``stats`` wire ops.
"""

import asyncio
import json
import math
import re
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import report as obs_report
from repro.obs import trace as obs_trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.service import (AsyncExchangeService, ShardHost,
                           certain_answers_request)
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background
from repro.workloads import library


@pytest.fixture(autouse=True)
def obs_clean():
    """Every test starts and ends with tracing off and empty sinks."""
    obs_trace.disable()
    obs_trace.drain()
    yield
    obs_trace.disable()
    obs_trace.drain()


@pytest.fixture
def library_pair(library_setting):
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    return library_setting, tree, query


def wait_until(predicate, timeout=30.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def spans_of(records, trace_id):
    return [r for r in records if r["trace"] == trace_id]


def assert_single_rooted(trace_records):
    """Exactly one root, and every non-root parent link resolves."""
    ids = {r["span"] for r in trace_records}
    roots = [r for r in trace_records if r["parent"] is None]
    orphans = [r for r in trace_records
               if r["parent"] is not None and r["parent"] not in ids]
    assert len(roots) == 1, f"expected one root, got {roots}"
    assert orphans == [], f"orphaned spans: {orphans}"
    return roots[0]


# --------------------------------------------------------------------- #
# Disabled path
# --------------------------------------------------------------------- #

class TestDisabledPath:
    def test_span_is_the_shared_null_singleton(self):
        assert obs_trace.span("engine.chase") is obs_trace.span("other")
        with obs_trace.span("anything", key="value") as nothing:
            assert nothing.annotate(more=1) is nothing
        assert obs_trace.records() == []

    def test_timer_still_times(self):
        with obs_trace.timer("engine.solve") as clock:
            time.sleep(0.01)
        assert clock.elapsed >= 0.01
        assert obs_trace.records() == []

    def test_emit_and_context_are_noops(self):
        obs_trace.emit("service.queue", 0.0, 1.0)
        assert obs_trace.current_context() is None
        assert obs_trace.records() == []


# --------------------------------------------------------------------- #
# Span trees
# --------------------------------------------------------------------- #

class TestSpans:
    def test_nesting_builds_one_tree(self):
        obs_trace.configure(observe_metrics=False)
        with obs_trace.span("root", op="test"):
            with obs_trace.span("child"):
                with obs_trace.span("leaf"):
                    pass
            with obs_trace.span("sibling"):
                pass
        records = obs_trace.drain()
        assert [r["name"] for r in records] == \
            ["leaf", "child", "sibling", "root"]
        root = assert_single_rooted(records)
        assert root["name"] == "root"
        assert root["attrs"] == {"op": "test"}
        assert len({r["trace"] for r in records}) == 1

    def test_timer_records_when_enabled_and_elapsed_matches(self):
        obs_trace.configure(observe_metrics=False)
        with obs_trace.timer("engine.solve") as clock:
            time.sleep(0.005)
        (record,) = obs_trace.drain()
        assert record["name"] == "engine.solve"
        assert record["dur"] == pytest.approx(clock.elapsed, rel=1e-6)

    def test_emit_parents_under_active_span(self):
        obs_trace.configure(observe_metrics=False)
        with obs_trace.span("root"):
            started = time.perf_counter()
            obs_trace.emit("service.queue", started, started + 0.25, lane=3)
        queue, root = obs_trace.drain()
        assert queue["parent"] == root["span"]
        assert queue["dur"] == pytest.approx(0.25)
        assert queue["attrs"] == {"lane": 3}

    def test_exception_annotates_error(self):
        obs_trace.configure(observe_metrics=False)
        with pytest.raises(ValueError):
            with obs_trace.span("engine.chase"):
                raise ValueError("no solution")
        (record,) = obs_trace.drain()
        assert record["attrs"]["error"] == "ValueError"

    def test_capture_diverts_and_restores(self):
        with obs_trace.capture() as captured:
            assert obs_trace.enabled()
            with obs_trace.span("host.worker"):
                pass
        assert not obs_trace.enabled()
        assert [r["name"] for r in captured] == ["host.worker"]
        assert obs_trace.records() == []  # diverted, not buffered

    def test_activate_reparents_across_threads(self):
        obs_trace.configure(observe_metrics=False)
        with obs_trace.span("root"):
            context = obs_trace.current_context()

            def work():
                with obs_trace.activate(context):
                    with obs_trace.span("offloaded"):
                        pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        records = obs_trace.drain()
        root = assert_single_rooted(records)
        assert root["name"] == "root"

    def test_slow_request_logs_the_tree(self):
        slow_lines = []
        obs_trace.configure(observe_metrics=False, slow_threshold=0.0,
                            slow_sink=slow_lines.append)
        with obs_trace.span("service.request"):
            with obs_trace.span("engine.chase"):
                pass
        assert len(slow_lines) == 1
        assert "slow request" in slow_lines[0]
        assert "service.request" in slow_lines[0]
        assert "engine.chase" in slow_lines[0]

    def test_file_sink_round_trips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        obs_trace.configure(observe_metrics=False, trace_path=str(path))
        with obs_trace.span("server.request", bytes=42):
            with obs_trace.span("engine.freeze"):
                pass
        obs_trace.disable()  # closes the sink
        records = [json.loads(line) for line in
                   path.read_text().splitlines()]
        assert [r["name"] for r in records] == \
            ["engine.freeze", "server.request"]
        assert_single_rooted(records)

    def test_span_durations_feed_the_metrics_registry(self):
        obs_metrics.registry.reset()
        obs_trace.configure()
        with obs_trace.span("engine.plan_run"):
            pass
        obs_trace.disable()
        snapshot = obs_metrics.registry.snapshot()
        assert snapshot["histograms"]["span.engine.plan_run"]["count"] == 1


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #

class TestHistogramEdges:
    def test_zero_lands_in_the_first_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(0.0)
        assert histogram.snapshot()["buckets"]["1.0"] == 1
        assert histogram.quantile(0.5) == 0.0  # clamped to the observed max

    def test_exact_bound_lands_in_that_bounds_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(1.0)   # le semantics: == bound -> that bucket
        histogram.observe(1.5)
        buckets = histogram.snapshot()["buckets"]
        assert buckets["1.0"] == 1
        assert buckets["2.0"] == 1

    def test_inf_lands_in_the_overflow_bucket(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(math.inf)
        assert histogram.snapshot()["buckets"]["inf"] == 1

    def test_quantiles_clamp_to_observed_range(self):
        histogram = Histogram(bounds=(10.0,))
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        # All samples share the [0, 10] bucket; interpolation would say
        # 10 * 0.99, but the clamp keeps the estimate inside the data.
        assert histogram.quantile(0.99) <= 3.0
        assert histogram.quantile(0.01) >= 1.0

    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        view = histogram.snapshot()
        assert view["count"] == 0 and view["min"] is None

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(bounds=())


class TestMetricsRegistry:
    def test_same_name_same_instrument(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth").set(3)
        assert metrics.gauge("depth") is metrics.gauge("depth")
        assert metrics.gauge("depth").value == 3
        metrics.histogram("lat").observe(0.5)
        metrics.histogram("lat").observe(1.5)
        assert metrics.histogram("lat").count == 2

    def test_cross_kind_reuse_is_a_loud_error(self):
        metrics = MetricsRegistry()
        metrics.histogram("loop.lag")
        with pytest.raises(TypeError, match="already exists"):
            metrics.gauge("loop.lag")
        metrics.gauge("depth")
        with pytest.raises(TypeError, match="already exists"):
            metrics.histogram("depth")

    def test_snapshot_groups_by_kind(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth").set(2.5)
        metrics.histogram("lat", bounds=(1.0,)).observe(0.5)
        view = metrics.snapshot()
        assert set(view) == {"gauges", "histograms"}
        assert view["gauges"] == {"depth": 2.5}
        assert view["histograms"]["lat"]["count"] == 1

    def test_loop_lag_probe_records(self):
        metrics = MetricsRegistry()

        async def run():
            probe = asyncio.create_task(
                obs_metrics.loop_lag_probe(interval=0.01, metrics=metrics))
            await asyncio.sleep(0.08)
            probe.cancel()

        asyncio.run(run())
        assert metrics.histogram("loop.lag.seconds").count >= 2


# --------------------------------------------------------------------- #
# Engine phase spans
# --------------------------------------------------------------------- #

class TestEngineSpans:
    def test_certain_answers_produces_every_phase(self, library_pair):
        from repro import ExchangeEngine, compile_setting
        setting, tree, query = library_pair
        engine = ExchangeEngine(compile_setting(setting))
        obs_trace.configure(observe_metrics=False)
        result = engine.certain_answers(tree, query)
        obs_trace.disable()
        assert result.ok
        records = obs_trace.drain()
        trace_records = spans_of(records, records[-1]["trace"])
        root = assert_single_rooted(trace_records)
        assert root["name"] == "engine.certain_answers"
        names = {r["name"] for r in trace_records}
        assert {"engine.certain_answers", "engine.cache_lookup",
                "engine.chase", "engine.freeze", "engine.plan_compile",
                "engine.plan_run"} <= names
        # elapsed is read on the same clock as the span, just before its
        # __exit__ stamps dur — so dur is a hair larger, never smaller.
        assert 0 <= root["dur"] - result.elapsed < 0.01


# --------------------------------------------------------------------- #
# Cross-process propagation through the shard host
# --------------------------------------------------------------------- #

class TestHostTraces:
    def test_host_mode_request_is_one_rooted_tree(self, library_pair):
        setting, tree, query = library_pair

        async def run():
            service = AsyncExchangeService(executor="host", workers=2)
            try:
                fingerprint = service.register(setting)
                obs_trace.configure(observe_metrics=False)
                result = await service.submit(
                    certain_answers_request(fingerprint, tree, query))
                assert result.ok
            finally:
                obs_trace.disable()
                await service.aclose()

        asyncio.run(run())
        records = obs_trace.drain()
        roots = [r for r in records if r["parent"] is None
                 and r["name"] == "service.request"]
        assert len(roots) == 1
        trace_records = spans_of(records, roots[0]["trace"])
        root = assert_single_rooted(trace_records)
        names = {r["name"] for r in trace_records}
        assert {"service.request", "service.admission", "service.queue",
                "service.execute", "host.pipe", "host.worker",
                "engine.certain_answers", "engine.chase", "engine.freeze",
                "engine.plan_compile", "engine.plan_run"} <= names
        # The tree genuinely crosses the process boundary ...
        assert len({r["pid"] for r in trace_records}) >= 2
        # ... and the worker span parents under the supervisor's pipe span.
        by_id = {r["span"]: r for r in trace_records}
        worker = next(r for r in trace_records if r["name"] == "host.worker")
        assert by_id[worker["parent"]]["name"] == "host.pipe"
        # Phase attribution accounts for the request's wall-clock: the
        # root's direct children (admission, queue, execute) cover it.
        children = [r for r in trace_records if r["parent"] == root["span"]]
        assert sum(r["dur"] for r in children) >= 0.5 * root["dur"]

    def test_crash_retry_keeps_the_trace_rooted(self, library_pair):
        setting, tree, query = library_pair
        with ShardHost(workers=2) as host:
            fingerprint = host.register(setting)
            host.execute(certain_answers_request(fingerprint, tree, query))
            victim = host.worker_for(fingerprint)
            obs_trace.configure(observe_metrics=False)
            try:
                outcome = []

                def drive():
                    outcome.append(host.execute(
                        certain_answers_request(fingerprint, tree, query)))

                thread = threading.Thread(target=drive)
                thread.start()
                host.inject_crash(victim)
                thread.join(timeout=60)
                assert not thread.is_alive()
            finally:
                obs_trace.disable()
            wait_until(lambda: host.stats()["worker_restarts"] >= 1,
                       message="restart accounting")
            assert len(outcome) == 1 and outcome[0].ok
        records = obs_trace.drain()
        pipe_roots = [r for r in records if r["parent"] is None
                      and r["name"] == "host.pipe"]
        assert len(pipe_roots) == 1
        trace_records = spans_of(records, pipe_roots[0]["trace"])
        # Whether the reply beat the crash or the retry served it, the
        # trace must reconstruct as one tree with no orphaned spans.
        assert_single_rooted(trace_records)
        names = {r["name"] for r in trace_records}
        assert "host.worker" in names
        assert "engine.certain_answers" in names

    def test_in_flight_gauges_settle_to_zero(self, library_pair):
        setting, tree, query = library_pair
        with ShardHost(workers=2) as host:
            fingerprint = host.register(setting)
            host.execute(certain_answers_request(fingerprint, tree, query))
            for index in range(host.workers):
                gauge = obs_metrics.registry.gauge(
                    f"host.worker{index}.in_flight")
                assert gauge.value == 0


class TestHostStatsSnapshot:
    def test_views_are_tagged_with_pid_and_generation(self, library_pair):
        setting, tree, query = library_pair
        with ShardHost(workers=2) as host:
            host.register(setting)
            view = host.stats()
            assert [v["generation"] for v in view["per_worker"]] == [1, 1]
            assert [v["pid"] for v in view["per_worker"]] == \
                host.worker_pids()
            assert all(not v["stale"] for v in view["per_worker"])
            assert all(v["in_flight"] == 0 for v in view["per_worker"])

    def test_restart_bumps_the_generation(self, library_pair):
        setting, tree, query = library_pair
        with ShardHost(workers=2) as host:
            fingerprint = host.register(setting, prewarm=True)
            victim = host.worker_for(fingerprint)
            old_pid = host.worker_pids()[victim]
            host.inject_crash(victim)
            wait_until(lambda: host.worker_pids()[victim] != old_pid
                       and host.stats()["worker_restarts"] == 1,
                       message="worker restart")
            view = host.stats()
            generations = [v["generation"] for v in view["per_worker"]]
            assert generations[victim] == 2
            for index in range(host.workers):
                if index != victim:
                    assert generations[index] == 1
            # The replacement's view is fresh and attributable to its pid.
            assert view["per_worker"][victim]["pid"] == \
                host.worker_pids()[victim]
            assert not view["per_worker"][victim]["stale"]


# --------------------------------------------------------------------- #
# Report CLI
# --------------------------------------------------------------------- #

class TestReport:
    def make_dump(self, tmp_path):
        obs_trace.configure(observe_metrics=False,
                            trace_path=str(tmp_path / "dump.jsonl"))
        for _ in range(3):
            with obs_trace.span("service.request"):
                with obs_trace.span("engine.chase"):
                    pass
                with obs_trace.span("engine.plan_run"):
                    pass
        obs_trace.disable()
        obs_trace.drain()
        return tmp_path / "dump.jsonl"

    def test_table_markdown_and_collapsed(self, tmp_path, capsys):
        dump = self.make_dump(tmp_path)
        markdown = tmp_path / "report.md"
        collapsed = tmp_path / "spans.collapsed"
        code = obs_report.main([str(dump), "--markdown", str(markdown),
                                "--collapsed", str(collapsed), "--tree"])
        assert code == 0
        output = capsys.readouterr().out
        assert "service.request" in output and "p99 ms" in output
        table = markdown.read_text()
        assert table.startswith("| phase | count |")
        assert "| service.request | 3 |" in table
        stack_lines = collapsed.read_text().splitlines()
        assert stack_lines  # valid collapsed-stack syntax, leaf included
        for line in stack_lines:
            assert re.fullmatch(r"[\w.]+(;[\w.]+)* \d+", line), line
        assert any(line.startswith("service.request;engine.chase ")
                   for line in stack_lines)

    def test_self_time_subtracts_children(self):
        records = [
            {"trace": "t", "span": "a", "parent": None,
             "name": "root", "start": 0.0, "dur": 1.0, "pid": 1},
            {"trace": "t", "span": "b", "parent": "a",
             "name": "child", "start": 0.1, "dur": 0.4, "pid": 1},
        ]
        stacks = obs_report.collapsed_stacks(records)
        assert stacks["root"] == 600_000       # 1.0 s - 0.4 s, in µs
        assert stacks["root;child"] == 400_000

    def test_missing_parent_roots_its_own_stack(self):
        records = [{"trace": "t", "span": "x", "parent": "evicted",
                    "name": "leaf", "start": 0.0, "dur": 0.5, "pid": 1}]
        assert obs_report.collapsed_stacks(records) == {"leaf": 500_000}

    def test_empty_dump_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("not json\n")
        assert obs_report.main([str(empty)]) == 2
        assert obs_report.main([str(tmp_path / "absent.jsonl")]) == 2


# --------------------------------------------------------------------- #
# Server surface
# --------------------------------------------------------------------- #

class TestServerSurface:
    def test_trace_dump_and_extended_stats(self, library_pair):
        setting, tree, query = library_pair
        obs_trace.configure(observe_metrics=True)
        try:
            port, _, join = serve_in_background(executor="thread",
                                                parallel=2)
            with ServiceClient(port=port) as client:
                fingerprint = client.register(setting)
                answers = client.certain_answers(
                    fingerprint, tree,
                    "bib[writer(@name=w)[work(@title='Book-0')]]")
                assert answers is not None
                dump = client.trace_dump()
                assert dump["enabled"]
                names = {record["name"] for record in dump["spans"]}
                assert {"server.request", "service.request",
                        "engine.certain_answers"} <= names
                reply = client.request({"op": "stats"})
                assert reply["obs"]["tracing"] is True
                histograms = reply["obs"]["metrics"]["histograms"]
                assert "span.engine.certain_answers" in histograms
                limited = client.trace_dump(limit=2)
                assert len(limited["spans"]) == 2
                client.shutdown()
            join()
        finally:
            obs_trace.disable()
