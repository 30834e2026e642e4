"""E16 — the serving layer: mixed-setting traffic through one async service.

Drives generated traffic for **several distinct settings** through a single
:class:`repro.service.AsyncExchangeService` and reports what a serving
deployment cares about: request throughput, await-side latency percentiles,
result-cache and compiled-shard hit rates — plus deterministic gates:

* **multi-setting**  — the workload must span >= 2 distinct fingerprints;
* **parity**         — every service answer must equal a serial, per-setting
  :class:`repro.ExchangeEngine` run of the same request (the serving layer
  may never change payloads);
* **isolation/eviction** — a small per-setting ``result_cache_maxsize``
  must produce evictions on a repeat pass while leaving payloads unchanged;
* **routing**        — no request may be served by a shard other than its
  fingerprint's.

Two further traffic modes exercise the governed-serving guarantees:

* ``--pipeline`` — drives a slow-first, fast-behind request stream over one
  live JSON-lines connection twice: once **pipelined** (all requests on the
  wire up front, replies collected in completion order) and once
  **serialized** (send → wait → send, the arrival-order schedule an
  un-pipelined server forces).  Latency is measured from workload start, so
  the serialized pass charges every fast request for the slow one blocking
  the line.  Gates: pipelined p99 strictly beats serialized p99, and every
  payload matches a direct :class:`~repro.ExchangeEngine` run.
* ``--quota`` — replays an over-quota same-setting batch under
  ``QuotaPolicy(max_in_flight=N)`` several times.  Gates: the rejection
  pattern is identical on every run (admission is deterministic, in
  submission order), rejected slots carry ``QuotaExceededError`` and
  nothing else, admitted neighbours match direct engine results, and all
  in-flight slots drain back to zero.
* ``--workers K`` — the shard-host mode: the same mixed traffic through
  ``executor="host"`` at 1 and at K worker processes, result caches off so
  every repeat pays real compute.  Gates: both passes are **bit-identical**
  to the single-process serial oracle (the parity check compares the exact
  ``(ok, payload)`` views, not summaries), every worker owns at least one
  fingerprint (a scaling claim over an idle worker would be vacuous), no
  worker restarted mid-bench, and — on machines with >= 2 cores — the
  K-worker pass clears ``--scale-min`` (default 1.6x) the 1-worker
  throughput.  On a single-core machine the scaling gate prints a skip
  note and does not fail: there is no parallel hardware to measure.
  Beside each pass's req/s it prints the supervisor's CPU per request
  (this process's ``time.process_time()`` over the timed repeats;
  ``supervisor_cpu_ms`` by worker count in the JSON report).

Usage::

    python benchmarks/bench_service.py --generated 8 --seed 7 \\
        [--settings 3] [--executor thread] [--parallel 4] \\
        [--maxsize 2] [--pipeline] [--quota] [--workers 2] [--json PATH]

``--generated N`` sizes the per-setting request stream (N certain-answers
requests plus one consistency request per setting, interleaved across
settings into one mixed batch).  ``--json PATH`` writes the full report as
machine-readable JSON — the ``BENCH_*.json`` perf-trajectory artifact
(``benchmarks/compare_bench.py`` diffs fresh runs against the committed
baseline; ``--pipeline``/``--quota``/``--workers`` sections are
informational, not baselined — the workers mode gates in-run instead,
because its scaling ratio is relative to the same machine and run).
"""

import argparse
import asyncio
import json
import math
import os
import sys
import time

from repro import ExchangeEngine
from repro.service import (AsyncExchangeService, QuotaExceededError,
                           QuotaPolicy, SettingRegistry,
                           certain_answers_request, consistency_request)
from repro.service.client import ServiceClient
from repro.service.protocol import tree_to_wire
from repro.service.server import serve_in_background
from repro.workloads import library
from repro.workloads.generated import generated_scenarios


def percentile(samples, q):
    """The q-th percentile (0..100) of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def build_traffic(scenarios, per_setting):
    """One consistency + ``per_setting`` certain-answers requests per
    scenario, interleaved round-robin into a mixed-setting stream."""
    per_scenario = []
    for scenario in scenarios:
        fingerprint = scenario.setting.fingerprint()
        stream = [consistency_request(fingerprint)]
        trees, queries = scenario.source_trees, scenario.queries
        for index in range(per_setting):
            stream.append(certain_answers_request(
                fingerprint, trees[index % len(trees)],
                queries[index % len(queries)]))
        per_scenario.append(stream)
    mixed = []
    for position in range(max(len(stream) for stream in per_scenario)):
        for stream in per_scenario:
            if position < len(stream):
                mixed.append(stream[position])
    return mixed


def serial_reference(scenarios, requests):
    """The parity baseline: each request served by a fresh, serial,
    per-setting engine — no service, no router, no shared state."""
    engines = {}
    for scenario in scenarios:
        engines[scenario.setting.fingerprint()] = \
            ExchangeEngine(scenario.setting)
    reference = []
    for request in requests:
        engine = engines[request.fingerprint]
        if request.op == "consistency":
            result = engine.check_consistency(request.strategy)
        else:
            result = engine.certain_answers(request.tree, request.query,
                                            request.variable_order)
        reference.append((result.ok, result.payload))
    return reference


async def run_service(args, requests):
    """The measured passes on one service: batch, warm gather, stats."""
    service = AsyncExchangeService(executor=args.executor,
                                   parallel=args.parallel)
    async with service:
        for scenario in args.scenarios:
            service.register(scenario.setting)

        begun = time.perf_counter()
        slots = await service.batch(requests)
        batch_elapsed = time.perf_counter() - begun

        # Warm per-request latencies: each request awaited individually
        # (concurrently), timed from the await side.
        async def timed(request):
            started = time.perf_counter()
            await service.submit(request)
            return time.perf_counter() - started

        begun = time.perf_counter()
        latencies = await asyncio.gather(*(timed(r) for r in requests))
        gather_elapsed = time.perf_counter() - begun
        stats = service.stats()
    return slots, batch_elapsed, latencies, gather_elapsed, stats


async def run_eviction_pass(args, requests):
    """Repeat the stream under a tiny per-setting cache: payloads must hold
    and the bounded caches must actually evict."""
    service = AsyncExchangeService(executor=args.executor,
                                   parallel=args.parallel,
                                   result_cache_maxsize=args.maxsize)
    async with service:
        for scenario in args.scenarios:
            service.register(scenario.setting)
        first = await service.batch(requests)
        second = await service.batch(requests)
        stats = service.stats()
    evictions = sum(shard["result_cache_evictions"]
                    for shard in stats["shards"].values())
    views = [[(slot.ok, slot.result.payload if slot.result else None)
              for slot in pass_] for pass_ in (first, second)]
    return views, evictions, stats


def build_pipeline_stream(fingerprint, slow_tree, fast_count):
    """One slow solve *first*, ``fast_count`` cheap consistency requests
    behind it — the pathological stream for an arrival-order server."""
    stream = [{"op": "solve", "fingerprint": fingerprint,
               "tree": tree_to_wire(slow_tree)}]
    stream += [{"op": "consistency", "fingerprint": fingerprint}
               for _ in range(fast_count)]
    return stream


def run_pipeline_mode(args):
    """The --pipeline gate: completion-order replies must beat the
    arrival-order schedule on slow-first interleaved traffic."""
    setting = library.library_setting()
    fingerprint = setting.fingerprint()
    slow_tree = library.generate_source(args.slow_books, authors_per_book=3,
                                        seed=args.seed)
    stream = build_pipeline_stream(fingerprint, slow_tree, args.fast)
    direct = ExchangeEngine(setting)
    expected_consistent = direct.check_consistency().payload
    expected_solution = direct.solve(slow_tree).payload

    def run_pass(pipelined):
        """Boot a fresh, identically-warmed server; replay the stream."""
        port, _, join = serve_in_background(executor=args.executor,
                                            parallel=args.parallel)
        with ServiceClient("127.0.0.1", port, timeout=300.0) as client:
            assert client.register(setting, prewarm=True) == fingerprint
            client.check_consistency(fingerprint)   # warm the fast path
            begun = time.perf_counter()
            if pipelined:
                ids = [client.submit(message) for message in stream]
                order, latencies, replies = [], {}, {}
                while client.pending():
                    request_id, reply = client.collect_any()
                    latencies[request_id] = time.perf_counter() - begun
                    order.append(request_id)
                    replies[request_id] = reply
                latencies = [latencies[i] for i in ids]
                replies = [replies[i] for i in ids]
                completion = [ids.index(i) for i in order]
            else:
                latencies, replies = [], []
                for message in stream:
                    reply = client.collect(client.submit(message),
                                           raise_errors=False)
                    latencies.append(time.perf_counter() - begun)
                    replies.append(reply)
                completion = list(range(len(stream)))
            elapsed = time.perf_counter() - begun
            client.shutdown()
        join()
        return latencies, replies, completion, elapsed

    failures = []
    serialized_lat, serialized_replies, _, serialized_elapsed = \
        run_pass(pipelined=False)
    pipelined_lat, pipelined_replies, completion, pipelined_elapsed = \
        run_pass(pipelined=True)

    for label, replies in (("serialized", serialized_replies),
                           ("pipelined", pipelined_replies)):
        bad = [reply for reply in replies if not reply.get("ok")]
        if bad:
            failures.append(f"pipeline/{label}: {len(bad)} request(s) "
                            f"failed: {bad[0]}")
            continue
        if any(reply["consistent"] is not expected_consistent
               for reply in replies[1:]):
            failures.append(f"pipeline/{label}: consistency parity broken")
        solution = replies[0].get("solution")
        if solution is None or not expected_solution.equals(
                _tree_from_wire(solution), respect_order=False):
            failures.append(f"pipeline/{label}: solve parity broken")

    p99 = {"pipelined": percentile(pipelined_lat, 99) * 1e3,
           "serialized": percentile(serialized_lat, 99) * 1e3}
    p50 = {"pipelined": percentile(pipelined_lat, 50) * 1e3,
           "serialized": percentile(serialized_lat, 50) * 1e3}
    overtakes = sum(1 for position, submitted
                    in enumerate(completion) if submitted > position)
    print(f"pipeline mode       : 1 slow solve ({args.slow_books} books) + "
          f"{args.fast} fast requests on one connection")
    print(f"  serialized        : p50 {p50['serialized']:8.2f} ms   "
          f"p99 {p99['serialized']:8.2f} ms   "
          f"({serialized_elapsed * 1e3:.1f} ms total)")
    print(f"  pipelined         : p50 {p50['pipelined']:8.2f} ms   "
          f"p99 {p99['pipelined']:8.2f} ms   "
          f"({pipelined_elapsed * 1e3:.1f} ms total, "
          f"{overtakes} replies overtook)")
    if not p99["pipelined"] < p99["serialized"]:
        failures.append(
            f"pipeline: pipelined p99 {p99['pipelined']:.2f} ms is not "
            f"strictly better than serialized p99 "
            f"{p99['serialized']:.2f} ms")
    if completion and completion[0] == 0:
        failures.append("pipeline: the slow request still completed first — "
                        "replies were not written in completion order")
    return {"slow_books": args.slow_books, "fast_requests": args.fast,
            "p50_ms": p50, "p99_ms": p99,
            "serialized_elapsed_s": serialized_elapsed,
            "pipelined_elapsed_s": pipelined_elapsed,
            "overtaking_replies": overtakes}, failures


def _tree_from_wire(wire):
    from repro.service.protocol import tree_from_wire
    return tree_from_wire(wire, ordered=False)


def run_quota_mode(args):
    """The --quota gate: deterministic, typed, neighbour-safe rejections."""
    scenario = generated_scenarios(1, args.seed)[0]
    setting = scenario.setting
    fingerprint = setting.fingerprint()
    tree, query = scenario.source_trees[0], scenario.queries[0]
    direct = ExchangeEngine(setting)
    expected = direct.certain_answers(tree, query).payload
    total = args.quota_batch
    limit = args.max_in_flight

    async def replay():
        service = AsyncExchangeService(
            executor=args.executor, parallel=args.parallel,
            quota=QuotaPolicy(max_in_flight=limit))
        async with service:
            service.register(setting)
            requests = [certain_answers_request(fingerprint, tree, query)
                        for _ in range(total)]
            patterns = []
            for _ in range(args.quota_repeats):
                slots = await service.batch(requests)
                patterns.append([slot.rejected for slot in slots])
                for slot in slots:
                    if slot.rejected:
                        if not isinstance(slot.error, QuotaExceededError):
                            return patterns, "rejection is not typed", None
                    elif not slot.ok or slot.result.payload != expected:
                        return patterns, "admitted neighbour corrupted", None
            # Await-side: over-quota single submits reject as exceptions.
            outcomes = await asyncio.gather(
                *(service.certain_answers(fingerprint, tree, query)
                  for _ in range(limit + 1)),
                return_exceptions=True)
            stats = service.stats()
        return patterns, None, (outcomes, stats)

    patterns, error, extra = asyncio.run(replay())
    failures = []
    if error:
        failures.append(f"quota: {error}")
    expected_pattern = [False] * limit + [True] * (total - limit)
    if any(pattern != expected_pattern for pattern in patterns):
        failures.append(f"quota: rejection pattern is not deterministic "
                        f"in submission order: {patterns}")
    rejected = sum(sum(pattern) for pattern in patterns)
    print(f"quota mode          : max_in_flight={limit}, "
          f"{total}-request batch x{args.quota_repeats}: "
          f"{rejected} deterministic rejections "
          f"(first {limit} slots admitted every run)")
    if extra is not None:
        outcomes, stats = extra
        raised = [o for o in outcomes
                  if isinstance(o, QuotaExceededError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        print(f"  await-side        : {len(served)} served / "
              f"{len(raised)} rejected of {limit + 1} concurrent submits")
        if not raised:
            failures.append("quota: concurrent submits were never rejected "
                            "await-side")
        if any(not result.ok or result.payload != expected
               for result in served):
            failures.append("quota: a served concurrent submit lost parity")
        if stats["registry"]["in_flight"] != 0:
            failures.append("quota: in-flight slots were not released")
        if stats["registry"]["quota_rejections"] < rejected + len(raised):
            failures.append("quota: rejections are under-counted in stats")
    return {"max_in_flight": limit, "batch": total,
            "repeats": args.quota_repeats, "rejected_per_batch":
            total - limit, "deterministic": not failures}, failures


def _owning_worker(fingerprint, workers):
    """Mirror of ``ShardHost.worker_for``: the stable fingerprint route."""
    return int(fingerprint[:16], 16) % workers


def run_workers_mode(args):
    """The --workers gate: host-executor scaling with a single-process
    parity oracle (see module docs)."""
    workers = args.workers
    # A scaling claim needs every worker busy: grow the scenario count
    # deterministically (same seed, longer prefix) until the fingerprints
    # cover all K workers.  Routing is a stable hash, so this terminates
    # almost immediately in practice.
    scenarios = list(args.scenarios)
    count = len(scenarios)
    while len({_owning_worker(s.setting.fingerprint(), workers)
               for s in scenarios}) < workers and count < workers + 16:
        count += 1
        scenarios = generated_scenarios(count, args.seed)
    assignment = {}
    for scenario in scenarios:
        fingerprint = scenario.setting.fingerprint()
        assignment.setdefault(_owning_worker(fingerprint, workers),
                              []).append(fingerprint[:12])
    requests = build_traffic(scenarios, args.generated)
    reference = serial_reference(scenarios, requests)

    async def host_pass(worker_count):
        """One measured pass: caches off, plans prewarmed, R timed repeats
        of the mixed stream through ``worker_count`` worker processes."""
        service = AsyncExchangeService(
            registry=SettingRegistry(result_cache=False),
            executor="host", parallel=args.parallel, workers=worker_count)
        async with service:
            for scenario in scenarios:
                service.register(scenario.setting, prewarm=True)
            await service.batch(requests)       # warm plans and pipes
            # The supervisor runs in this process: its CPU is ours.
            cpu_begun = time.process_time()
            begun = time.perf_counter()
            for _ in range(args.worker_repeats):
                slots = await service.batch(requests)
            elapsed = time.perf_counter() - begun
            cpu = time.process_time() - cpu_begun
            stats = service.stats()
        view = [(slot.ok, slot.result.payload if slot.result else None)
                for slot in slots]
        return view, elapsed, cpu, stats

    failures = []
    results = {}
    for worker_count in (1, workers):
        view, elapsed, cpu, stats = asyncio.run(host_pass(worker_count))
        served = len(requests) * args.worker_repeats
        throughput = served / max(elapsed, 1e-9)
        supervisor_cpu_ms = cpu * 1e3 / served
        results[worker_count] = (view, throughput, stats, supervisor_cpu_ms)
        restarts = stats["host"]["worker_restarts"]
        print(f"host x{worker_count:<2d} workers   : "
              f"{throughput:8.1f} req/s, supervisor CPU "
              f"{supervisor_cpu_ms:.3f} ms/req ({elapsed * 1e3:.1f} ms for "
              f"{args.worker_repeats}x{len(requests)} requests, "
              f"{restarts} restarts)")
        # Parity oracle: the multi-process serving layer may never change
        # a payload — the views must be *bit-identical* to the serial,
        # single-process, per-setting engines.
        if view != reference:
            mismatches = sum(1 for ours, theirs in zip(view, reference)
                             if ours != theirs)
            failures.append(f"workers: {worker_count}-worker pass differs "
                            f"from the single-process oracle on "
                            f"{mismatches} request(s)")
        if restarts:
            failures.append(f"workers: {restarts} worker restart(s) during "
                            f"the {worker_count}-worker pass")
    if len(assignment) < workers:
        failures.append(f"workers: only {len(assignment)} of {workers} "
                        f"workers own a fingerprint — the workload never "
                        f"balanced, the scaling number is meaningless")

    scaling = results[workers][1] / max(results[1][1], 1e-9)
    cores = os.cpu_count() or 1
    gate = "enforced" if (workers >= 2 and cores >= 2) else "skipped"
    print(f"  scaling 1->{workers}      : {scaling:.2f}x "
          f"(gate >= {args.scale_min:.2f}x {gate}; {cores} core(s))")
    if gate == "enforced" and scaling < args.scale_min:
        failures.append(f"workers: 1->{workers} scaling {scaling:.2f}x is "
                        f"below the {args.scale_min:.2f}x gate")
    elif gate == "skipped":
        print(f"  note              : single-core machine — the scaling "
              f"gate needs parallel hardware and is skipped here; it runs "
              f"on multi-core CI")
    return {"workers": workers, "repeats": args.worker_repeats,
            "requests": len(requests), "settings": len(scenarios),
            "assignment": {str(k): v for k, v in sorted(assignment.items())},
            "throughput_rps": {str(k): results[k][1] for k in results},
            "supervisor_cpu_ms": {str(k): results[k][3] for k in results},
            "scaling_x": scaling, "scale_min": args.scale_min,
            "scale_gate": gate, "cores": cores}, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generated", type=int, default=8, metavar="N",
                        help="certain-answers requests per setting")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--settings", type=int, default=3,
                        help="number of distinct generated settings")
    parser.add_argument("--executor", default="thread",
                        choices=("serial", "thread", "host"))
    parser.add_argument("--parallel", type=int, default=4)
    parser.add_argument("--maxsize", type=int, default=2,
                        help="per-setting result-cache bound for the "
                             "eviction pass")
    parser.add_argument("--pipeline", action="store_true",
                        help="also run the pipelined-vs-serialized "
                             "connection gate")
    parser.add_argument("--slow-books", type=int, default=500,
                        help="size of the slow solve in the pipeline gate")
    parser.add_argument("--fast", type=int, default=150,
                        help="fast requests behind the slow one in the "
                             "pipeline gate (>= 100 keeps the single slow "
                             "sample out of the p99)")
    parser.add_argument("--quota", action="store_true",
                        help="also run the admission-control gate")
    parser.add_argument("--max-in-flight", type=int, default=2,
                        help="per-setting in-flight quota for --quota")
    parser.add_argument("--quota-batch", type=int, default=8,
                        help="same-setting batch size for --quota")
    parser.add_argument("--quota-repeats", type=int, default=3,
                        help="how often --quota replays the batch")
    parser.add_argument("--workers", type=int, default=None, metavar="K",
                        help="also run the shard-host scaling gate: 1 vs K "
                             "worker processes with a single-process "
                             "parity oracle")
    parser.add_argument("--worker-repeats", type=int, default=3,
                        help="timed replays of the stream per --workers "
                             "pass (caches are off, every repeat computes)")
    parser.add_argument("--scale-min", type=float, default=1.6,
                        help="minimum 1->K throughput ratio for --workers "
                             "on multi-core machines")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="enable tracing and append every finished "
                             "span to PATH as JSON lines (render with "
                             "python -m repro.obs.report PATH)")
    args = parser.parse_args(argv)
    if args.pipeline and args.fast < 100:
        parser.error("--fast must be >= 100 so the p99 reflects the fast "
                     "requests, not the one slow sample")
    if args.quota and not 0 < args.max_in_flight < args.quota_batch:
        parser.error("--quota needs 0 < --max-in-flight < --quota-batch "
                     "(otherwise nothing is ever rejected)")
    if args.settings < 2:
        parser.error("--settings must be >= 2 (the point is mixed traffic)")
    if args.workers is not None and args.workers < 2:
        parser.error("--workers must be >= 2 (scaling from 1 to 1 worker "
                     "measures nothing)")

    if args.trace is not None:
        from repro.obs.trace import configure as obs_configure
        obs_configure(trace_path=args.trace)
        print(f"tracing enabled     : spans -> {args.trace}")

    begun = time.perf_counter()
    args.scenarios = generated_scenarios(args.settings, args.seed)
    fingerprints = [s.setting.fingerprint() for s in args.scenarios]
    requests = build_traffic(args.scenarios, args.generated)
    print(f"traffic: {len(requests)} requests over "
          f"{len(set(fingerprints))} distinct settings "
          f"(seed {args.seed}, generated in "
          f"{time.perf_counter() - begun:.2f} s)")

    failures = []
    if len(set(fingerprints)) < 2:
        failures.append("fewer than 2 distinct settings in the workload")

    slots, batch_elapsed, latencies, gather_elapsed, stats = \
        asyncio.run(run_service(args, requests))

    n = len(requests)
    throughput = n / max(batch_elapsed, 1e-9)
    print(f"mixed batch ({args.executor} x{args.parallel}) : "
          f"{throughput:8.1f} req/s ({batch_elapsed * 1e3:.1f} ms total)")
    lat_ms = {f"p{q}": percentile(latencies, q) * 1e3 for q in (50, 90, 99)}
    print(f"warm await latency  : p50 {lat_ms['p50']:6.2f} ms   "
          f"p90 {lat_ms['p90']:6.2f} ms   p99 {lat_ms['p99']:6.2f} ms "
          f"({n / max(gather_elapsed, 1e-9):.1f} req/s gathered)")

    registry_stats = stats["registry"]
    shard_hits = registry_stats["compiled_hits"]
    shard_misses = registry_stats["compiled_misses"]
    shard_rate = shard_hits / max(shard_hits + shard_misses, 1)
    cache_hits = sum(s["result_cache_hits"] for s in stats["shards"].values())
    cache_misses = sum(s["result_cache_misses"]
                       for s in stats["shards"].values())
    cache_rate = cache_hits / max(cache_hits + cache_misses, 1)
    print(f"shard routing       : {shard_hits} hits / {shard_misses} "
          f"compiles ({shard_rate:.0%} hit rate, "
          f"{registry_stats['compiled_entries']} shards)")
    print(f"result cache        : {cache_hits} hits / {cache_misses} misses "
          f"({cache_rate:.0%} hit rate)")
    plan_hits = registry_stats.get("plan_cache_hits", 0)
    plan_misses = registry_stats.get("plan_cache_misses", 0)
    plan_rate = plan_hits / max(plan_hits + plan_misses, 1)
    print(f"plan cache          : {plan_hits} hits / {plan_misses} "
          f"compilations ({plan_rate:.0%} hit rate across shards)")
    # Gate (deterministic): each shard compiles a query's plan at most once
    # — the second evaluation of any query on a shard must be a hit.  LRU
    # evictions legitimately force recompiles, so they don't count against
    # the gate (this workload never evicts plans, but the arithmetic stays
    # honest if a future run does).
    for fingerprint, shard_stats in stats["shards"].items():
        budget = (shard_stats["plan_cache_entries"]
                  + shard_stats["plan_cache_evictions"])
        if shard_stats["plan_cache_misses"] > budget:
            failures.append(
                f"plan cache: shard {fingerprint[:12]} recompiled a plan "
                f"({shard_stats['plan_cache_misses']} misses for "
                f"{budget} entries+evictions)")

    # Gate: per-shard results identical to serial per-setting engines.
    failed = [slot for slot in slots if slot.failed]
    if failed:
        failures.append(f"{len(failed)} request(s) failed in the batch: "
                        f"{failed[0].error!r}")
    else:
        reference = serial_reference(args.scenarios, requests)
        service_view = [(slot.ok, slot.result.payload) for slot in slots]
        if service_view != reference:
            mismatches = sum(1 for ours, theirs
                             in zip(service_view, reference)
                             if ours != theirs)
            failures.append(f"parity: {mismatches} request(s) differ from "
                            f"serial per-setting engines")
        else:
            print(f"parity              : all {n} results equal serial "
                  f"per-setting engine runs")
        if any(slot.fingerprint != request.fingerprint
               for slot, request in zip(slots, requests)):
            failures.append("routing: a request was served by a foreign shard")

    # Gate: bounded caches evict without changing payloads.
    views, evictions, eviction_stats = \
        asyncio.run(run_eviction_pass(args, requests))
    print(f"eviction pass       : {evictions} evictions under "
          f"maxsize={args.maxsize} "
          f"(entries <= {args.maxsize} per shard)")
    if evictions <= 0:
        failures.append(f"eviction: maxsize={args.maxsize} produced no "
                        f"evictions on a repeat pass")
    if views[0] != views[1]:
        failures.append("eviction: repeat pass changed payloads")
    if not failed and views[0] != [
            (slot.ok, slot.result.payload) for slot in slots]:
        failures.append("eviction: bounded cache changed payloads vs "
                        "unbounded service")

    pipeline_report = quota_report = workers_report = None
    if args.pipeline:
        pipeline_report, pipeline_failures = run_pipeline_mode(args)
        failures.extend(pipeline_failures)
    if args.quota:
        quota_report, quota_failures = run_quota_mode(args)
        failures.extend(quota_failures)
    if args.workers is not None:
        workers_report, workers_failures = run_workers_mode(args)
        failures.extend(workers_failures)

    report = {
        "bench": "service",
        "seed": args.seed,
        "settings": len(set(fingerprints)),
        "fingerprints": sorted(fp[:16] for fp in set(fingerprints)),
        "requests": n,
        "executor": args.executor,
        "parallel": args.parallel,
        "throughput_rps": throughput,
        "batch_elapsed_s": batch_elapsed,
        "latency_ms": lat_ms,
        "shard_hit_rate": shard_rate,
        "result_cache_hit_rate": cache_rate,
        "result_cache_hits": cache_hits,
        "result_cache_misses": cache_misses,
        "plan_cache_hit_rate": plan_rate,
        "plan_cache_hits": plan_hits,
        "plan_cache_misses": plan_misses,
        "eviction_maxsize": args.maxsize,
        "evictions": evictions,
        "failures": failures,
    }
    if pipeline_report is not None:
        report["pipeline"] = pipeline_report
    if quota_report is not None:
        report["quota"] = quota_report
    if workers_report is not None:
        report["workers"] = workers_report
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"json report         : {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
