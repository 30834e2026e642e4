#!/usr/bin/env python3
"""Quickstart for the serving layer: two settings behind one async service.

Where ``examples/quickstart.py`` compiles one setting into one engine, this
example runs the shape of a long-lived server: a :class:`SettingRegistry`
admitting **two** different exchange settings (the paper's bibliography
example and the Clio-style company scenario), an
:class:`AsyncExchangeService` routing awaitable requests to each setting's
shard by fingerprint, and one mixed-setting batch whose per-setting groups
run concurrently and come back in submission order.

Run with:  python examples/service_quickstart.py
"""

import asyncio
import subprocess
import sys

from repro.service import (AsyncExchangeService, QuotaExceededError,
                           QuotaPolicy, SettingRegistry,
                           certain_answers_request, consistency_request)
from repro.service.client import ServiceClient
from repro.workloads import library, nested_relational


async def main() -> None:
    # One registry holds every tenant's setting; compilation is lazy and
    # the compiled set is LRU-bounded (here: at most 8 compiled settings,
    # each with at most 256 cached results — per setting, so tenants
    # cannot evict each other's entries).
    registry = SettingRegistry(max_compiled=8, result_cache_maxsize=256)

    async with AsyncExchangeService(registry, executor="thread",
                                    parallel=4) as service:
        # ------------------------------------------------------------- #
        # 1. Admit two settings; fingerprints are the routing keys.
        # ------------------------------------------------------------- #
        bib = library.library_setting()
        company = nested_relational.company_setting()
        bib_key = service.register(bib)
        company_key = service.register(company)
        print(f"bibliography setting : {bib_key[:16]}…")
        print(f"company setting      : {company_key[:16]}…")

        # ------------------------------------------------------------- #
        # 2. Awaitable single requests, routed by fingerprint.
        # ------------------------------------------------------------- #
        print("bib consistent       :",
              (await service.check_consistency(bib_key)).payload)
        print("company consistent   :",
              (await service.check_consistency(company_key)).payload)

        bib_tree = library.generate_source(4, authors_per_book=2, seed=1)
        who_wrote = library.query_writer_of("Book-0")
        answers = await service.certain_answers(bib_key, bib_tree, who_wrote)
        print("writers of Book-0    :", sorted(answers.payload))

        company_tree = nested_relational.generate_company_source(
            2, employees_per_dept=2, projects_per_dept=2)
        projects = nested_relational.query_projects_of("Dept-0")
        answers = await service.certain_answers(company_key, company_tree,
                                                projects)
        print("projects of Dept-0   :", sorted(answers.payload))

        # ------------------------------------------------------------- #
        # 3. One mixed-setting batch: the service groups it by setting,
        #    runs the groups concurrently (each group's requests in turn
        #    on its shard) and returns one slot per request, in order.
        # ------------------------------------------------------------- #
        mixed = [
            certain_answers_request(bib_key, bib_tree, who_wrote),
            consistency_request(company_key),
            certain_answers_request(company_key, company_tree, projects),
            consistency_request(bib_key),
            certain_answers_request(bib_key, bib_tree, who_wrote),  # repeat
        ]
        slots = await service.batch(mixed)
        for slot, request in zip(slots, mixed):
            label = "bib" if slot.fingerprint == bib_key else "company"
            print(f"batch[{slot.index}] {label:7s} {request.op:15s} "
                  f"ok={slot.ok}")

        # The repeated request was served from the shard's result cache.
        stats = service.stats()
        shard = stats["shards"][bib_key]
        print(f"bib shard            : {shard['requests']} requests, "
              f"{shard['result_cache_hits']} result-cache hits")
        print(f"registry             : {stats['registry']}")


async def quota_demo() -> None:
    """Admission control: over-quota slots fail fast, typed, in order —
    they never queue and never touch their admitted neighbours."""
    bib = library.library_setting()
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    async with AsyncExchangeService(
            executor="thread", parallel=4,
            quota=QuotaPolicy(max_in_flight=2)) as service:
        # prewarm=True compiles ahead, so even the first request below
        # pays no compile latency (see prewarm_* in the registry stats).
        bib_key = service.register(bib, prewarm=True)
        slots = await service.batch(
            [certain_answers_request(bib_key, tree, query)] * 4)
        for slot in slots:
            verdict = ("rejected: " + str(slot.error)[:40] + "…"
                       if slot.rejected else
                       f"ok, {len(slot.result.payload)} answers")
            print(f"quota batch[{slot.index}]       : {verdict}")
        # Await-side, the same rejection arrives as a typed exception.
        try:
            await asyncio.gather(
                *(service.certain_answers(bib_key, tree, query)
                  for _ in range(3)))
        except QuotaExceededError as error:
            print(f"await-side rejection : {type(error).__name__} "
                  f"(kind={error.kind}, limit={error.limit})")


async def shard_host_demo() -> None:
    """Multi-process serving: ``executor="host"`` spawns one long-lived
    worker process per requested slot (default: one per core — here two,
    to keep the demo cheap).  Each worker owns a full registry slice, so
    compiled settings and caches stay warm *in the worker* across
    requests; the supervisor routes by fingerprint and restarts crashed
    workers transparently.  The same flag reaches the JSON-lines server
    as ``python -m repro.service.server --workers K``."""
    bib = library.library_setting()
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    async with AsyncExchangeService(executor="host", workers=2) as service:
        bib_key = service.register(bib, prewarm=True)
        answers = await service.certain_answers(bib_key, tree, query)
        print("host-mode answers    :", sorted(answers.payload))
        stats = service.stats()
        pids = [worker["pid"] for worker in stats["host"]["per_worker"]]
        print(f"host workers         : {stats['host']['workers']} "
              f"processes (pids {pids}), "
              f"{stats['host']['worker_restarts']} restarts")


async def traced_request_demo() -> None:
    """Observability: switch tracing on, serve one host-mode request, and
    read the request back as a single span tree crossing the process
    boundary — supervisor spans (admission, executor queueing, the pipe
    round-trip) and worker spans (the chase, the freeze, the compiled-plan
    run) re-parented into one tree.  The same spans drive ``--trace PATH``
    on the server and ``bench_service.py``, the ``trace_dump`` wire op and
    ``python -m repro.obs.report``."""
    from repro.obs import trace
    from repro.obs.report import phase_rows, render_table

    bib = library.library_setting()
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    async with AsyncExchangeService(executor="host", workers=2) as service:
        bib_key = service.register(bib, prewarm=True)
        trace.configure()           # tracing on; off by default (<2% rule)
        try:
            await service.certain_answers(bib_key, tree, query)
        finally:
            trace.disable()
    spans = trace.drain()
    root = next(span for span in spans
                if span["parent"] is None and span["name"] == "service.request")
    request_spans = [span for span in spans
                     if span["trace"] == root["trace"]]
    pids = {span["pid"] for span in request_spans}
    print(f"traced request       : {len(request_spans)} spans across "
          f"{len(pids)} processes, one tree:")
    print(trace.format_trace(request_spans))
    print("per-phase latency    :")
    print(render_table(phase_rows(request_spans)))


def pipelined_client_demo() -> None:
    """The wire-level view: a pipelined client sends a burst of requests
    down one connection and collects replies in completion order."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.server", "--port", "0",
         "--max-in-flight", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = process.stdout.readline().strip()
        host, port = banner.split()[-1].rsplit(":", 1)
        with ServiceClient(host, int(port)) as client:
            bib_key = client.register(library.library_setting(),
                                      prewarm=True)
            # pipeline(): all three requests are on the wire before the
            # first reply is read; results come back in submission order.
            replies = client.pipeline([
                {"op": "consistency", "fingerprint": bib_key},
                {"op": "ping"},
                {"op": "consistency", "fingerprint": bib_key},
            ])
            print(f"pipelined replies    : "
                  f"{[reply['op'] for reply in replies]}")
            client.shutdown()
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()


if __name__ == "__main__":
    asyncio.run(main())
    asyncio.run(quota_demo())
    asyncio.run(shard_host_demo())
    asyncio.run(traced_request_demo())
    pipelined_client_demo()
