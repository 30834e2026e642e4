"""ReproStore: corpus ingest, fingerprint-addressed reads, plan-warm restarts.

The storage layer's claim is that a corpus ingested once serves forever:
documents live on disk in the columnar pre/post encoding, requests address
them by fingerprint instead of re-uploading trees, and a restarted process
answers its first request plan-warm.  This bench pins the claim as a perf
baseline of its own, orthogonal to the chase-dominated engine bench:

* ``ingest_dps``  — documents/second through chunked bulk ingest
  (``put_trees`` into a fresh on-disk store, fsync-per-chunk included);
* ``read_dps``    — documents/second rebuilt from a *cold* read-only
  handle (mmap read + columnar decode + thaw, no LRU help);
* ``fp_eps``      — certain-answers evaluations/second with every request
  fingerprint-addressed against the store, the steady state of a shard
  serving a stored corpus.

Exit-code gates are deterministic only: fingerprint-addressed answers are
bit-identical to inline-tree answers on every (document, query) pair,
store counters account exactly (zero misses on a fully resolved pass, a
typed ``UnknownDocumentError`` on an absent fingerprint), and a fresh
registry restored from the store is plan-warm (``prewarm_hits``, zero
``compiled_misses``).  Raw throughputs are reported and fed to
``compare_bench.py`` (bench kind ``"storage"``) against the committed
``benchmarks/BENCH_storage.json``.

Run standalone::

    python benchmarks/bench_storage.py --generated 25 --seed 7 \\
        [--repeat 3] [--json PATH]
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.engine import ExchangeEngine, compile_setting
from repro.service import AsyncExchangeService, SettingRegistry
from repro.storage import CorpusStore, UnknownDocumentError
from repro.workloads.generated import benchmark_workload


def _write_json(path, report) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"json report         : {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--generated", type=int, default=25, metavar="N",
                        help="trees in the benchmark corpus (default 25)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing passes; the best one is reported")
    parser.add_argument("--chunk-docs", type=int, default=8,
                        help="ingest chunk size (default 8: several "
                             "fsync'd commits per pass)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable result file")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    workload = benchmark_workload(args.seed, args.generated)
    trees = workload.source_trees
    queries = workload.queries
    compiled = compile_setting(workload.setting)
    nodes = sum(len(tree) for tree in trees)
    print(f"corpus              : {len(trees)} trees, {nodes} nodes, "
          f"{len(queries)} queries "
          f"(generated in {time.perf_counter() - started:.2f} s)")

    failures = []

    def timed(operation):
        best = float("inf")
        outcome = None
        for _ in range(args.repeat):
            begun = time.perf_counter()
            outcome = operation()
            best = min(best, time.perf_counter() - begun)
        return best, outcome

    with tempfile.TemporaryDirectory() as tmp:
        # ------------------------------------------------------------- #
        # Ingest: a fresh store per pass — re-ingesting the same corpus
        # would dedup by fingerprint and measure nothing.
        # ------------------------------------------------------------- #
        counter = iter(range(args.repeat))

        def ingest_pass():
            path = Path(tmp) / f"ingest-{next(counter)}"
            with CorpusStore(path, chunk_docs=args.chunk_docs) as store:
                return path, store.put_trees(trees)

        ingest_time, (store_path, fingerprints) = timed(ingest_pass)
        ingest_dps = len(trees) / max(ingest_time, 1e-9)

        with CorpusStore(store_path, read_only=True) as store:
            summary = store.summary()
        data_bytes = summary["store_data_bytes"]
        bytes_per_node = data_bytes / max(nodes, 1)
        print(f"ingest              : {ingest_dps:10.1f} docs/s "
              f"({data_bytes} heap bytes, {bytes_per_node:.1f} B/node, "
              f"chunk_docs={args.chunk_docs})")
        if summary["store_documents"] != len(trees):
            failures.append(
                f"catalog: {summary['store_documents']} documents after "
                f"ingesting {len(trees)} trees")

        # ------------------------------------------------------------- #
        # Cold reads: a fresh read-only handle per pass, so every load
        # pays mmap read + columnar decode + thaw.
        # ------------------------------------------------------------- #
        def read_pass():
            with CorpusStore(store_path, read_only=True) as reader:
                loaded = [reader.get_frozen(fp).thaw() for fp in fingerprints]
            return loaded

        read_time, loaded = timed(read_pass)
        read_dps = len(trees) / max(read_time, 1e-9)
        print(f"cold read           : {read_dps:10.1f} docs/s")
        if [tree.fingerprint() for tree in loaded] != fingerprints:
            failures.append("cold read: reloaded fingerprints drifted "
                            "from the ingested ones")

        # ------------------------------------------------------------- #
        # Fingerprint-addressed serving: every request carries a
        # fingerprint; the engine resolves it against the store.  A fresh
        # engine + handle per pass keeps the result cache out of the
        # timing (this measures resolution + evaluation, not memoisation).
        # ------------------------------------------------------------- #
        query = queries[0]

        def fp_pass():
            engine = ExchangeEngine(compiled, result_cache=False)
            engine.attach_store(CorpusStore(store_path, read_only=True))
            return engine, [engine.certain_answers(fp, query).payload
                            for fp in fingerprints]

        fp_time, (engine, fp_answers) = timed(fp_pass)
        fp_eps = len(trees) / max(fp_time, 1e-9)
        print(f"fp-addressed eval   : {fp_eps:10.1f} evals/s")

        # Gate: fingerprint-addressed answers == inline-tree answers.
        oracle = ExchangeEngine(compiled, result_cache=False)
        inline_answers = [oracle.certain_answers(tree, query).payload
                          for tree in trees]
        if fp_answers != inline_answers:
            mismatches = sum(1 for a, b in zip(fp_answers, inline_answers)
                             if a != b)
            failures.append(f"parity: {mismatches} of {len(trees)} "
                            f"documents answer differently by fingerprint "
                            f"than inline")
        else:
            print(f"parity              : all {len(trees)} documents equal "
                  f"fp-addressed vs inline")

        # Gate: exact store accounting — a fully resolved pass has zero
        # misses, and an absent fingerprint is a typed error.
        stats = engine.stats
        if stats["store_misses"] != 0 or stats["store_hits"] < len(trees):
            failures.append(f"counters: store_hits={stats['store_hits']} "
                            f"store_misses={stats['store_misses']} after a "
                            f"fully resolved pass over {len(trees)} docs")
        try:
            engine.certain_answers("ab" * 32, query)
        except UnknownDocumentError as error:
            if error.fingerprint != "ab" * 32:
                failures.append("typed miss lost the fingerprint")
        else:
            failures.append("absent fingerprint did not raise "
                            "UnknownDocumentError")

        # ------------------------------------------------------------- #
        # Gate: plan-warm restart — persist the compiled setting, restore
        # into a fresh registry, first request compiles nothing.
        # ------------------------------------------------------------- #
        with CorpusStore(store_path) as writer:
            writer.put_setting(compiled, prewarm=True)
        service = AsyncExchangeService(
            registry=SettingRegistry(store=store_path, store_read_only=True),
            executor="serial")
        registry = service.registry
        restored = service.restore_settings()
        answers = registry.shard(restored[0]).engine.certain_answers(
            fingerprints[0], query)
        registry_stats = registry.stats()
        service.close()
        if (registry_stats["compiled_misses"] != 0
                or registry_stats["prewarm_hits"] < 1):
            failures.append(
                f"restart: compiled_misses="
                f"{registry_stats['compiled_misses']} prewarm_hits="
                f"{registry_stats['prewarm_hits']} after restore")
        elif answers.payload != inline_answers[0]:
            failures.append("restart: restored registry answered "
                            "differently than the oracle")
        else:
            print(f"plan-warm restart   : {len(restored)} setting(s) "
                  f"restored, first request compiled nothing")

    _write_json(args.json, {
        "bench": "storage",
        "seed": args.seed,
        "trees": len(trees),
        "nodes": nodes,
        "repeat": args.repeat,
        "chunk_docs": args.chunk_docs,
        "ingest_dps": ingest_dps,
        "read_dps": read_dps,
        "fp_eps": fp_eps,
        "store_data_bytes": data_bytes,
        "bytes_per_node": bytes_per_node,
        "failures": failures,
    })
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
