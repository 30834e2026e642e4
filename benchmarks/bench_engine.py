"""E15 — the engine API: cold compile vs warm cache, and batch throughput.

The engine's contract is that everything derivable from the setting alone is
paid for once (``compile_setting``) and every later request only does
per-tree work.  This file pins that claim down as the perf baseline for
future PRs:

* ``cold``  — the legacy per-call path of a stateless service: every request
  re-parses the DTDs into a fresh setting, so content-model NFAs and
  univocality analyses are recompiled per call;
* ``warm``  — one :class:`repro.ExchangeEngine` serving repeated requests on
  the same compiled setting (cache-stats counters prove the reuse);
* ``batch`` — trees/second of ``certain_answers_batch`` (an
  order-preserving loop over ``certain_answers``).

Runs both under pytest-benchmark (like the other E-files) and standalone::

    python benchmarks/bench_engine.py [--smoke]

The ``--generated N --seed S`` mode benchmarks a *generated* workload
(:func:`repro.workloads.generated.benchmark_workload`) instead of the fixed
library schema: batch throughput on the tree set with a fresh result cache,
then a repeat pass demonstrating the engine-level result cache on repeated
trees::

    python benchmarks/bench_engine.py --generated 50 --seed 7

Exit-code gates are deterministic only (repeat-pass parity, cache hits on
the repeat pass, zero recompilations); raw throughput is reported but
machine-dependent.
"""

import argparse
import json
import sys
import time

from repro import ExchangeEngine, certain_answers, check_consistency
from repro.workloads import library


def _cold_request(source, query):
    # What a stateless service does per request: rebuild the setting
    # (library_setting() re-parses both DTDs, so every content-model
    # compilation is lost) before answering.
    setting = library.library_setting()
    check_consistency(setting)
    return certain_answers(setting, source, query)


def _sources(n_trees: int, n_books: int):
    return [library.generate_source(n_books, authors_per_book=2, seed=seed)
            for seed in range(n_trees)]


# --------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------- #

def test_cold_per_call_certain_answers(benchmark):
    """Legacy per-call path: fresh setting (and NFA compilation) per request."""
    source = library.generate_source(20, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    outcome = benchmark(lambda: _cold_request(source, query))
    assert outcome.has_solution


def test_warm_engine_certain_answers(benchmark):
    """Engine path: the compiled setting is reused across requests."""
    source = library.generate_source(20, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")
    engine = ExchangeEngine(library.library_setting())
    engine.check_consistency()

    def request():
        engine.check_consistency()
        return engine.certain_answers(source, query)

    result = benchmark(request)
    assert result.ok
    stats = engine.stats
    assert stats["rule_cache_misses"] == 0, "warm engine recompiled an NFA"
    assert stats["rule_cache_hits"] > 0


def test_batch_throughput(benchmark):
    """certain_answers_batch over many trees with a shared compiled setting."""
    engine = ExchangeEngine(library.library_setting())
    sources = _sources(16, n_books=10)
    query = library.query_writer_of("Book-0")
    results = benchmark(lambda: engine.certain_answers_batch(sources, query))
    assert all(r.ok for r in results)


# --------------------------------------------------------------------- #
# Standalone runner (no pytest-benchmark dependency)
# --------------------------------------------------------------------- #

def _write_json(path, report) -> None:
    """The ``--json PATH`` artifact: one flat machine-readable result file
    (the ``BENCH_*.json`` perf-trajectory format)."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"json report         : {path}")


def _time(operation, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - started)
    return best


def run_generated(args) -> int:
    """The ``--generated N`` mode: batch throughput on a seeded workload."""
    from repro.workloads.generated import benchmark_workload

    started = time.perf_counter()
    workload = benchmark_workload(args.seed, args.generated)
    query = workload.queries[0]
    trees = workload.source_trees
    engine = ExchangeEngine(workload.setting)
    print(workload.describe())
    print(f"setting fingerprint : {workload.setting.fingerprint()[:16]}")
    print(f"tree nodes min/max  : {min(len(t) for t in trees)}"
          f"/{max(len(t) for t in trees)}")
    print(f"workload generation : {time.perf_counter() - started:6.2f} s")

    begun = time.perf_counter()
    serial_results = engine.certain_answers_batch(trees, query)
    serial_time = time.perf_counter() - begun
    n = len(trees)
    print(f"batch serial        : {n / serial_time:8.1f} trees/s")

    # Repeat pass on the warm engine: every tree repeats, so the result
    # cache must answer without re-computing.
    hits_before = engine.stats["result_cache_hits"]
    begun = time.perf_counter()
    repeat_results = engine.certain_answers_batch(trees, query)
    repeat_time = time.perf_counter() - begun
    cache_hits = engine.stats["result_cache_hits"] - hits_before
    print(f"repeat batch (warm) : {n / max(repeat_time, 1e-9):8.1f} trees/s "
          f"({cache_hits} result-cache hits)")

    failures = 0
    if ([(r.ok, r.payload) for r in serial_results]
            != [(r.ok, r.payload) for r in repeat_results]):
        print("FAIL: the cached repeat pass returned different results",
              file=sys.stderr)
        failures += 1
    if cache_hits <= 0:
        print("FAIL: repeated trees produced no result-cache hits",
              file=sys.stderr)
        failures += 1
    if engine.stats["rule_cache_misses"] != 0:
        print("FAIL: the engine recompiled a content model after compile",
              file=sys.stderr)
        failures += 1
    _write_json(args.json, {
        "bench": "engine-generated",
        "seed": args.seed,
        "trees": n,
        "setting_fingerprint": workload.setting.fingerprint()[:16],
        "serial_tps": n / serial_time,
        "repeat_tps": n / max(repeat_time, 1e-9),
        "result_cache_hits": cache_hits,
        "rule_cache_misses": engine.stats["rule_cache_misses"],
        "failure_count": failures,
    })
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, assert the warm path wins")
    parser.add_argument("--repeat", type=int, default=None)
    parser.add_argument("--generated", type=int, default=None, metavar="N",
                        help="benchmark a generated workload of N trees "
                             "instead of the library schema")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed for --generated")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable result file")
    args = parser.parse_args(argv)
    if args.generated is not None:
        return run_generated(args)
    repeat = args.repeat or (5 if args.smoke else 25)
    n_books = 10 if args.smoke else 50
    n_trees = 8 if args.smoke else 32

    source = library.generate_source(n_books, authors_per_book=2, seed=1)
    query = library.query_writer_of("Book-0")

    cold = _time(lambda: _cold_request(source, query), repeat)

    # result_cache=False: this baseline measures compiled-setting reuse of
    # the full pipeline; the --generated mode showcases the result cache.
    engine = ExchangeEngine(library.library_setting(), result_cache=False)
    engine.check_consistency()
    engine.certain_answers(source, query)          # prime every cache
    warm = _time(lambda: (engine.check_consistency(),
                          engine.certain_answers(source, query)), repeat)
    stats = engine.stats

    sources = _sources(n_trees, n_books)
    seq = _time(lambda: engine.certain_answers_batch(sources, query), 3)

    print(f"cold per-call (rebuild setting) : {cold * 1e3:8.2f} ms/request")
    print(f"warm engine (compiled setting)  : {warm * 1e3:8.2f} ms/request "
          f"({cold / warm:4.1f}x)")
    print(f"batch sequential                : {n_trees / seq:8.1f} trees/s")
    print(f"rule-cache since compile        : {stats['rule_cache_hits']} hits, "
          f"{stats['rule_cache_misses']} misses")
    print(f"nested-relational skeleton cache: {stats.get('nr_skeletons_hits', 0)} hits, "
          f"{stats.get('nr_skeletons_misses', 0)} misses")

    if warm >= cold:
        # Timing is machine/load dependent; report it, but only the
        # deterministic cache invariant below gates the exit code.
        print(f"WARNING: warm path ({warm * 1e3:.2f} ms) did not beat the "
              f"cold path ({cold * 1e3:.2f} ms) on this run", file=sys.stderr)
    recompiled = stats["rule_cache_misses"] != 0
    _write_json(args.json, {
        "bench": "engine-library",
        "smoke": bool(args.smoke),
        "repeat": repeat,
        "trees": n_trees,
        "cold_ms": cold * 1e3,
        "warm_ms": warm * 1e3,
        "speedup": cold / warm,
        "batch_sequential_tps": n_trees / seq,
        "rule_cache_hits": stats["rule_cache_hits"],
        "rule_cache_misses": stats["rule_cache_misses"],
        "failure_count": 1 if recompiled else 0,
    })
    if recompiled:
        print("FAIL: warm engine recompiled a content model after compile",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
