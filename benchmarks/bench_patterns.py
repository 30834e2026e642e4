"""Pattern evaluation: the interpreter vs compiled plans on generated trees.

The PlanCompiler's claim is that lowering a CTQ//,∪ query once into a
slot-based plan and running it over a frozen tree beats re-interpreting the
pattern AST per (query, node).  This bench pins that claim as a perf
baseline of its own, orthogonal to the chase-dominated engine bench:

* ``interpreter_eps`` — evaluations/second of ``Query.answers`` (the
  memoised :class:`~repro.patterns.evaluate.PatternMatcher` oracle);
* ``plan_eps``       — evaluations/second of the *full* plan path, paying
  ``freeze()`` per tree and the plan-cache lookup per query, as a cold
  request would;
* ``plan_warm_eps``  — evaluations/second with frozen trees and compiled
  plans amortised, the steady state of a warm shard.

Exit-code gates are deterministic only: plan/interpreter parity on every
(tree, query) pair and exact plan-cache accounting (one compile per query
fingerprint across repeated passes).  Raw speedups are reported and fed to
``compare_bench.py`` (bench kind ``"patterns"``) against the committed
``benchmarks/BENCH_patterns.json``.

``--selective`` switches to the selective bench: synthetic *wide* trees
(thousands of filler nodes, a handful of rare ``shelf → book → author``
chains) against label-selective and ``//`` queries — the shape where
plans seeded from ``nodes_by_label`` should dominate.  The gates are
answer parity with the interpreter, exact ``plan_join_runs`` accounting
(one event per pattern run, every repeat included) and a ≥10×
plan-vs-interpreter speedup (bench kind ``"patterns-selective"``,
committed baseline ``benchmarks/BENCH_patterns_selective.json``).

Run standalone::

    python benchmarks/bench_patterns.py --generated 30 --seed 7 \\
        [--repeat 3] [--json PATH]
    python benchmarks/bench_patterns.py --selective --seed 7 [--json PATH]
"""

import argparse
import json
import random
import sys
import time

from repro import XMLTree
from repro.engine.stats import CacheStats
from repro.generators import scenario_batch
from repro.patterns import (PlanCache, compile_query, descendant, node,
                            pattern_query, union_query)
from repro.workloads.generated import benchmark_workload


def _selective_tree(rng, width):
    """One wide tree: ``width`` filler rows under the root (some with a
    child and attributes, so the interpreter really pays per node) plus a
    few rare shelf → book → author chains — tiny ``nodes_by_label`` seeds
    on a big document."""
    tree = XMLTree("db", ordered=False)
    for index in range(width):
        row = tree.add_child(tree.root, "row")
        tree.set_attribute(row, "k", str(index % 17))
        if index % 3 == 0:
            tree.add_child(row, "cell")
    for shelf_index in range(3):
        shelf = tree.add_child(tree.root, "shelf")
        for book_index in range(2):
            book = tree.add_child(shelf, "book")
            tree.set_attribute(book, "title",
                               f"T{shelf_index}-{book_index}")
            author = tree.add_child(book, "author")
            tree.set_attribute(author, "name", rng.choice("ABC"))
            tree.set_attribute(author, "aff", rng.choice("UV"))
    return tree


def _selective_queries():
    """Label-selective shapes: rooted chains, ``//`` hops, a union of
    mixed-selectivity arms."""
    return [
        pattern_query(node("shelf", None,
                           node("book", {"title": "$t"},
                                node("author", {"name": "$n"})))),
        pattern_query(descendant(node("author", {"name": "$n",
                                                 "aff": "$a"}))),
        pattern_query(node("db", None,
                           descendant(node("book", {"title": "$t"})))),
        union_query(
            pattern_query(descendant(node("author", {"name": "$n"}))),
            pattern_query(node("row", {"k": "$n"}))),
    ]


def _run_selective(args) -> int:
    rng = random.Random(args.seed)
    trees = [_selective_tree(rng, width=1500) for _ in range(6)]
    queries = _selective_queries()
    pairs = [(tree, query) for tree in trees for query in queries]
    n = len(pairs)
    nodes = sum(len(tree) for tree, _ in pairs)
    print(f"selective workload  : {len(trees)} wide trees × "
          f"{len(queries)} queries, {n} pairs, {nodes} tree-node visits "
          f"per pass")

    failures = []

    def timed(operation):
        best = float("inf")
        outcome = None
        for _ in range(args.repeat):
            begun = time.perf_counter()
            outcome = operation()
            best = min(best, time.perf_counter() - begun)
        return best, outcome

    # Plans and freezes amortised: this bench isolates *evaluation*.
    frozen_pairs = [(tree.freeze(), compile_query(query))
                    for tree, query in pairs]
    stats = CacheStats()
    join_time, join_rows = timed(
        lambda: [plan.rows(frozen, stats=stats)
                 for frozen, plan in frozen_pairs])
    interp_time, interp_answers = timed(
        lambda: [query.answers(tree) for tree, query in pairs])

    interpreter_eps = n / max(interp_time, 1e-9)
    join_eps = n / max(join_time, 1e-9)
    join_speedup = join_eps / interpreter_eps
    print(f"interpreter         : {interpreter_eps:10.1f} evals/s")
    print(f"plan                : {join_eps:10.1f} evals/s "
          f"({join_speedup:5.1f}x)")

    # Gate: answer parity with the interpreter on every pair.
    planned_answers = [
        {tuple(row[slot] for slot in plan.free_slots) for row in rows}
        for rows, (_, plan) in zip(join_rows, frozen_pairs)]
    if planned_answers != interp_answers:  # both in free-variable order
        mismatches = sum(1 for a, b in zip(planned_answers, interp_answers)
                         if a != b)
        failures.append(f"interpreter parity: {mismatches} of {n} pairs "
                        "differ between plan rows and the oracle")
    else:
        print(f"parity              : all {n} pairs equal across "
              "plan / interpreter")

    # Gate: exact accounting — one plan_join_runs event per pattern run,
    # every repeat included.
    pattern_runs = sum(len(list(query.patterns())) for _, query in pairs)
    joins = stats.counts("plan_join_runs")
    if joins != pattern_runs * args.repeat:
        failures.append(f"run accounting: {joins} plan_join_runs events "
                        f"for {pattern_runs} pattern runs x "
                        f"{args.repeat} passes")
    else:
        print(f"run accounting      : {pattern_runs} pattern runs per "
              f"pass, counters exact over {args.repeat} passes")

    # Gate: ≥10× the interpreter on label-selective queries (measured
    # margin is far larger; 10 keeps the gate robust on noisy CI machines).
    if join_speedup < 10.0:
        failures.append(f"plan speedup {join_speedup:.1f}x below the 10x "
                        "floor on the selective workload")

    _write_json(args.json, {
        "bench": "patterns-selective",
        "seed": args.seed,
        "trees": len(trees),
        "pairs": n,
        "repeat": args.repeat,
        "interpreter_eps": interpreter_eps,
        "join_eps": join_eps,
        "join_speedup": join_speedup,
        "plan_join_runs_per_pass": pattern_runs,
        "failures": failures,
    })
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


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
                        help="trees in the heavy benchmark workload "
                             "(default 25)")
    parser.add_argument("--scenarios", type=int, default=20,
                        help="extra light scenarios for parity breadth "
                             "(default 20)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing passes; the best one is reported")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a machine-readable result file")
    parser.add_argument("--selective", action="store_true",
                        help="run the selective bench instead: wide "
                             "trees, label-selective queries (bench kind "
                             "patterns-selective)")
    args = parser.parse_args(argv)
    if args.selective:
        return _run_selective(args)

    started = time.perf_counter()
    # Timing runs on the heavy probe-selected workload (the same generator
    # the engine bench uses — trees of hundreds of nodes, where matching
    # loops dominate); a batch of light scenarios rides along for parity
    # breadth across query shapes.
    workload = benchmark_workload(args.seed, args.generated)
    pairs = [(tree, query)
             for tree in workload.source_trees
             for query in workload.queries]
    for scenario in scenario_batch(args.scenarios, seed=args.seed):
        pairs.extend((tree, query)
                     for tree in scenario.source_trees
                     for query in scenario.queries)
    n = len(pairs)
    nodes = sum(len(tree) for tree, _ in pairs)
    print(f"workload            : {args.generated} heavy trees + "
          f"{args.scenarios} light scenarios, {n} (tree, query) pairs, "
          f"{nodes} tree-node visits per pass "
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

    # Interpreter oracle: memoised PatternMatcher per call.
    interp_time, interp_answers = timed(
        lambda: [query.answers(tree) for tree, query in pairs])

    # Cold plan path: freeze per tree, plan-cache lookup per query — what a
    # request pays on a warm shard serving a fresh tree.
    cache = PlanCache(CacheStats())

    def plan_pass():
        return [cache.get(query).answers(tree.freeze())
                for tree, query in pairs]

    plan_time, plan_answers = timed(plan_pass)

    # Warm plan path: frozen trees + compiled plans amortised.
    frozen_pairs = [(tree.freeze(), compile_query(query))
                    for tree, query in pairs]
    warm_time, warm_answers = timed(
        lambda: [plan.answers(frozen) for frozen, plan in frozen_pairs])

    interpreter_eps = n / max(interp_time, 1e-9)
    plan_eps = n / max(plan_time, 1e-9)
    plan_warm_eps = n / max(warm_time, 1e-9)
    print(f"interpreter         : {interpreter_eps:10.1f} evals/s")
    print(f"plan (freeze+eval)  : {plan_eps:10.1f} evals/s "
          f"({plan_eps / interpreter_eps:4.1f}x)")
    print(f"plan (warm)         : {plan_warm_eps:10.1f} evals/s "
          f"({plan_warm_eps / interpreter_eps:4.1f}x)")

    # Gate: parity on every pair, across all three paths.
    if not (interp_answers == plan_answers == warm_answers):
        mismatches = sum(1 for a, b, c in zip(interp_answers, plan_answers,
                                              warm_answers)
                         if not (a == b == c))
        failures.append(f"parity: {mismatches} of {n} (tree, query) pairs "
                        f"differ between interpreter and plan")
    else:
        print(f"parity              : all {n} pairs equal across "
              f"interpreter / plan / warm plan")

    # Gate: exact plan-cache accounting — one compile per distinct query
    # fingerprint over `repeat` identical passes, everything else hits.
    distinct = len({query.fingerprint() for _, query in pairs})
    if cache.misses != distinct:
        failures.append(f"plan cache: {cache.misses} compiles for "
                        f"{distinct} distinct queries")
    expected_hits = args.repeat * n - distinct
    if cache.hits != expected_hits:
        failures.append(f"plan cache: {cache.hits} hits, expected "
                        f"{expected_hits}")
    else:
        print(f"plan cache          : {distinct} compiles, "
              f"{cache.hits} hits over {args.repeat} passes")

    if plan_warm_eps <= interpreter_eps:
        # Machine-dependent: report loudly, gate on parity only.
        print(f"WARNING: warm plans ({plan_warm_eps:.1f} evals/s) did not "
              f"beat the interpreter ({interpreter_eps:.1f} evals/s) on "
              f"this run", file=sys.stderr)

    _write_json(args.json, {
        "bench": "patterns",
        "seed": args.seed,
        "trees": args.generated,
        "scenarios": args.scenarios,
        "pairs": n,
        "repeat": args.repeat,
        "interpreter_eps": interpreter_eps,
        "plan_eps": plan_eps,
        "plan_warm_eps": plan_warm_eps,
        "plan_speedup": plan_warm_eps / interpreter_eps,
        "plan_cache_misses": cache.misses,
        "plan_cache_hits": cache.hits,
        "failures": failures,
    })
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
