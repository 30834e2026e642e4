#!/usr/bin/env python3
"""Quickstart: the paper's running example (Figures 1 and 2, Example 3.4),
served through the engine API.

A bibliography grouped by book is restructured into one grouped by writer;
publication years are unknown and become nulls.  The setting is compiled
once into an :class:`repro.ExchangeEngine`; classification, consistency,
the canonical solution and the two certain-answer queries from the paper's
introduction are then all requests against that engine.  (The legacy
functional API — ``check_consistency``, ``canonical_solution``,
``certain_answers`` — still works and the engine delegates to it; see the
migration note in ROADMAP.md.)

Run with:  python examples/quickstart.py
"""

from repro import DataExchangeSetting, ExchangeEngine, order_tree, parse_dtd, std
from repro.workloads import library


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Schemas: the source and target DTDs of Figure 1 (a) / Figure 2 (a)
    # ------------------------------------------------------------------ #
    source_dtd = parse_dtd("""
        <!ELEMENT db (book*)>
        <!ELEMENT book (author*)>
        <!ATTLIST book title CDATA #REQUIRED>
        <!ELEMENT author EMPTY>
        <!ATTLIST author name CDATA #REQUIRED aff CDATA #REQUIRED>
    """)
    target_dtd = parse_dtd("""
        <!ELEMENT bib (writer*)>
        <!ELEMENT writer (work*)>
        <!ATTLIST writer name CDATA #REQUIRED>
        <!ELEMENT work EMPTY>
        <!ATTLIST work title CDATA #REQUIRED year CDATA #REQUIRED>
    """)

    # ------------------------------------------------------------------ #
    # 2. The STD of Example 3.4, compiled once into an engine
    # ------------------------------------------------------------------ #
    dependency = std(
        "bib[writer(@name=y)[work(@title=x, @year=z)]]",
        "db[book(@title=x)[author(@name=y)]]",
    )
    setting = DataExchangeSetting(source_dtd, target_dtd, [dependency])
    engine = ExchangeEngine(setting)   # NFAs, analyses, routing: all here

    print("Setting classification:", engine.classify().detail)
    consistency = engine.check_consistency()   # strategy="auto" routes to 4.5
    print(f"Consistency: {consistency.payload} "
          f"(strategy: {consistency.strategy}, "
          f"{consistency.elapsed * 1e3:.2f} ms)")
    print()

    # ------------------------------------------------------------------ #
    # 3. The source document of Figure 1 (b)
    # ------------------------------------------------------------------ #
    source = library.figure_1_source()
    print("Source document (Figure 1 b):")
    print(source.to_text())
    print()

    # ------------------------------------------------------------------ #
    # 4. The canonical solution (Figure 2 b): years become nulls
    # ------------------------------------------------------------------ #
    solved = engine.solve(source)
    print("Canonical solution (unordered, cf. Figure 2 b):")
    print(solved.payload.to_text())
    ordered = order_tree(solved.payload, target_dtd)
    print("\nSerialised after ordering (Proposition 5.2):")
    print(ordered.to_xml())
    print()

    # ------------------------------------------------------------------ #
    # 5. Certain answers for the two queries of the introduction.
    #    The engine reuses the compiled setting: no recompilation happens.
    # ------------------------------------------------------------------ #
    who_wrote_cc = library.query_writer_of("Computational Complexity")
    works_1994 = library.query_works_in_year("1994")
    first, second = engine.certain_answers_batch(
        [source, source], [who_wrote_cc, works_1994])
    print('Who is the writer of "Computational Complexity"?',
          sorted(first.payload))
    print("What are the works written in 1994?", sorted(second.payload),
          "(unknown years are nulls — nothing is certain)")
    stats = engine.stats
    print(f"\nEngine cache: {stats['rule_cache_hits']} rule-cache hits, "
          f"{stats['rule_cache_misses']} recompilations since compile.")

    # ------------------------------------------------------------------ #
    # 6. The plan cache: queries are compiled once, evaluated many times.
    #    Each query was lowered to a slot-based plan on first use (a
    #    plan_cache miss) and every later evaluation — here, re-asking the
    #    first question — reuses the compiled plan over a frozen tree
    #    instead of re-interpreting the pattern AST per node.
    # ------------------------------------------------------------------ #
    engine.clear_result_cache()           # force a real (re-)evaluation
    before = engine.stats
    engine.certain_answers(source, who_wrote_cc)
    stats = engine.stats
    print(f"Plan cache: {stats['plan_cache_hits']} hits, "
          f"{stats['plan_cache_misses']} compilations — interpretation is "
          f"paid once per query, not once per (query, node).")

    # ------------------------------------------------------------------ #
    # 7. Plan runs: every pattern atom evaluated — the STD source patterns
    #    building the canonical pre-solution and the query's own atoms —
    #    is one run of the set-at-a-time evaluator over a frozen tree
    #    (candidates seeded from per-label indexes, `//` tabled only over
    #    the ancestors of its matches).  The counter shows how many runs
    #    the re-asked question cost.
    # ------------------------------------------------------------------ #
    runs = stats["plan_join_runs"] - before["plan_join_runs"]
    print(f"Plan runs for that request: {runs} pattern evaluation(s).")

if __name__ == "__main__":
    main()
