#!/usr/bin/env python3
"""Clio-style nested-relational exchange (Theorem 4.5 / Corollary 6.11).

A company database (departments → employees, projects) is restructured into a
staffing directory grouped by person plus a flat project registry.  Both DTDs
are nested-relational, so consistency is decided in O(n·m²) and certain
answers are computed in polynomial time via the canonical solution.  The
setting is compiled once (``nr.company_engine()``) and the three queries are
answered as one batch against the shared compiled state.

Run with:  python examples/clio_nested_relational.py
"""

from repro import canonical_solution, order_tree, parse_pattern, pattern_query
from repro.workloads import nested_relational as nr


def main() -> None:
    engine = nr.company_engine()
    setting = engine.setting
    source = nr.generate_company_source(n_departments=3, employees_per_dept=3,
                                        projects_per_dept=2, seed=42)

    print("Source DTD:")
    print(setting.source_dtd.to_text())
    print("\nTarget DTD:")
    print(setting.target_dtd.to_text())
    print("\nBoth nested-relational:", engine.compiled.nested_relational)
    print("Classification:", engine.classify().detail)

    consistency = engine.check_consistency()
    print(f"Consistency ({consistency.strategy}):", consistency.payload)

    solved = engine.solve(source)
    # The engine returns the solution only; the functional API, run on the
    # engine's compiled setting, also returns the chase log.
    steps = canonical_solution(setting, source,
                               compiled=engine.compiled).steps
    print(f"\nCanonical solution: {len(solved.payload)} nodes, "
          f"{len(steps)} chase steps, "
          f"{solved.elapsed * 1e3:.1f} ms")
    ordered = order_tree(solved.payload, setting.target_dtd)
    print("Ordered solution conforms:", setting.target_dtd.conforms(ordered))

    roles = pattern_query(parse_pattern(
        'directory[person(@name=n)[position(@dept="Dept-0", @role=r)]]'))
    salaries = pattern_query(parse_pattern(
        "directory[person(@name=n)[position(@salary=s)]]"))
    projects, who, certain_salaries = engine.certain_answers_batch(
        [source, source, source],
        [nr.query_projects_of("Dept-1"), roles, salaries])

    print("\nCertain answers")
    print("  projects registered for Dept-1:", sorted(projects.payload))
    print("  who works in Dept-0 and in which role:", sorted(who.payload))
    print("  (name, salary) pairs that are certain:",
          sorted(certain_salaries.payload), "(salaries are invented nulls)")


if __name__ == "__main__":
    main()
