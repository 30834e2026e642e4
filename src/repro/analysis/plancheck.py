"""Static verification of compiled evaluation plans.

:func:`verify_plan` is an abstract interpreter over the op sequences of
:class:`~repro.patterns.plan.PatternPlan` and
:class:`~repro.patterns.plan.QueryPlan`: instead of running a plan on a
tree, it *proves* structural invariants that the evaluator silently
assumes — a violated one does not crash, it returns wrong answers:

* **slot def-before-use** — every ``desc`` op references a strictly
  earlier inner op, every ``node`` op's children are strictly earlier
  (the evaluator fills op tables in index order);
* **slot-range validity** — every variable test binds a slot inside the
  plan's row width, slot assignments are injective per scope;
* **uniform row width** — every atom under a ``_Join``/``_Union`` carries
  the query-global width (what ``_fix_widths`` stamps), so slot-merge
  joins never index past a row;
* **label/attr validity against the compiling query** — ops only test
  labels and attribute names that occur in the source pattern (the specs
  are interned per tree at evaluation time; a foreign label would
  silently disable or misdirect an op);
* **projection-scope consistency** — ``_Project`` clears only in-width
  slots and never a slot the whole query exports as free;
* **shape mirror** — the lowered operator tree is isomorphic to the query
  AST (atom ↔ pattern, join ↔ conjunction, project ↔ ∃, union ↔ ∪);
* **root chain** — the pattern root is the last op, and a ``//`` chain
  at the root occupies the trailing ops (each desc op's inner is the op
  just before it): the evaluator reads the root's rows off the last
  non-chain op and never tables a root chain.

Compile-time hook: with ``REPRO_PLAN_VERIFY=1`` (the test suite's
default, see ``tests/conftest.py``) every ``compile_pattern`` /
``compile_query`` runs :func:`verify_plan` once and stamps
``plan.verified = True``.  The stamp travels through pickle, so plans
that arrive inside pickled compiled settings (over a shard-host pipe, or
restored from a corpus store) are **not** re-verified on unpickle — that
path pays zero verification overhead.

CLI: ``python -m repro.analysis.plancheck`` compiles the committed
workload settings (their STD source plans) plus their canned queries and
verifies every plan — the CI lint job runs it next to the invariant
linter.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["PlanVerificationError", "verify_plan", "main"]


class PlanVerificationError(ValueError):
    """A compiled plan violates a structural invariant.

    ``context`` names the op / node at fault; the message states the
    violated invariant.
    """

    def __init__(self, message: str, context: str = "") -> None:
        super().__init__(f"{context}: {message}" if context else message)
        self.context = context


def _fail(message: str, context: str = "") -> None:
    raise PlanVerificationError(message, context)


# --------------------------------------------------------------------- #
# Pattern-level checks
# --------------------------------------------------------------------- #

def _pattern_alphabet(pattern: Any) -> Tuple[Set[str], Set[str], int, int]:
    """``(labels, attr_names, node_count, desc_count)`` of a pattern AST."""
    from ..patterns.formula import DescendantPattern, NodePattern
    labels: Set[str] = set()
    attrs: Set[str] = set()
    nodes = descs = 0
    stack = [pattern]
    while stack:
        current = stack.pop()
        if isinstance(current, DescendantPattern):
            descs += 1
            stack.append(current.inner)
            continue
        if not isinstance(current, NodePattern):
            _fail(f"unknown pattern node {type(current).__name__}",
                  "pattern")
        nodes += 1
        if not current.attribute.is_wildcard():
            labels.add(current.attribute.label)
        for attr_name, _term in current.attribute.assignments:
            attrs.add(attr_name)
        stack.extend(current.children)
    return labels, attrs, nodes, descs


def _verify_ops(ops: Sequence[tuple], width: int, labels: Set[str],
                attrs: Set[str], context: str) -> Tuple[int, int]:
    """Structural induction over one op sequence; returns op-kind counts."""
    if not isinstance(ops, tuple) or not ops:
        _fail("ops must be a non-empty tuple", context)
    node_ops = desc_ops = 0
    for index, op in enumerate(ops):
        where = f"{context} op[{index}]"
        if not isinstance(op, tuple) or not op:
            _fail("op is not a non-empty tuple", where)
        kind = op[0]
        if kind == "desc":
            desc_ops += 1
            if len(op) != 2:
                _fail(f"desc op has arity {len(op)}, expected 2", where)
            inner = op[1]
            if not isinstance(inner, int) or not 0 <= inner < index:
                _fail(f"desc op references inner op {inner!r}; must "
                      f"reference a strictly earlier op (< {index}) so the "
                      "evaluator sees it defined", where)
            continue
        if kind != "node":
            _fail(f"unknown op kind {kind!r}", where)
        node_ops += 1
        if len(op) != 5:
            _fail(f"node op has arity {len(op)}, expected 5", where)
        _, label, const_tests, var_tests, child_indexes = op
        if label is not None:
            if not isinstance(label, str):
                _fail(f"label {label!r} is not a str or None", where)
            if label not in labels:
                _fail(f"label {label!r} does not occur in the compiling "
                      "pattern — the op can never have been lowered from "
                      "it", where)
        for attr_name, _constant in const_tests:
            if attr_name not in attrs:
                _fail(f"constant test on attribute {attr_name!r} absent "
                      "from the compiling pattern", where)
        for attr_name, slot in var_tests:
            if attr_name not in attrs:
                _fail(f"variable test on attribute {attr_name!r} absent "
                      "from the compiling pattern", where)
            if not isinstance(slot, int) or not 0 <= slot < width:
                _fail(f"variable test binds slot {slot!r} outside row "
                      f"width {width}", where)
        for child in child_indexes:
            if not isinstance(child, int) or not 0 <= child < index:
                _fail(f"child op index {child!r} is not strictly earlier "
                      f"than {index} (def-before-use)", where)
    return node_ops, desc_ops


def _verify_root_chain(ops: Sequence[tuple], root: int,
                       context: str) -> None:
    """The one layout invariant :func:`repro.patterns.plan._evaluate`
    assumes: ``root`` is the last op and its ``//`` chain is the trailing
    run of desc ops, each over the op just before it."""
    if root != len(ops) - 1:
        _fail(f"root op index {root} is not the last op "
              f"({len(ops) - 1}); the evaluator gathers the root from "
              "the trailing ops", context)
    index = root
    while ops[index][0] == "desc":
        if ops[index][1] != index - 1:
            _fail(f"root // chain: desc op {index} ranges over op "
                  f"{ops[index][1]}, not {index - 1}; the chain must "
                  "occupy the trailing ops", context)
        index -= 1


def _verify_pattern_plan(plan: Any, width: Optional[int] = None,
                         context: str = "pattern plan") -> None:
    """Verify one :class:`PatternPlan` against its own source pattern."""
    expected_width = plan.width if width is None else width
    if plan.width != expected_width:
        _fail(f"plan width {plan.width} != enclosing query width "
              f"{expected_width} (did _fix_widths run?)", context)
    if not isinstance(expected_width, int) or expected_width < 0:
        _fail(f"width {expected_width!r} is not a non-negative int",
              context)
    labels, attrs, n_nodes, n_descs = _pattern_alphabet(plan.pattern)
    node_ops, desc_ops = _verify_ops(plan.ops, expected_width, labels,
                                     attrs, context)
    if (node_ops, desc_ops) != (n_nodes, n_descs):
        _fail(f"op counts (node={node_ops}, desc={desc_ops}) disagree with "
              f"the pattern (node={n_nodes}, desc={n_descs})", context)
    _verify_root_chain(plan.ops, plan.root, context)
    seen_slots: Set[int] = set()
    for name, slot in plan.slots.items():
        if not isinstance(slot, int) or not 0 <= slot < expected_width:
            _fail(f"slot {slot!r} of variable {name!r} outside width "
                  f"{expected_width}", context)
        if slot in seen_slots:
            _fail(f"slot {slot} bound by two names in one scope "
                  "(aliasing would corrupt joins)", context)
        seen_slots.add(slot)
    for name in plan.variables:
        if name not in plan.slots:
            _fail(f"pattern variable {name!r} has no slot", context)


# --------------------------------------------------------------------- #
# Query-level checks
# --------------------------------------------------------------------- #

def _verify_query_node(node: Any, query: Any, width: int,
                       free_slots: Set[int], context: str) -> None:
    """Parallel walk: the lowered operator tree must mirror the query AST."""
    from ..patterns import plan as planmod
    from ..patterns.queries import (ConjunctionQuery, ExistsQuery,
                                    PatternQuery, UnionQuery)
    if isinstance(query, PatternQuery):
        if not isinstance(node, planmod._Atom):
            _fail(f"pattern query lowered to {type(node).__name__}, "
                  "expected _Atom", context)
        if node.plan.pattern is not query.pattern:
            _fail("atom's pattern is not the query's pattern", context)
        _verify_pattern_plan(node.plan, width, context + ".atom")
        return
    if isinstance(query, ConjunctionQuery):
        if not isinstance(node, planmod._Join):
            _fail(f"conjunction lowered to {type(node).__name__}, "
                  "expected _Join", context)
        if len(node.members) != len(query.members):
            _fail(f"join has {len(node.members)} members, conjunction has "
                  f"{len(query.members)}", context)
        for index, (member_node, member_query) in enumerate(
                zip(node.members, query.members)):
            _verify_query_node(member_node, member_query, width, free_slots,
                               f"{context}.join[{index}]")
        return
    if isinstance(query, ExistsQuery):
        if not isinstance(node, planmod._Project):
            _fail(f"∃-query lowered to {type(node).__name__}, "
                  "expected _Project", context)
        cleared = node.cleared
        if not cleared and query.variables:
            _fail("∃ scope with bound variables clears no slots", context)
        for slot in cleared:
            if not isinstance(slot, int) or not 0 <= slot < width:
                _fail(f"projection clears slot {slot!r} outside width "
                      f"{width}", context)
            if slot in free_slots:
                _fail(f"projection clears slot {slot}, which the query "
                      "exports as a free variable (scope leak)", context)
        if len(cleared) != len(set(query.variables)):
            _fail(f"projection clears {len(cleared)} slots for "
                  f"{len(set(query.variables))} bound variables", context)
        _verify_query_node(node.inner, query.inner, width, free_slots,
                           context + ".project")
        return
    if isinstance(query, UnionQuery):
        if not isinstance(node, planmod._Union):
            _fail(f"union lowered to {type(node).__name__}, "
                  "expected _Union", context)
        if len(node.members) != len(query.members):
            _fail(f"union has {len(node.members)} arms, query has "
                  f"{len(query.members)}", context)
        for index, (member_node, member_query) in enumerate(
                zip(node.members, query.members)):
            _verify_query_node(member_node, member_query, width, free_slots,
                               f"{context}.union[{index}]")
        return
    _fail(f"unknown query node {type(query).__name__}", context)


def verify_plan(plan: Any) -> Any:
    """Statically verify a compiled plan; returns it (for chaining).

    Accepts a :class:`~repro.patterns.plan.PatternPlan` or
    :class:`~repro.patterns.plan.QueryPlan`; raises
    :class:`PlanVerificationError` on the first violated invariant.
    """
    from ..patterns import plan as planmod
    if isinstance(plan, planmod.PatternPlan):
        _verify_pattern_plan(plan)
        return plan
    if not isinstance(plan, planmod.QueryPlan):
        _fail(f"not a compiled plan: {type(plan).__name__}")
    width = plan.width
    if not isinstance(width, int) or width < 0:
        _fail(f"width {width!r} is not a non-negative int", "query plan")
    if len(plan.slot_names) != width:
        _fail(f"{len(plan.slot_names)} slot names for width {width}",
              "query plan")
    if len(plan.free_variables) != len(plan.free_slots):
        _fail(f"{len(plan.free_variables)} free variables but "
              f"{len(plan.free_slots)} free slots", "query plan")
    expected_free = tuple(plan.query.free_variables())
    if plan.free_variables != expected_free:
        _fail(f"free variables {plan.free_variables!r} disagree with the "
              f"query's {expected_free!r}", "query plan")
    free_slot_set: Set[int] = set()
    for name, slot in zip(plan.free_variables, plan.free_slots):
        if not isinstance(slot, int) or not 0 <= slot < width:
            _fail(f"free variable {name!r} bound to slot {slot!r} outside "
                  f"width {width}", "query plan")
        if slot in free_slot_set:
            _fail(f"two free variables share slot {slot}", "query plan")
        free_slot_set.add(slot)
        if plan.slot_names[slot] != name:
            _fail(f"free variable {name!r} maps to slot {slot}, but the "
                  f"slot table names it {plan.slot_names[slot]!r}",
                  "query plan")
    _verify_query_node(plan.node, plan.query, width, free_slot_set, "root")
    return plan


# --------------------------------------------------------------------- #
# CLI: verify the committed workloads' plans
# --------------------------------------------------------------------- #

def _workload_plans() -> Iterable[Tuple[str, Any]]:
    """Every committed STD source plan and canned query plan, labelled."""
    from ..engine import compile_setting
    from ..patterns.plan import compile_query
    from ..workloads import library, nested_relational

    settings = [("library", library.library_setting()),
                ("company", nested_relational.company_setting())]
    for name, setting in settings:
        compiled = compile_setting(setting)
        for index, plan in enumerate(compiled.std_source_plans):
            yield f"{name}: STD source plan #{index}", plan
    queries = [
        ("library: query_writer_of",
         library.query_writer_of("Computational Complexity")),
        ("library: query_works_in_year",
         library.query_works_in_year("1994")),
        ("company: query_projects_of",
         nested_relational.query_projects_of("Dept-0")),
    ]
    for name, query in queries:
        yield name, compile_query(query)


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis.plancheck [--summary PATH]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.plancheck",
        description="Statically verify the committed workloads' compiled "
                    "plans (STD source plans + canned queries).")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="append a markdown summary (e.g. "
                             "$GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)

    checked: List[str] = []
    failures: List[Tuple[str, str]] = []
    for label, plan in _workload_plans():
        try:
            verify_plan(plan)
        except PlanVerificationError as error:
            failures.append((label, str(error)))
        else:
            checked.append(label)
    for label, message in failures:
        print(f"plancheck FAIL {label}: {message}")
    print(f"plancheck: {len(checked)} plan(s) verified, "
          f"{len(failures)} failure(s)")
    if args.summary:
        lines = ["## Plan verifier", "",
                 f"{len(checked)} plan(s) verified, "
                 f"{len(failures)} failure(s).", ""]
        for label, message in failures:
            lines.append(f"- **FAIL** {label}: {message}")
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    import sys
    sys.exit(main())
