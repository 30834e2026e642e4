"""Compiled query plans: CTQ//,∪ lowered onto frozen trees.

The interpreted :class:`~repro.patterns.evaluate.PatternMatcher` re-walks
the pattern AST per (pattern, node) pair, building dict assignments that it
deduplicates through rendered keys.  This module pays that interpretation
cost **once per query** instead of once per (query, node):

* :func:`compile_pattern` / :func:`compile_query` lower a
  :class:`~repro.patterns.formula.TreePattern` or a full
  :class:`~repro.patterns.queries.Query` (conjunction, ∃-projection, union,
  descendant ``//``) into a *slot-based plan* — every variable is mapped to
  an integer slot, assignments are fixed-width tuples (``None`` marks an
  unbound slot), label tests are single ``int`` comparisons against the
  interned labels of a :class:`~repro.xmlmodel.frozen.FrozenTree`, and
  joins are slot-merge loops over those tuples;
* :func:`_evaluate` runs those ops set-at-a-time over the frozen tree,
  each into a sparse ``{position: rows}`` table: a node op scans only its
  candidate seed (``nodes_by_label`` for a labelled op, the smallest
  tested attribute table for a wildcard with tests) and joins each child
  op by a merge over the contiguous BFS child spans; ``//ϕ`` is the
  bottom-up recurrence ``desc(v) = ⋃_{c child of v} (inner(c) ∪
  desc(c))``, filled only over the ancestors of ``ϕ``'s matches, so no
  descendant set is ever enumerated; a ``//`` chain at the pattern root
  is read straight off the inner matches in pre order.  Rows come out
  deduplicated **in a fixed order** (node-rooted matches by BFS
  position, ``//`` matches in pre order) — downstream null allocation,
  and therefore canonical-solution fingerprints, depend on it; callers
  that pass a ``stats`` recorder get one ``plan_join_runs`` event per
  pattern run;
* :class:`PlanCache` is a bounded, counted, thread-safe LRU keyed by
  ``Query.fingerprint()``; each compiled setting owns one, counted into
  its ``CacheStats``, so the engine and every service shard reuse plans
  across requests.  Per-tree spec resolution (label/attribute interning)
  is cached on the plan itself, keyed weakly by the frozen snapshot, so
  repeat evaluation of a hot document skips the rebind loop.

Variable scoping matches the interpreter: members of a conjunction share
slots by variable *name* (that is the join), while each ``∃x̄`` scope
allocates fresh slots for its bound variables (an inner ``x`` never aliases
an outer ``x``).

The interpreted API (:func:`~repro.patterns.evaluate.match_anywhere`,
``Query.evaluate``) stays unchanged and serves as the parity oracle — the
generated property harness asserts plan/interpreter agreement on every
scenario it sweeps.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left
from collections import OrderedDict
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.values import Value
from .formula import (DescendantPattern, NodePattern, TreePattern, Variable)
from .queries import (ConjunctionQuery, ExistsQuery, PatternQuery, Query,
                      UnionQuery)

__all__ = ["PatternPlan", "QueryPlan", "PlanCache",
           "compile_pattern", "compile_query"]

#: A slot row: one assignment as a fixed-width tuple, ``None`` = unbound.
Row = Tuple[Optional[Value], ...]

_EMPTY: Tuple[Row, ...] = ()


def _verify_enabled() -> bool:
    """Whether ``REPRO_PLAN_VERIFY`` asks for compile-time verification.

    The test suite turns this on by default (``tests/conftest.py``), so
    every plan the suite compiles is statically verified by
    :func:`repro.analysis.plancheck.verify_plan` before it runs;
    production keeps it off and pays nothing.
    """
    return os.environ.get("REPRO_PLAN_VERIFY", "0").strip().lower() \
        not in ("", "0", "false", "no", "off")


def _maybe_verify(plan: Any) -> Any:
    """Verify ``plan`` (and stamp ``plan.verified``) when enabled.

    Verification happens exactly once, at compile time: the ``verified``
    stamp travels through pickle with the plan, so compiled settings
    unpickled elsewhere (a shard-host worker, a store restore) are **not**
    re-verified.
    """
    if _verify_enabled():
        from ..analysis import plancheck
        plancheck.verify_plan(plan)
        plan.verified = True
    return plan


# --------------------------------------------------------------------- #
# Pattern lowering
# --------------------------------------------------------------------- #
#
# A lowered pattern is a flat tuple of op specs, children before parents:
#
#   ("node", label_or_None, const_tests, var_tests, child_op_indexes)
#   ("desc", inner_op_index)
#
# const_tests: ((attr_name, constant), ...)    — equality against a literal
# var_tests:   ((attr_name, slot), ...)        — bind/check a variable slot
#
# The op tuple for the whole pattern is its last entry.  Specs carry label
# and attribute *names*; they are interned against a concrete FrozenTree at
# evaluation time (a label or attribute absent from the tree disables the
# op in O(1) instead of failing per node).


class _SlotTable:
    """Allocates integer slots for variable names (append-only)."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        self.names: List[str] = []

    def allocate(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1


def _lower_pattern(pattern: TreePattern, env: Dict[str, int],
                   slots: _SlotTable, ops: List[tuple]) -> int:
    """Append the ops for ``pattern`` to ``ops``; return its root op index.

    ``env`` maps in-scope variable names to slots; first occurrences
    allocate (and record) a new slot.
    """
    if isinstance(pattern, DescendantPattern):
        inner = _lower_pattern(pattern.inner, env, slots, ops)
        ops.append(("desc", inner))
        return len(ops) - 1
    if not isinstance(pattern, NodePattern):  # pragma: no cover - defensive
        raise TypeError(f"unknown pattern node: {pattern!r}")
    child_indexes = tuple(_lower_pattern(child, env, slots, ops)
                          for child in pattern.children)
    const_tests: List[Tuple[str, Value]] = []
    var_tests: List[Tuple[str, int]] = []
    for attr_name, term in pattern.attribute.assignments:
        if isinstance(term, Variable):
            slot = env.get(term.name)
            if slot is None:
                slot = slots.allocate(term.name)
                env[term.name] = slot
            var_tests.append((attr_name, slot))
        else:
            const_tests.append((attr_name, term))
    label = None if pattern.attribute.is_wildcard() else pattern.attribute.label
    ops.append(("node", label, tuple(const_tests), tuple(var_tests),
                child_indexes))
    return len(ops) - 1


def _merge_rows(first: Row, second: Row) -> Optional[Row]:
    """Slot-merge of two rows: ``None`` on a bound-slot conflict."""
    merged: Optional[List[Optional[Value]]] = None
    for index, value in enumerate(second):
        if value is None:
            continue
        current = first[index] if merged is None else merged[index]
        if current is None:
            if merged is None:
                merged = list(first)
            merged[index] = value
        elif current != value:
            return None
    return first if merged is None else tuple(merged)


def _join_rows(left: Sequence[Row], right: Sequence[Row]) -> Tuple[Row, ...]:
    """Natural join of two row sets (deduplicated)."""
    out: List[Row] = []
    seen: Set[Row] = set()
    for first in left:
        for second in right:
            merged = _merge_rows(first, second)
            if merged is not None and merged not in seen:
                seen.add(merged)
                out.append(merged)
    return tuple(out)


def _resolve_ops(ops: Sequence[tuple],
                 frozen: FrozenTree) -> Tuple[tuple, ...]:
    """Bind op specs to one tree: intern labels and attribute names once.

    ``rlabel``: -1 = wildcard, -2 = label absent (op can never match).
    The result depends only on the tree's interning tables, so it is
    cached per (plan, frozen snapshot) — see :meth:`PatternPlan._bound_ops`.
    """
    attr_tables = frozen.attr_tables
    attr_ids = frozen.attr_ids
    resolved: List[tuple] = []
    for op in ops:
        if op[0] == "desc":
            resolved.append(("desc", op[1]))
            continue
        _, label, const_tests, var_tests, child_indexes = op
        if label is None:
            rlabel = -1
        else:
            rlabel = frozen.label_ids.get(label, -2)
        rconst: List[Tuple[Dict[int, Value], Value]] = []
        rvar: List[Tuple[Dict[int, Value], int]] = []
        possible = rlabel != -2
        for attr_name, constant in const_tests:
            aid = attr_ids.get(attr_name)
            if aid is None:
                possible = False
                break
            rconst.append((attr_tables[aid], constant))
        if possible:
            for attr_name, slot in var_tests:
                aid = attr_ids.get(attr_name)
                if aid is None:
                    possible = False
                    break
                rvar.append((attr_tables[aid], slot))
        if not possible:
            resolved.append(("never",))
        else:
            resolved.append(("node", rlabel, tuple(rconst), tuple(rvar),
                             child_indexes))
    return tuple(resolved)


def _desc_table(inner_rows: Dict[int, Tuple[Row, ...]],
                parents: Sequence[int]) -> Dict[int, Tuple[Row, ...]]:
    """The ``//`` recurrence ``desc(v) = ⋃_{c child of v} (inner(c) ∪
    desc(c))``, filled only where it is non-empty.

    ``desc(v)`` has rows exactly when ``v`` is a proper ancestor of an
    inner match, so the table is sparse over those ancestors: walk
    ``parents`` up from every match, deepest position first, until a node
    already reached, then fill children before parents (descending BFS
    positions), gathering each node's reached children in document order
    and deduplicating with first occurrences kept.  Every ``desc(v)``
    therefore lists the inner rows of ``v``'s proper descendants in pre
    order — the order the chase's null allocation depends on.
    """
    kids: Dict[int, List[int]] = {}
    for w in sorted(inner_rows, reverse=True):
        if w in kids:
            continue  # already linked, on the walk up from a deeper match
        parent = parents[w]
        while parent >= 0:
            siblings = kids.get(parent)
            if siblings is not None:
                siblings.append(w)
                break
            kids[parent] = [w]
            w = parent
            parent = parents[w]
    table: Dict[int, Tuple[Row, ...]] = {}
    for v in sorted(kids, reverse=True):
        children = kids[v]
        if len(children) > 1:
            children.sort()
        gathered: List[Row] = []
        for c in children:
            found = inner_rows.get(c)
            if found:
                gathered.extend(found)
            found = table.get(c)
            if found:
                gathered.extend(found)
        if len(gathered) > 1:
            gathered = list(dict.fromkeys(gathered))
        table[v] = tuple(gathered)
    return table


def _evaluate(frozen: FrozenTree, base: Row,
              resolved: Sequence[tuple]) -> Tuple[Row, ...]:
    """The deduplicated match rows of a pattern's root: a node root's by
    BFS position, a ``//`` root's in pre order.

    Ops run in index order (children before parents) and each fills a
    sparse ``{position: rows}`` table:

    * a **node op** scans only its candidate seed — ``nodes_by_label`` for
      a labelled op, the smallest tested attribute table for a wildcard
      with tests, every position otherwise — ascending, so its table
      iterates in BFS order; each child op is then a merge join that
      bisects the child table's sorted positions into ``v``'s contiguous
      child span;
    * a **desc op** is :func:`_desc_table` over its inner op's table;
    * a **``//`` chain at the pattern root** (``k`` trailing desc ops,
      see :mod:`repro.analysis.plancheck`) is never tabled: the chain
      holds at the tree root exactly for the inner matches at depth
      ``≥ k``, read off in pre order.

    The row order is a contract, not an accident: the chase instantiates
    STD targets row by row, so it decides which nulls a canonical solution
    carries (``tests/test_join_plan.py`` locks it).
    """
    end = len(resolved)
    hops = 0
    while resolved[end - 1][0] == "desc":
        end -= 1
        hops += 1
    parents = frozen.parents
    child_start = frozen.child_start
    child_end = frozen.child_end
    tables: List[Dict[int, Tuple[Row, ...]]] = []
    positions: List[List[int]] = []
    for rop in resolved[:end]:
        kind = rop[0]
        if kind == "never":
            tables.append({})
            positions.append([])
            continue
        if kind == "desc":
            table = _desc_table(tables[rop[1]], parents)
            tables.append(table)
            positions.append(sorted(table))
            continue
        _, rlabel, rconst, rvar, child_indexes = rop
        if rlabel >= 0:
            candidates: Sequence[int] = frozen.nodes_by_label[rlabel]
        elif rconst or rvar:
            candidates = sorted(min((table for table, _ in rconst + rvar),
                                    key=len))
        else:
            candidates = range(frozen.n)
        out: Dict[int, Tuple[Row, ...]] = {}
        for v in candidates:
            ok = True
            for table, constant in rconst:
                if table.get(v) != constant:
                    ok = False
                    break
            if not ok:
                continue
            row = base
            if rvar:
                scratch: Optional[List[Optional[Value]]] = None
                for table, slot in rvar:
                    value = table.get(v)
                    if value is None:
                        ok = False
                        break
                    current = row[slot] if scratch is None else scratch[slot]
                    if current is None:
                        if scratch is None:
                            scratch = list(row)
                        scratch[slot] = value
                    elif current != value:
                        ok = False
                        break
                if not ok:
                    continue
                if scratch is not None:
                    row = tuple(scratch)
            result: Tuple[Row, ...] = (row,)
            for child in child_indexes:
                inner_rows = tables[child]
                gathered: List[Row] = []
                cs = child_start[v]
                ce = child_end[v]
                if inner_rows and cs < ce:
                    plist = positions[child]
                    i = bisect_left(plist, cs)
                    stop = len(plist)
                    while i < stop:
                        c = plist[i]
                        if c >= ce:
                            break
                        gathered.extend(inner_rows[c])
                        i += 1
                if not gathered:
                    result = _EMPTY
                    break
                if len(gathered) > 1:
                    gathered = list(dict.fromkeys(gathered))
                result = _join_rows(result, gathered)
                if not result:
                    break
            if result:
                out[v] = result
        tables.append(out)
        positions.append(list(out))  # insertion order == ascending BFS

    root_rows = tables[end - 1]
    gathered_all: List[Row] = []
    if hops:
        if root_rows:
            pre = frozen.pre_post()[0]
            depths = frozen.depths()
            for w in sorted(root_rows, key=pre.__getitem__):
                if depths[w] >= hops:
                    gathered_all.extend(root_rows[w])
    else:
        for found in root_rows.values():
            gathered_all.extend(found)
    if len(gathered_all) > 1:
        gathered_all = list(dict.fromkeys(gathered_all))
    return tuple(gathered_all)


class PatternPlan:
    """One tree-pattern formula lowered to slot-based ops.

    ``slots`` maps the pattern's variable names to their integer slots
    inside rows of width ``width`` (a query-level plan shares one global
    slot table across all its atoms, so an atom's rows typically leave most
    slots unbound).
    """

    __slots__ = ("pattern", "ops", "root", "width", "slots",
                 "variables", "verified", "_bind_cache")

    def __init__(self, pattern: TreePattern, ops: Tuple[tuple, ...],
                 root: int, width: int, slots: Dict[str, int]) -> None:
        self.pattern = pattern
        self.ops = ops
        self.root = root
        self.width = width
        self.slots = slots
        self.variables: Tuple[str, ...] = tuple(
            v.name for v in pattern.variables())
        #: True once :func:`repro.analysis.plancheck.verify_plan` accepted
        #: this plan (stamped at compile time under ``REPRO_PLAN_VERIFY``;
        #: travels through pickle so workers skip re-verification).
        self.verified = False
        #: Per-tree resolved ops, keyed weakly by the frozen snapshot so a
        #: dropped tree never pins its bindings (and vice versa).  Two
        #: threads racing resolve the same specs twice and one result wins
        #: — resolution is pure, so the race is benign.
        self._bind_cache: "weakref.WeakKeyDictionary[FrozenTree, Tuple[tuple, ...]]" = \
            weakref.WeakKeyDictionary()

    # Pickling (plans travel inside compiled settings, to shard-host
    # workers and into the store): the per-tree bind cache is request-local
    # state — it stays behind and the receiver starts with an empty one.
    # Restoring only current slot names lets stores written by older
    # versions (whose plans carried fields since removed) still load.
    def __getstate__(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_bind_cache"}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in self.__slots__:
            if name in state:
                setattr(self, name, state[name])
        self._bind_cache = weakref.WeakKeyDictionary()

    def slot_of(self, name: str) -> int:
        """The slot index of a pattern variable."""
        return self.slots[name]

    def _bound_ops(self, frozen: FrozenTree) -> Tuple[tuple, ...]:
        """The ops resolved against ``frozen`` (cached per snapshot)."""
        resolved = self._bind_cache.get(frozen)
        if resolved is None:
            resolved = _resolve_ops(self.ops, frozen)
            self._bind_cache[frozen] = resolved
        return resolved

    def _base_row(self, binding: Optional[Mapping[str, Value]]) -> Row:
        base: List[Optional[Value]] = [None] * self.width
        if binding:
            for name, value in binding.items():
                slot = self.slots.get(name)
                if slot is not None:
                    base[slot] = value
        return tuple(base)

    def matches(self, frozen: FrozenTree,
                binding: Optional[Mapping[str, Value]] = None,
                stats: Optional[Any] = None) -> Tuple[Row, ...]:
        """All rows under which *some* node of ``frozen`` witnesses the
        pattern (the plan analogue of
        :func:`~repro.patterns.evaluate.match_anywhere`), deduplicated, in
        the order :func:`_evaluate` fixes.  ``stats`` (a
        :class:`~repro.engine.stats.CacheStats`) records one
        ``plan_join_runs`` event per call.
        """
        if stats is not None:
            stats.count("plan_join_runs")
        return _evaluate(frozen, self._base_row(binding),
                         self._bound_ops(frozen))

    def assignments(self, frozen: FrozenTree,
                    binding: Optional[Mapping[str, Value]] = None,
                    stats: Optional[Any] = None) -> List[Dict[str, Value]]:
        """The matches as name-keyed dicts (parity with the interpreter)."""
        items = [(name, self.slots[name]) for name in self.variables]
        out = []
        for row in self.matches(frozen, binding, stats=stats):
            out.append({name: row[slot] for name, slot in items
                        if row[slot] is not None})
        return out

    def __repr__(self) -> str:
        return (f"<PatternPlan ops={len(self.ops)} width={self.width} "
                f"vars={list(self.variables)}>")


def compile_pattern(pattern: TreePattern) -> PatternPlan:
    """Lower a single tree-pattern formula into a standalone plan.

    Under ``REPRO_PLAN_VERIFY=1`` the lowered plan is statically verified
    (:func:`repro.analysis.plancheck.verify_plan`) before it is returned.
    """
    slots = _SlotTable()
    env: Dict[str, int] = {}
    ops: List[tuple] = []
    root = _lower_pattern(pattern, env, slots, ops)
    return _maybe_verify(
        PatternPlan(pattern, tuple(ops), root, len(slots.names), env))


# --------------------------------------------------------------------- #
# Query lowering
# --------------------------------------------------------------------- #

class _Atom:
    __slots__ = ("plan",)

    def __init__(self, plan: PatternPlan) -> None:
        self.plan = plan

    def rows(self, frozen: FrozenTree, width: int,
             stats: Optional[Any] = None) -> Tuple[Row, ...]:
        return self.plan.matches(frozen, stats=stats)


class _Join:
    __slots__ = ("members",)

    def __init__(self, members: Tuple[Any, ...]) -> None:
        self.members = members

    def rows(self, frozen: FrozenTree, width: int,
             stats: Optional[Any] = None) -> Tuple[Row, ...]:
        result: Tuple[Row, ...] = ((None,) * width,)
        for member in self.members:
            result = _join_rows(result, member.rows(frozen, width, stats))
            if not result:
                return _EMPTY
        return result


class _Project:
    __slots__ = ("inner", "cleared")

    def __init__(self, inner: Any, cleared: frozenset) -> None:
        self.inner = inner
        self.cleared = cleared

    def rows(self, frozen: FrozenTree, width: int,
             stats: Optional[Any] = None) -> Tuple[Row, ...]:
        cleared = self.cleared
        projected = [tuple(None if index in cleared else value
                           for index, value in enumerate(row))
                     for row in self.inner.rows(frozen, width, stats)]
        if len(projected) > 1:
            projected = list(dict.fromkeys(projected))
        return tuple(projected)


class _Union:
    __slots__ = ("members",)

    def __init__(self, members: Tuple[Any, ...]) -> None:
        self.members = members

    def rows(self, frozen: FrozenTree, width: int,
             stats: Optional[Any] = None) -> Tuple[Row, ...]:
        gathered: List[Row] = []
        for member in self.members:
            gathered.extend(member.rows(frozen, width, stats))
        if len(gathered) > 1:
            gathered = list(dict.fromkeys(gathered))
        return tuple(gathered)


def _lower_query(query: Query, env: Dict[str, int], slots: _SlotTable):
    if isinstance(query, PatternQuery):
        ops: List[tuple] = []
        root = _lower_pattern(query.pattern, env, slots, ops)
        # Width is finalised by the caller once the whole query is lowered;
        # the atom reads it through the shared slot table.
        plan = PatternPlan(query.pattern, tuple(ops), root, 0, dict(env))
        return _Atom(plan)
    if isinstance(query, ConjunctionQuery):
        # Members share the environment: equal names = equal slots = the join.
        return _Join(tuple(_lower_query(member, env, slots)
                           for member in query.members))
    if isinstance(query, ExistsQuery):
        inner_env = dict(env)
        bound = set(query.variables)
        cleared = []
        for name in query.variables:
            slot = slots.allocate(name)
            inner_env[name] = slot           # shadows any outer binding
            cleared.append(slot)
        node = _Project(_lower_query(query.inner, inner_env, slots),
                        frozenset(cleared))
        # Non-quantified variables first seen inside the scope are *free*
        # in the Exists: export their slots (the quantified names keep
        # whatever meaning — if any — they had outside).
        for name, slot in inner_env.items():
            if name not in bound and name not in env:
                env[name] = slot
        return node
    if isinstance(query, UnionQuery):
        return _Union(tuple(_lower_query(member, env, slots)
                            for member in query.members))
    raise TypeError(f"cannot compile query of type {type(query).__name__}")


def _fix_widths(node: Any, width: int) -> None:
    """Stamp the final slot-table width onto every atom's pattern plan."""
    if isinstance(node, _Atom):
        node.plan.width = width
        return
    if isinstance(node, _Project):
        _fix_widths(node.inner, width)
        return
    if isinstance(node, (_Join, _Union)):
        for member in node.members:
            _fix_widths(member, width)


class QueryPlan:
    """A whole CTQ//,∪ query compiled once, evaluated per frozen tree.

    ``slot_names`` lists every allocated slot (free and ∃-bound) in
    allocation order; ``free_variables``/``free_slots`` give the output
    schema in the query's free-variable order.
    """

    __slots__ = ("query", "node", "width", "slot_names",
                 "free_variables", "free_slots", "_slot_by_name",
                 "verified")

    def __init__(self, query: Query, node: Any, width: int,
                 slot_names: Tuple[str, ...],
                 free_variables: Tuple[str, ...],
                 free_slots: Tuple[int, ...]) -> None:
        self.query = query
        self.node = node
        self.width = width
        self.slot_names = slot_names
        self.free_variables = free_variables
        self.free_slots = free_slots
        self._slot_by_name = dict(zip(free_variables, free_slots))
        #: See :attr:`PatternPlan.verified` — stamped once at compile time,
        #: never re-checked on unpickle.
        self.verified = False

    def rows(self, frozen: FrozenTree,
             stats: Optional[Any] = None) -> Tuple[Row, ...]:
        """All satisfying assignments as slot rows (deduplicated).

        ``stats`` (a :class:`~repro.engine.stats.CacheStats`) receives one
        ``plan_join_runs`` event per atom evaluated."""
        return self.node.rows(frozen, self.width, stats)

    def answers(self, frozen: FrozenTree,
                variable_order: Optional[Sequence[str]] = None,
                stats: Optional[Any] = None) -> Set[Tuple[Value, ...]]:
        """``Q(T)`` as a set of value tuples ordered by ``variable_order``
        (defaults to the free-variable order) — the plan analogue of
        :meth:`~repro.patterns.queries.Query.answers`."""
        order = (tuple(variable_order) if variable_order is not None
                 else self.free_variables)
        slots = tuple(self._slot_by_name[name] for name in order)
        return {tuple(row[slot] for slot in slots)
                for row in self.rows(frozen, stats)}

    def evaluate(self, frozen: FrozenTree,
                 stats: Optional[Any] = None) -> List[Dict[str, Value]]:
        """Assignments of the free variables as dicts (parity with
        :meth:`~repro.patterns.queries.Query.evaluate`)."""
        pairs = tuple(zip(self.free_variables, self.free_slots))
        return [{name: row[slot] for name, slot in pairs
                 if row[slot] is not None}
                for row in self.rows(frozen, stats)]

    def holds(self, frozen: FrozenTree,
              stats: Optional[Any] = None) -> bool:
        """For Boolean queries: ``T ⊨ Q``."""
        return bool(self.rows(frozen, stats))

    def __repr__(self) -> str:
        return (f"<QueryPlan width={self.width} "
                f"free={list(self.free_variables)}>")


def compile_query(query: Query) -> QueryPlan:
    """Lower a query into a :class:`QueryPlan` (one shared slot table).

    Under ``REPRO_PLAN_VERIFY=1`` the lowered plan — atoms included — is
    statically verified before it is returned (see
    :func:`repro.analysis.plancheck.verify_plan`).
    """
    slots = _SlotTable()
    env: Dict[str, int] = {}
    node = _lower_query(query, env, slots)
    width = len(slots.names)
    _fix_widths(node, width)
    free = tuple(query.free_variables())
    free_slots = tuple(env[name] for name in free)
    return _maybe_verify(
        QueryPlan(query, node, width, tuple(slots.names), free,
                  free_slots))


# --------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------- #

def _query_fingerprint(query: Query) -> str:
    """Not called.  Caches pickled by older versions carry this function
    as their ``_key`` field, so loading a store they wrote needs the name
    (:meth:`PlanCache.__setstate__` then drops the field)."""
    return query.fingerprint()


class PlanCache:
    """A bounded, counted, thread-safe LRU of compiled query plans.

    Keys are ``Query.fingerprint()`` digests, so syntactically identical
    queries share one plan.  Every hit, miss and eviction is recorded
    once, as ``plan_cache``, into ``stats`` — the
    :class:`~repro.engine.stats.CacheStats` of the cache's owner (a
    compiled setting passes its own, which is how ``plan_cache_*``
    counters reach every ``EngineResult.cache`` snapshot).  Counters only
    ever move through ``CacheStats`` methods (rule RL004), so every
    snapshot stays balanced.  Two threads racing past the lookup may both
    compile — the counters then truthfully report two misses, and the
    first stored plan wins (mirroring the engine's result cache).
    """

    def __init__(self, stats: Any, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be a positive integer or None "
                             f"(unbounded), got {maxsize!r}")
        self.maxsize = maxsize
        self.stats = stats
        self._plans: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def hits(self) -> int:
        return self.stats.hits("plan_cache")

    @property
    def misses(self) -> int:
        return self.stats.misses("plan_cache")

    @property
    def evictions(self) -> int:
        return self.stats.evictions("plan_cache")

    def snapshot(self) -> Dict[str, int]:
        """This cache's flat view: ``plan_cache_hits``/``_misses``/
        ``_evictions`` and the live ``plan_cache_entries``."""
        return {"plan_cache_hits": self.hits,
                "plan_cache_misses": self.misses,
                "plan_cache_evictions": self.evictions,
                "plan_cache_entries": len(self._plans)}

    def get(self, query: Query) -> QueryPlan:
        """The plan for ``query``, compiling (and caching) on first use."""
        key = query.fingerprint()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.hit("plan_cache")
                return plan
            self.stats.miss("plan_cache")
        compiled = compile_query(query)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                return existing
            self._plans[key] = compiled
            if self.maxsize is not None:
                while len(self._plans) > self.maxsize:
                    self._plans.popitem(last=False)
                    self.stats.evict("plan_cache")
        return compiled

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._plans.clear()

    # Pickling (compiled settings travel to shard-host workers and into the
    # store): the lock stays behind; cached plans travel, so the receiver
    # arrives plan-warm.  Caches pickled by older versions carry retired
    # fields — a ``_counters`` shadow copy of their counts, their ``name``,
    # ``_key`` and ``_compiler`` knobs — which are dropped, and keep their
    # stats under ``_stats``.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        for retired in ("_counters", "name", "_key", "_compiler"):
            state.pop(retired, None)
        if "_stats" in state:
            state["stats"] = state.pop("_stats")
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        bound = "" if self.maxsize is None else f"/{self.maxsize}"
        return (f"<PlanCache entries={len(self._plans)}{bound} "
                f"hits={self.hits} misses={self.misses}>")
