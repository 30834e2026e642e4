"""Conjunctive tree queries: CTQ, CTQ//, CTQ∪ and CTQ//,∪ (paper, Section 5).

The query language is the closure of tree-pattern formulae under conjunction
and existential quantification::

    Q := ϕ | Q ∧ Q | ∃x Q

plus finite unions ``Q_1 ∪ … ∪ Q_m`` of queries with the same free variables.
Queries return sets of tuples of attribute values (never trees), so that the
certain-answer semantics of Section 5.1 is well defined.

Fragments:

* ``CTQ``     — no descendant ``//``,
* ``CTQ//``   — with descendant,
* ``CTQ∪``    — unions of CTQ queries,
* ``CTQ//,∪`` — unions of CTQ// queries.

:func:`classify_query` reports which fragment a query belongs to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import Value
from .evaluate import (Assignment, assignment_key, join_assignments,
                       match_anywhere)
from .formula import TreePattern

__all__ = [
    "Query", "PatternQuery", "ConjunctionQuery", "ExistsQuery", "UnionQuery",
    "pattern_query", "conjunction", "exists", "union_query",
    "evaluate_query", "classify_query", "boolean_query_holds",
    "check_variable_order",
]


class Query:
    """Base class of CTQ//,∪ queries."""

    def free_variables(self) -> List[str]:
        """Free variables, in order of first occurrence."""
        raise NotImplementedError

    def patterns(self) -> Iterable[TreePattern]:
        """All tree-pattern atoms occurring in the query."""
        raise NotImplementedError

    def evaluate(self, tree: XMLTree) -> List[Assignment]:
        """All assignments of the *free* variables satisfied in ``tree``."""
        raise NotImplementedError

    # -- derived views ---------------------------------------------------- #

    def answers(self, tree: XMLTree,
                variable_order: Optional[Sequence[str]] = None) -> Set[Tuple[Value, ...]]:
        """``Q(T)`` as a set of tuples ordered by ``variable_order`` (defaults
        to the free-variable order)."""
        order = list(variable_order) if variable_order is not None else self.free_variables()
        result = set()
        for assignment in self.evaluate(tree):
            result.add(tuple(assignment[name] for name in order))
        return result

    def is_boolean(self) -> bool:
        """True iff the query has no free variables (a sentence)."""
        return not self.free_variables()

    def holds(self, tree: XMLTree) -> bool:
        """For Boolean queries: ``T ⊨ Q``."""
        return bool(self.evaluate(tree))

    def uses_descendant(self) -> bool:
        return any(p.uses_descendant() for p in self.patterns())

    def fingerprint(self) -> str:
        """A content fingerprint of the query: the SHA-256 digest of its
        class name and canonical string rendering (which is deterministic for
        every query shape).  Queries with the same fingerprint are
        syntactically identical, so the digest is a sound — conservative —
        cache key for query results."""
        key = f"{type(self).__name__}:{self}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PatternQuery(Query):
    """A single tree-pattern atom ``ϕ(x̄)``."""

    pattern: TreePattern

    def free_variables(self) -> List[str]:
        return [v.name for v in self.pattern.variables()]

    def patterns(self) -> Iterable[TreePattern]:
        return [self.pattern]

    def evaluate(self, tree: XMLTree) -> List[Assignment]:
        return match_anywhere(tree, self.pattern)

    def __str__(self) -> str:
        return str(self.pattern)


@dataclass(frozen=True)
class ConjunctionQuery(Query):
    """``Q_1 ∧ … ∧ Q_k``."""

    members: Tuple[Query, ...]

    def free_variables(self) -> List[str]:
        seen: List[str] = []
        for member in self.members:
            for name in member.free_variables():
                if name not in seen:
                    seen.append(name)
        return seen

    def patterns(self) -> Iterable[TreePattern]:
        for member in self.members:
            yield from member.patterns()

    def evaluate(self, tree: XMLTree) -> List[Assignment]:
        result: List[Assignment] = [{}]
        for member in self.members:
            result = join_assignments(result, member.evaluate(tree))
            if not result:
                return []
        return result

    def __str__(self) -> str:
        return " ∧ ".join(f"({m})" for m in self.members)


@dataclass(frozen=True)
class ExistsQuery(Query):
    """``∃x_1 … ∃x_k Q``."""

    variables: Tuple[str, ...]
    inner: Query

    def free_variables(self) -> List[str]:
        bound = set(self.variables)
        return [name for name in self.inner.free_variables() if name not in bound]

    def patterns(self) -> Iterable[TreePattern]:
        return self.inner.patterns()

    def evaluate(self, tree: XMLTree) -> List[Assignment]:
        free = self.free_variables()
        projected: List[Assignment] = []
        seen = set()
        for assignment in self.inner.evaluate(tree):
            reduced = {name: assignment[name] for name in free if name in assignment}
            key = assignment_key(reduced)
            if key not in seen:
                seen.add(key)
                projected.append(reduced)
        return projected

    def __str__(self) -> str:
        quantified = " ".join(f"∃{v}" for v in self.variables)
        return f"{quantified} ({self.inner})"


@dataclass(frozen=True)
class UnionQuery(Query):
    """``Q_1 ∪ … ∪ Q_m`` (all members share the same free variables)."""

    members: Tuple[Query, ...]

    def __post_init__(self) -> None:
        signatures = {tuple(sorted(m.free_variables())) for m in self.members}
        if len(signatures) > 1:
            raise ValueError(
                "all members of a union query must have the same free variables; "
                f"got {sorted(signatures)}")

    def free_variables(self) -> List[str]:
        return self.members[0].free_variables() if self.members else []

    def patterns(self) -> Iterable[TreePattern]:
        for member in self.members:
            yield from member.patterns()

    def evaluate(self, tree: XMLTree) -> List[Assignment]:
        collected: List[Assignment] = []
        seen = set()
        for member in self.members:
            for assignment in member.evaluate(tree):
                key = assignment_key(assignment)
                if key not in seen:
                    seen.add(key)
                    collected.append(assignment)
        return collected

    def __str__(self) -> str:
        return " ∪ ".join(f"({m})" for m in self.members)


# --------------------------------------------------------------------- #
# Constructors and helpers
# --------------------------------------------------------------------- #

def pattern_query(pattern: TreePattern) -> PatternQuery:
    """Wrap a tree-pattern formula as a query atom."""
    return PatternQuery(pattern)


def conjunction(*members: Query) -> Query:
    """Conjunction of queries (flattening single members)."""
    if len(members) == 1:
        return members[0]
    return ConjunctionQuery(tuple(members))


def exists(variables: Sequence[str], inner: Query) -> Query:
    """Existential quantification ``∃x̄ Q``."""
    if not variables:
        return inner
    return ExistsQuery(tuple(variables), inner)


def union_query(*members: Query) -> Query:
    """Union of queries with identical free variables."""
    if len(members) == 1:
        return members[0]
    return UnionQuery(tuple(members))


def check_variable_order(query: Query,
                         variable_order: Optional[Sequence[str]]
                         ) -> Optional[Tuple[str, ...]]:
    """A caller's answer-tuple order as a tuple, checked against ``query``;
    ``None`` (the free-variable order) stays ``None``.

    Raises ``ValueError`` for a bare string (it would read as one variable
    per character), an entry that is not a string, or a name outside
    ``query.free_variables()``."""
    if variable_order is None:
        return None
    if isinstance(variable_order, str):
        raise ValueError(
            f"variable_order is a sequence of variable names, not the "
            f"string {variable_order!r:.40}")
    order = tuple(variable_order)
    free = query.free_variables()
    for name in order:
        if not isinstance(name, str):
            raise ValueError(f"variable_order entries are variable names, "
                             f"got {name!r:.40}")
        if name not in free:
            raise ValueError(f"variable_order names {name!r:.40}, which is "
                             f"not a free variable of the query {free}")
    return order


def evaluate_query(query: Query, tree: XMLTree,
                   variable_order: Optional[Sequence[str]] = None) -> Set[Tuple[Value, ...]]:
    """``Q(T)`` as a set of value tuples."""
    return query.answers(tree, variable_order)


def boolean_query_holds(query: Query, tree: XMLTree) -> bool:
    """``T ⊨ Q`` for a Boolean query."""
    return query.holds(tree)


def classify_query(query: Query) -> str:
    """Return the fragment name: ``"CTQ"``, ``"CTQ//"``, ``"CTQ∪"`` or
    ``"CTQ//,∪"`` (Section 5)."""
    descendant = query.uses_descendant()
    union = isinstance(query, UnionQuery) and len(query.members) > 1
    if descendant and union:
        return "CTQ//,∪"
    if descendant:
        return "CTQ//"
    if union:
        return "CTQ∪"
    return "CTQ"
