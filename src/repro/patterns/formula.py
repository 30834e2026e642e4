"""Tree-pattern formulae and attribute formulae (paper, Section 3.1).

Attribute formulae over ``(E, A)``::

    α := ℓ  |  ℓ(@a_1 = x_1, …, @a_n = x_n)

where ``ℓ`` is an element type or the wildcard ``_`` and the ``x_i`` are
variables (we additionally allow string literals in place of variables, which
is convenient when building queries with constants — a literal behaves like a
variable pre-bound to that constant).

Tree-pattern formulae::

    ϕ := α  |  α[ϕ, …, ϕ]  |  //ϕ

``//ϕ`` is witnessed at a node ``v`` iff some *proper descendant* of ``v``
witnesses ``ϕ``; ``α[ϕ_1, …, ϕ_k]`` is witnessed at ``v`` iff ``α`` holds at
``v`` and each ``ϕ_i`` is witnessed at some (not necessarily distinct) child
of ``v``.  A formula is true in a tree iff *some* node of the tree witnesses
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union as TUnion


__all__ = [
    "WILDCARD", "Variable", "Term", "AttributeFormula",
    "TreePattern", "NodePattern", "DescendantPattern",
    "node", "descendant", "wildcard",
]

#: The wildcard label ``_`` that matches every element type.
WILDCARD = "_"


@dataclass(frozen=True)
class Variable:
    """A variable ranging over attribute values (``Str``)."""

    name: str

    def __str__(self) -> str:
        return self.name


#: A term in an attribute formula: a variable or a constant value.
Term = TUnion[Variable, str]


@dataclass(frozen=True)
class AttributeFormula:
    """``ℓ(@a_1 = t_1, …, @a_n = t_n)`` — or the bare label when ``assignments``
    is empty.  ``label`` may be :data:`WILDCARD`."""

    label: str
    assignments: Tuple[Tuple[str, Term], ...] = ()

    def variables(self) -> List[Variable]:
        """Free variables, in order of first occurrence."""
        seen: List[Variable] = []
        for _, term in self.assignments:
            if isinstance(term, Variable) and term not in seen:
                seen.append(term)
        return seen

    def is_wildcard(self) -> bool:
        return self.label == WILDCARD

    def label_only(self) -> "AttributeFormula":
        """The formula ``α°`` of Claim 4.2: keep the label, drop attributes."""
        return AttributeFormula(self.label)

    def __str__(self) -> str:
        if not self.assignments:
            return self.label
        parts = ", ".join(
            f"@{name}={term if isinstance(term, Variable) else repr(term)}"
            for name, term in self.assignments)
        return f"{self.label}({parts})"


class TreePattern:
    """Base class of tree-pattern formulae."""

    def variables(self) -> List[Variable]:
        """Free variables in order of first occurrence."""
        raise NotImplementedError

    def subpatterns(self) -> Iterator["TreePattern"]:
        """All subformulae, including ``self`` (pre-order)."""
        raise NotImplementedError

    def uses_descendant(self) -> bool:
        """Does the formula use ``//``?"""
        return any(isinstance(p, DescendantPattern) for p in self.subpatterns())

    def uses_wildcard(self) -> bool:
        """Does the formula use the wildcard label?"""
        return any(isinstance(p, NodePattern) and p.attribute.is_wildcard()
                   for p in self.subpatterns())

    def size(self) -> int:
        """``‖ϕ‖``: number of subformulae plus attribute comparisons."""
        total = 0
        for pattern in self.subpatterns():
            total += 1
            if isinstance(pattern, NodePattern):
                total += len(pattern.attribute.assignments)
        return total

    def erase_attributes(self) -> "TreePattern":
        """The formula ``ϕ°`` of Claim 4.2 (drop all attribute comparisons)."""
        raise NotImplementedError

    def is_path_pattern(self) -> bool:
        """Path-pattern formulae (Section 4): at most one child per node."""
        return all(len(p.children) <= 1 for p in self.subpatterns()
                   if isinstance(p, NodePattern))


@dataclass(frozen=True)
class NodePattern(TreePattern):
    """``α`` or ``α[ϕ_1, …, ϕ_k]``."""

    attribute: AttributeFormula
    children: Tuple[TreePattern, ...] = ()

    def variables(self) -> List[Variable]:
        seen: List[Variable] = []
        for var in self.attribute.variables():
            if var not in seen:
                seen.append(var)
        for child in self.children:
            for var in child.variables():
                if var not in seen:
                    seen.append(var)
        return seen

    def subpatterns(self) -> Iterator[TreePattern]:
        yield self
        for child in self.children:
            yield from child.subpatterns()

    def erase_attributes(self) -> TreePattern:
        return NodePattern(self.attribute.label_only(),
                           tuple(c.erase_attributes() for c in self.children))

    def __str__(self) -> str:
        if not self.children:
            return str(self.attribute)
        inner = ", ".join(str(c) for c in self.children)
        return f"{self.attribute}[{inner}]"


@dataclass(frozen=True)
class DescendantPattern(TreePattern):
    """``//ϕ``."""

    inner: TreePattern

    def variables(self) -> List[Variable]:
        return self.inner.variables()

    def subpatterns(self) -> Iterator[TreePattern]:
        yield self
        yield from self.inner.subpatterns()

    def erase_attributes(self) -> TreePattern:
        return DescendantPattern(self.inner.erase_attributes())

    def __str__(self) -> str:
        return f"//{self.inner}"


# --------------------------------------------------------------------- #
# Convenience constructors
# --------------------------------------------------------------------- #

def _term(value) -> Term:
    if isinstance(value, (Variable, str)):
        return value
    raise TypeError(f"attribute terms must be Variable or str, got {value!r}")


def node(label: str, attrs: Optional[Dict[str, Term]] = None,
         *children: TreePattern) -> NodePattern:
    """Build ``label(@a=t, …)[children…]``.  ``attrs`` values may be
    :class:`Variable` instances, bare variable names prefixed with ``$`` (e.g.
    ``"$x"``), or constant strings."""
    assignments: List[Tuple[str, Term]] = []
    for name, value in (attrs or {}).items():
        if isinstance(value, str) and value.startswith("$"):
            value = Variable(value[1:])
        assignments.append((name, _term(value)))
    return NodePattern(AttributeFormula(label, tuple(assignments)), tuple(children))


def wildcard(attrs: Optional[Dict[str, Term]] = None,
             *children: TreePattern) -> NodePattern:
    """Build a wildcard pattern ``_(...)[children…]``."""
    return node(WILDCARD, attrs, *children)


def descendant(inner: TreePattern) -> DescendantPattern:
    """Build ``//inner``."""
    return DescendantPattern(inner)
