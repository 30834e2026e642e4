"""Source-to-target dependencies (STDs), Definition 3.1.

An STD between a source DTD ``D_S`` and a target DTD ``D_T`` is an expression

    ψ_T(x̄, z̄)  :–  ϕ_S(x̄, ȳ)

where ``ϕ_S`` and ``ψ_T`` are tree-pattern formulae over the source and target
vocabularies and ``ȳ``, ``z̄`` share no variables.  A pair of trees ``⟨T, T'⟩``
satisfies the STD iff whenever ``T ⊨ ϕ_S(s̄, s̄')`` there is ``s̄''`` with
``T' ⊨ ψ_T(s̄, s̄'')``.

This module also provides the classification of STDs used in Section 5:
*fully-specified* STDs (target pattern rooted at the target root element, no
descendant, no wildcard) and the three relaxations ``STD(_, //)``,
``STD(r, //)`` and ``STD(r, _)`` of Theorem 5.11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..patterns.evaluate import assignment_key, match_anywhere, pattern_holds
from ..patterns.formula import NodePattern, TreePattern, Variable
from ..patterns.parse import parse_pattern
from ..xmlmodel.tree import XMLTree

__all__ = ["STD", "std", "classify_std"]


@dataclass(frozen=True)
class STD:
    """A source-to-target dependency ``target :– source``."""

    target: TreePattern
    source: TreePattern

    # ------------------------------------------------------------------ #
    # Variables
    # ------------------------------------------------------------------ #

    def source_variables(self) -> List[str]:
        """Free variables of ``ϕ_S`` (that is, ``x̄ ∪ ȳ``)."""
        return [v.name for v in self.source.variables()]

    def target_variables(self) -> List[str]:
        """Free variables of ``ψ_T`` (that is, ``x̄ ∪ z̄``)."""
        return [v.name for v in self.target.variables()]

    def shared_variables(self) -> List[str]:
        """The exported variables ``x̄`` = vars(ϕ_S) ∩ vars(ψ_T)."""
        target_vars = set(self.target_variables())
        return [name for name in self.source_variables() if name in target_vars]

    def existential_variables(self) -> List[str]:
        """The invented variables ``z̄`` = vars(ψ_T) \\ vars(ϕ_S)."""
        source_vars = set(self.source_variables())
        return [name for name in self.target_variables() if name not in source_vars]

    def has_distinct_source_variables(self) -> bool:
        """The Section 4 proviso: every attribute comparison in ϕ_S binds a
        variable, and no variable occurs twice (a constant is not a
        variable)."""
        names: List[str] = []
        for pattern in self.source.subpatterns():
            if isinstance(pattern, NodePattern):
                for _, term in pattern.attribute.assignments:
                    if not isinstance(term, Variable):
                        return False
                    names.append(term.name)
        return len(names) == len(set(names))

    # ------------------------------------------------------------------ #
    # Classification (Definition 5.10 and Theorem 5.11)
    # ------------------------------------------------------------------ #

    def is_fully_specified(self, target_root: Optional[str] = None) -> bool:
        """Fully-specified: the target pattern is ``r[ϕ_1, …, ϕ_k]`` where
        ``r`` is the target root type and the ``ϕ_i`` use neither ``//`` nor
        the wildcard."""
        pattern = self.target
        if not isinstance(pattern, NodePattern):
            return False
        if pattern.attribute.is_wildcard():
            return False
        if target_root is not None and pattern.attribute.label != target_root:
            return False
        return not pattern.uses_descendant() and not pattern.uses_wildcard()

    def target_classes(self, target_root: Optional[str] = None) -> Set[str]:
        """Which of the Theorem 5.11 classes the target pattern falls into.

        Returns a subset of ``{"fully-specified", "STD(_,//)", "STD(r,//)",
        "STD(r,_)"}`` — the most permissive description(s) of the pattern.
        """
        rooted = (isinstance(self.target, NodePattern)
                  and not self.target.attribute.is_wildcard()
                  and (target_root is None
                       or self.target.attribute.label == target_root))
        uses_desc = self.target.uses_descendant()
        uses_wild = self.target.uses_wildcard()
        classes: Set[str] = set()
        if rooted and not uses_desc and not uses_wild:
            classes.add("fully-specified")
        if not uses_desc and not uses_wild:
            classes.add("STD(_,//)")       # wildcard and descendant forbidden
        if rooted and not uses_desc:
            classes.add("STD(r,//)")        # descendant forbidden
        if rooted and not uses_wild:
            classes.add("STD(r,_)")         # wildcard forbidden
        return classes

    def size(self) -> int:
        """``‖σ‖``: combined size of the two patterns."""
        return self.source.size() + self.target.size()

    # ------------------------------------------------------------------ #
    # Satisfaction
    # ------------------------------------------------------------------ #

    def satisfied_by(self, source_tree: XMLTree, target_tree: XMLTree) -> bool:
        """Does ``⟨T, T'⟩`` satisfy this STD (Definition 3.1)?"""
        return not self.violations(source_tree, target_tree)

    def violations(self, source_tree: XMLTree, target_tree: XMLTree,
                   limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Source-side assignments whose required target pattern is missing.

        Each violation is the restriction of a satisfying source assignment to
        the exported variables ``x̄``.
        """
        shared = self.shared_variables()
        missing: List[Dict[str, object]] = []
        seen: Set[Tuple] = set()
        for assignment in match_anywhere(source_tree, self.source):
            exported = {name: assignment[name] for name in shared if name in assignment}
            key = assignment_key(exported)
            if key in seen:
                continue
            seen.add(key)
            if not pattern_holds(target_tree, self.target, binding=exported):
                missing.append(exported)
                if limit is not None and len(missing) >= limit:
                    break
        return missing

    def __str__(self) -> str:
        return f"{self.target} :- {self.source}"


def std(target: object, source: object) -> STD:
    """Build an STD from pattern objects or pattern strings.

    Example (the STD of Example 3.4)::

        std("bib[writer(@name=y)[work(@title=x, @year=z)]]",
            "db[book(@title=x)[author(@name=y)]]")
    """
    target_pattern = target if isinstance(target, TreePattern) else parse_pattern(str(target))
    source_pattern = source if isinstance(source, TreePattern) else parse_pattern(str(source))
    return STD(target_pattern, source_pattern)


def classify_std(dependency: STD, target_root: Optional[str] = None) -> str:
    """A single human-readable class name for an STD (the most restrictive
    class of Theorem 5.11 it belongs to)."""
    classes = dependency.target_classes(target_root)
    if "fully-specified" in classes:
        return "fully-specified"
    for name in ("STD(_,//)", "STD(r,//)", "STD(r,_)"):
        if name in classes:
            return name
    return "unrestricted"
