"""Canonical pre-solutions ``cps(T)`` (paper, Section 6.1, Figure 5).

For a fully-specified STD ``ψ_T(x̄, z̄) :– ϕ_S(x̄, ȳ)`` and every pair of
tuples ``s̄, s̄'`` with ``T ⊨ ϕ_S(s̄, s̄')``, the tree ``T_{ψ_T(s̄, s̄'')}`` is
materialised, where ``s̄''`` is a tuple of fresh, pairwise-distinct nulls.
All these trees are then merged at their roots into a single unordered tree,
the *canonical pre-solution* ``cps(T)``.

``cps(T)`` is computable in polynomial time; it typically violates the target
DTD and is subsequently repaired by the chase (:mod:`repro.exchange.chase`).

Each instance is written straight into ``cps(T)``: its root's attributes on
the ``cps`` root (a value already there is kept), its other nodes appended
depth-first.  Nulls are drawn in a fixed order, on which canonical-solution
fingerprints depend: per source match, the existential variables ``z̄``, then
the root's unbound variables (even where the root keeps a value), then each
child subtree depth-first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

from ..patterns.formula import NodePattern, TreePattern, Variable
from ..patterns.plan import PatternPlan
from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import NullFactory, Value
from .setting import DataExchangeSetting
from .std import STD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.compiled import CompiledSetting
    from ..engine.stats import CacheStats

__all__ = ["pattern_to_tree", "canonical_pre_solution", "PreSolutionError"]


class PreSolutionError(ValueError):
    """Raised when an STD is not fully specified (cps is undefined then)."""


def pattern_to_tree(pattern: TreePattern, assignment: Mapping[str, Value],
                    nulls: Optional[NullFactory] = None,
                    ordered: bool = False) -> XMLTree:
    """The tree ``T_{ϕ(s̄)}`` naturally associated with a pattern instance.

    The pattern must not use descendant or wildcard (Section 6.1); unassigned
    variables receive fresh nulls from ``nulls``.
    """
    factory = nulls or NullFactory()
    if pattern.uses_descendant() or pattern.uses_wildcard():
        raise PreSolutionError(
            "pattern_to_tree requires a pattern without descendant // and wildcard _")
    if not isinstance(pattern, NodePattern):  # pragma: no cover - defensive
        raise PreSolutionError(f"unexpected pattern shape: {pattern}")
    tree = XMLTree(pattern.attribute.label, ordered=ordered)
    _instantiate(tree, tree.root, pattern, dict(assignment), factory)
    return tree


def _instantiate(tree: XMLTree, node: int, pattern: NodePattern,
                 binding: Dict[str, Value], factory: NullFactory) -> None:
    """Write ``pattern`` under ``binding`` at ``node``: its attributes (a
    value ``node`` already carries is kept), then its children, appended
    depth-first; unbound variables draw fresh nulls in that order."""
    written: Dict[str, Value] = {}
    for attr_name, term in pattern.attribute.assignments:
        if isinstance(term, Variable):
            if term.name not in binding:
                binding[term.name] = factory.fresh()
            value = binding[term.name]
        else:
            value = term
        if written.setdefault(attr_name, value) != value:
            raise PreSolutionError(
                f"conflicting values for @{attr_name} at a single pattern node")
        if tree.attribute(node, attr_name) is None:
            tree.set_attribute(node, attr_name, value)
    for child in pattern.children:
        assert isinstance(child, NodePattern)
        _instantiate(tree, tree.add_child(node, child.attribute.label),
                     child, binding, factory)


def canonical_pre_solution(setting: DataExchangeSetting, source_tree: XMLTree,
                           nulls: Optional[NullFactory] = None,
                           compiled: Optional["CompiledSetting"] = None) -> XMLTree:
    """Compute ``cps(T)`` for a fully-specified setting (Section 6.1).

    The result is an *unordered* tree rooted at the target root element whose
    child subtrees are the instantiated right-hand sides of the STDs, one per
    satisfying source assignment, written in place (the one tree this call
    builds; nulls are drawn in the order the module docstring fixes).

    Every STD's source pattern runs on the source tree's memoised
    snapshot (:meth:`~repro.xmlmodel.tree.XMLTree.freeze`) as the compiled
    plan the setting's
    :class:`repro.engine.CompiledSetting` lowered at compile time, so the
    request path never touches the pattern AST.  ``compiled`` is that
    handle; without one the setting is compiled for this call (see
    :func:`repro.engine.compiled.compiled_for`).
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    factory = nulls or NullFactory()
    root_label = setting.target_dtd.root
    result = XMLTree(root_label, ordered=False)
    if not compiled.dichotomy.fully_specified:
        for dependency in setting.stds:
            if not dependency.is_fully_specified(root_label):
                raise PreSolutionError(
                    f"STD {dependency} is not fully specified; "
                    "canonical pre-solutions are defined for fully-specified STDs only")
    frozen = source_tree.freeze()
    for dependency, plan in zip(setting.stds, compiled.std_source_plans):
        _instantiate_std(result, dependency, frozen, factory, plan,
                         compiled.stats)
    return result


def _instantiate_std(result: XMLTree, dependency: STD, frozen: FrozenTree,
                     factory: NullFactory, plan: PatternPlan,
                     stats: "CacheStats") -> None:
    target = dependency.target
    assert isinstance(target, NodePattern)
    var_slots = [(name, plan.slot_of(name))
                 for name in dependency.source_variables()]
    existential = dependency.existential_variables()
    seen: set = set()
    for row in plan.matches(frozen, stats=stats):
        # One instantiation per distinct tuple (s̄, s̄') of source values
        # (keyed on the value objects themselves — type-aware, never on
        # rendered representations).
        key = tuple(row[slot] for _, slot in var_slots)
        if key in seen:
            continue
        seen.add(key)
        binding: Dict[str, Value] = {name: row[slot]
                                     for name, slot in var_slots
                                     if row[slot] is not None}
        # Fresh nulls for the existential target variables z̄.
        for name in existential:
            binding[name] = factory.fresh()
        # The instance T_{ψ_T(s̄, s̄'')} merged at the root: written in place.
        _instantiate(result, result.root, target, binding, factory)
