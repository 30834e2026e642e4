"""The consistency problem for XML data exchange (paper, Section 4).

A setting ``(D_S, D_T, Σ_ST)`` is *consistent* iff some ``T ⊨ D_S`` has a
solution.  Theorem 4.1 shows the problem EXPTIME-complete in general; this
module implements

* :func:`pattern_satisfiable` — satisfiability of a tree-pattern formula with
  respect to a DTD (the special case noted after the problem definition), via
  a goal-directed search over (element type, pending pattern goals) states,
* :func:`target_satisfiable` — the same for a *set* of patterns
  simultaneously,
* :func:`check_consistency_general` — the general decision procedure: the
  family of ⪯-minimal source trees is enumerated (up to
  :data:`MAX_SOURCE_SKELETONS` trees and a depth bound derived from the
  source DTD) and for each the set of fired source patterns is tested for
  joint target satisfiability.  This is the same decision problem as the
  automaton-product construction of Theorem 4.1, expressed over pattern
  goals instead of explicit automata; it is exponential in the worst case,
  as it must be.
* :func:`check_consistency` — a front door that dispatches to the polynomial
  Theorem 4.5 algorithm when both DTDs are nested-relational and to the
  general procedure otherwise.

All pattern reasoning here is on the attribute-erased patterns ``ϕ°`` / ``ψ°``
of Claim 4.2.  **A returned verdict is a proven verdict.**  "Consistent"
comes with a witness skeleton whose fired targets are jointly satisfiable, a
proof whether or not the enumeration was cut.  "Inconsistent" is a proof only
when the enumeration was complete and every source pattern binds
pairwise-distinct variables (Section 4's proviso, under which Claim 4.2 is
exact); otherwise both procedures raise
:class:`~repro.exchange.errors.ConsistencyUndecidedError` instead of
answering.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..patterns.evaluate import pattern_holds
from ..patterns.formula import (DescendantPattern, NodePattern, TreePattern)
from ..xmlmodel.dtd import DTD
from ..xmlmodel.tree import XMLTree
from .errors import ConsistencyUndecidedError
from .nested_relational import check_consistency_nested_relational
from .setting import DataExchangeSetting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.compiled import CompiledSetting

__all__ = [
    "ConsistencyResult", "check_consistency", "check_consistency_general",
    "pattern_satisfiable", "target_satisfiable", "minimal_source_skeletons",
]

#: The general procedure examines at most this many ⪯-minimal source
#: skeletons; a search cut here can still prove "consistent", never
#: "inconsistent".
MAX_SOURCE_SKELETONS = 2000


@dataclass
class ConsistencyResult:
    """A proven consistency verdict (see the module text).

    ``witness_source`` is the general procedure's witness skeleton, or the
    nested-relational ``D°_S`` tree."""

    consistent: bool
    method: str
    witness_source: Optional[XMLTree] = None
    detail: str = ""


# --------------------------------------------------------------------- #
# Target-side satisfiability: goal-directed search
# --------------------------------------------------------------------- #

class _GoalSearch:
    """Decides: is there a finite tree conforming to the DTD, rooted at a
    given element type, witnessing the given pattern goals?

    States are (element type, patterns to witness *at* the root, patterns to
    witness *somewhere in* the subtree).  Completed results are memoised;
    states currently on the recursion path are cut (a minimal witness never
    repeats a state along a root-to-leaf path).

    A compiled setting shares one search across every request, so one
    search runs at a time: ``_visiting`` is *the* recursion path, and a
    state another thread is expanding must not look like a cycle."""

    def __init__(self, dtd: DTD) -> None:
        self.dtd = dtd
        self.realizable = dtd.realizable_types()
        self._memo: Dict[Tuple[str, FrozenSet, FrozenSet], bool] = {}
        self._visiting: Set[Tuple[str, FrozenSet, FrozenSet]] = set()
        self._lock = threading.Lock()

    # The memo travels with a pickled compiled setting; the lock stays
    # behind (searches pickled by older versions carry none).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def satisfiable(self, patterns: Iterable[TreePattern]) -> bool:
        goals = frozenset(patterns)
        if self.dtd.root not in self.realizable:
            return False
        with self._lock:
            return self._can_build(self.dtd.root, frozenset(), goals)

    # -- core recursion --------------------------------------------------- #

    def _can_build(self, label: str, at_goals: FrozenSet[TreePattern],
                   sub_goals: FrozenSet[TreePattern]) -> bool:
        if label not in self.realizable:
            return False
        if not at_goals and not sub_goals:
            return True
        state = (label, at_goals, sub_goals)
        if state in self._memo:
            return self._memo[state]
        if state in self._visiting:
            return False  # cycle: a minimal witness never needs this
        self._visiting.add(state)
        try:
            result = self._expand(label, at_goals, sub_goals)
        finally:
            self._visiting.discard(state)
        self._memo[state] = result
        return result

    def _expand(self, label: str, at_goals: FrozenSet[TreePattern],
                sub_goals: FrozenSet[TreePattern]) -> bool:
        sub_list = sorted(sub_goals, key=str)
        # Choose which sub-goals are witnessed at this very node.
        for here_mask in itertools.product((False, True), repeat=len(sub_list)):
            here = [g for g, flag in zip(sub_list, here_mask) if flag]
            delegated = [g for g, flag in zip(sub_list, here_mask) if not flag]
            requirements = self._local_requirements(label, list(at_goals) + here)
            if requirements is None:
                continue
            requirements = requirements + [("sub", g) for g in delegated]
            if self._assign_to_children(label, requirements):
                return True
        return False

    def _local_requirements(self, label: str,
                            witnessed_here: List[TreePattern]
                            ) -> Optional[List[Tuple[str, TreePattern]]]:
        """Child requirements induced by witnessing the given patterns at a
        node labelled ``label``; ``None`` when impossible."""
        requirements: List[Tuple[str, TreePattern]] = []
        for goal in witnessed_here:
            if isinstance(goal, DescendantPattern):
                # Witnessed at v: the inner pattern holds at a proper
                # descendant, i.e. somewhere in some child's subtree.
                requirements.append(("sub", goal.inner))
            elif isinstance(goal, NodePattern):
                attr = goal.attribute
                if not attr.is_wildcard() and attr.label != label:
                    return None
                for child_pattern in goal.children:
                    requirements.append(("at", child_pattern))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected pattern: {goal!r}")
        return requirements

    def _assign_to_children(self, label: str,
                            requirements: List[Tuple[str, TreePattern]]) -> bool:
        analysis = self.dtd.rule_analysis(label)
        alphabet = sorted(self.dtd.content_model(label).alphabet() & self.realizable)
        forbidden = self.dtd.content_model(label).alphabet() - self.realizable
        if not requirements:
            return analysis.semilinear.coverable({}, forbidden)
        if not alphabet:
            return False
        # Partition the requirements into groups, one group per child node.
        for partition in _set_partitions(requirements):
            for labelling in itertools.product(alphabet, repeat=len(partition)):
                counts: Dict[str, int] = {}
                ok = True
                for group, child_label in zip(partition, labelling):
                    if not self._group_fits(group, child_label):
                        ok = False
                        break
                    counts[child_label] = counts.get(child_label, 0) + 1
                if not ok:
                    continue
                if not analysis.semilinear.coverable(counts, forbidden):
                    continue
                if all(self._can_build(child_label,
                                       frozenset(g for kind, g in group if kind == "at"),
                                       frozenset(g for kind, g in group if kind == "sub"))
                       for group, child_label in zip(partition, labelling)):
                    return True
        return False

    @staticmethod
    def _group_fits(group: Sequence[Tuple[str, TreePattern]], label: str) -> bool:
        """Quick pruning: an 'at' requirement with a concrete root label can
        only be assigned to a child of that label."""
        for kind, goal in group:
            if kind == "at" and isinstance(goal, NodePattern):
                attr = goal.attribute
                if not attr.is_wildcard() and attr.label != label:
                    return False
        return True


def _set_partitions(items: Sequence) -> Iterable[List[List]]:
    """All set partitions of ``items`` (small inputs only)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        # put ``first`` into an existing block
        for index in range(len(partition)):
            yield partition[:index] + [partition[index] + [first]] + partition[index + 1:]
        # or into a new block
        yield partition + [[first]]


def target_satisfiable(dtd: DTD, patterns: Iterable[TreePattern]) -> bool:
    """Is there a tree ``T ⊨ D`` (attributes ignored) satisfying all patterns?

    Patterns are attribute-erased before the search (Claim 4.2)."""
    erased = [p.erase_attributes() for p in patterns]
    return _GoalSearch(dtd).satisfiable(erased)


def pattern_satisfiable(dtd: DTD, pattern: TreePattern) -> bool:
    """Satisfiability of a single tree-pattern formula with respect to a DTD."""
    return target_satisfiable(dtd, [pattern])


# --------------------------------------------------------------------- #
# Source-side enumeration of ⪯-minimal conforming skeletons
# --------------------------------------------------------------------- #

def minimal_source_skeletons(dtd: DTD, max_trees: int = MAX_SOURCE_SKELETONS,
                             max_depth: Optional[int] = None
                             ) -> Tuple[List[XMLTree], bool]:
    """Enumerate the attribute-free trees conforming to ``D`` in which every
    node's children multiset is a ⪯-minimal member of ``π(P(ℓ))``.

    Every conforming tree can be pruned to such a skeleton without gaining
    pattern matches (patterns are monotone), so for deciding consistency it
    suffices to examine these skeletons.  Returns ``(trees, complete)`` where
    ``complete`` is False if the enumeration cap or depth bound was reached.
    """
    if max_depth is None:
        max_depth = len(dtd.element_types) + 2 if not dtd.is_recursive() \
            else 2 * len(dtd.element_types) + 2
    realizable = dtd.realizable_types()
    complete = True

    def expand(label: str, depth: int) -> List[XMLTree]:
        nonlocal complete
        if label not in realizable:
            return []
        if depth > max_depth:
            complete = False
            return []
        analysis = dtd.rule_analysis(label)
        results: List[XMLTree] = []
        for vector in analysis.semilinear.minimal_ge({}):
            # ``vector`` is a minimal children multiset; expand each child.
            options_per_symbol: List[Tuple[str, List[XMLTree]]] = []
            feasible = True
            for symbol in sorted(vector):
                subtrees = expand(symbol, depth + 1)
                if not subtrees:
                    feasible = False
                    break
                options_per_symbol.append((symbol, subtrees))
            if not feasible and vector:
                continue
            # Choose one subtree variant per child occurrence.
            slots: List[Tuple[str, List[XMLTree]]] = []
            for symbol, subtrees in options_per_symbol:
                slots.extend([(symbol, subtrees)] * vector[symbol])
            for choice in itertools.product(*(s for _, s in slots)) if slots else [()]:
                tree = XMLTree(label, ordered=False)
                for subtree in choice:
                    tree.graft_subtree(tree.root, subtree)
                results.append(tree)
                if len(results) > max_trees:
                    complete = False
                    return results
        return results

    trees = expand(dtd.root, 0)
    if len(trees) > max_trees:
        trees = trees[:max_trees]
        complete = False
    return trees, complete


# --------------------------------------------------------------------- #
# Consistency
# --------------------------------------------------------------------- #

def _refuse_unproven_inconsistency(setting: DataExchangeSetting,
                                   complete: bool = True,
                                   examined: int = 0) -> None:
    """Called just before a procedure answers "inconsistent": raise
    :class:`~repro.exchange.errors.ConsistencyUndecidedError` naming what
    keeps that verdict from being a proof — an enumeration cut short after
    ``examined`` skeletons, or a source pattern outside the proviso."""
    if not complete:
        raise ConsistencyUndecidedError(
            f"consistency undecided: none of the {examined} minimal source "
            f"skeleton(s) examined is a witness, but the enumeration stopped "
            f"at its bound ({MAX_SOURCE_SKELETONS} trees, or the depth "
            f"bound derived from the source DTD)")
    if not setting.has_distinct_source_variables():
        raise ConsistencyUndecidedError(
            "consistency undecided: a source pattern repeats a variable or "
            "fixes a constant, so the attribute-erased test of Claim 4.2 "
            "cannot prove 'inconsistent' (Section 4 assumes pairwise-distinct "
            "variables in source patterns)")


def check_consistency_general(setting: DataExchangeSetting,
                              compiled: Optional["CompiledSetting"] = None
                              ) -> ConsistencyResult:
    """General consistency check (the Theorem 4.1 decision problem).

    Enumerates ⪯-minimal source skeletons, fires the attribute-erased source
    patterns on each, and tests joint target satisfiability of the fired
    targets.  The first skeleton whose fired targets are satisfiable proves
    "consistent"; "inconsistent" also needs a complete enumeration and the
    distinct-variable proviso, else
    :class:`~repro.exchange.errors.ConsistencyUndecidedError` is raised.

    The procedure runs on the setting's :class:`repro.engine.CompiledSetting`
    (``compiled``, or one compiled for this call; see
    :func:`repro.engine.compiled.compiled_for`): its satisfiability verdict,
    cached skeleton enumeration, attribute-erased dependencies and a goal
    search whose memo table persists across calls.
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    if not compiled.source_satisfiable:
        return ConsistencyResult(False, "general",
                                 detail="SAT(D_S) is empty")
    skeletons, complete = compiled.source_skeletons()
    search = compiled.goal_search()
    erased = compiled.erased_stds
    for skeleton in skeletons:
        fired = [target for source, target in erased
                 if pattern_holds(skeleton, source)]
        if search.satisfiable(fired):
            return ConsistencyResult(True, "general", skeleton,
                                     detail=f"{len(fired)} STD(s) fired")
    _refuse_unproven_inconsistency(setting, complete, len(skeletons))
    return ConsistencyResult(False, "general",
                             detail=f"examined {len(skeletons)} minimal source skeleton(s)")


def check_consistency(setting: DataExchangeSetting,
                      method: str = "auto",
                      compiled: Optional["CompiledSetting"] = None
                      ) -> ConsistencyResult:
    """Decide consistency of a data exchange setting.

    ``method`` is ``"auto"`` (nested-relational fast path when applicable),
    ``"nested-relational"`` (Theorem 4.5, O(n·m²)) or ``"general"``
    (Theorem 4.1 decision problem).  Both procedures run on one
    :class:`repro.engine.CompiledSetting`: ``compiled``, or one compiled for
    this call (see :func:`repro.engine.compiled.compiled_for`).  Both return
    only proven verdicts (see the module text).
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    if method == "nested-relational" or (method == "auto"
                                         and compiled.nested_relational):
        outcome = check_consistency_nested_relational(setting,
                                                      compiled=compiled)
        return ConsistencyResult(outcome.consistent, "nested-relational",
                                 outcome.source_skeleton,
                                 detail=f"{len(outcome.culprits)} culprit STD(s)"
                                 if not outcome.consistent else "")
    if method not in {"auto", "general"}:
        raise ValueError(f"unknown consistency method {method!r}")
    return check_consistency_general(setting, compiled=compiled)
