"""The chase for XML data exchange: ``ChangeAtt`` / ``ChangeReg`` (Figure 7).

Starting from the canonical pre-solution ``cps(T)``, the chase repeatedly
repairs violations of the target DTD:

* **ChangeAtt** (easy violations): a node misses attributes required by
  ``R(λ(v))`` — add them with fresh nulls; a node carries an attribute outside
  ``R(λ(v))`` — the chase *fails* (the STDs force an attribute the DTD
  forbids).
* **ChangeReg** (hard violations): the children word ``w`` of a node is not in
  ``π(P(λ(v)))``.  The repair candidates are ``rep(w, P(λ(v)))``
  (Section 6.1); if the set is empty the chase fails, otherwise the
  ⊑_w-maximum ``w'`` of the set is applied: missing element types are added
  as fresh childless nodes and over-represented types are merged into a
  single node (failing on a clash of constant attribute values).

For target DTDs whose content models are all *univocal* (class ``C_U``,
Definition 6.9) that maximum exists and merged types shrink to exactly one
node (Claim 6.17), every chase sequence is finite (Lemma 6.12) and terminal
chase sequences characterise solution existence (Lemma 6.15):

* a *successful* chase yields the **canonical solution** ``T*`` — certain
  answers of CTQ//,∪ queries can be read off ``T*`` (Lemma 6.5);
* a *failing* chase proves that the source tree has **no solution**.

Outside ``C_U`` neither holds, so nothing guesses: :func:`canonical_solution`,
which every request path goes through, refuses such a setting with
:class:`~repro.exchange.errors.ChaseError`, and so does ChangeReg when
``rep(w, r)`` has no ⊑_w-maximum.  :mod:`repro.exchange.naive` stays the
exact method for small instances there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs.trace import span as _span
from ..regexlang.parikh import parikh_vector
from ..regexlang.univocal import maximum_of
from ..xmlmodel.dtd import DTD
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import NullFactory, Value, is_constant
from .errors import ChaseError
from .presolution import canonical_pre_solution
from .setting import DataExchangeSetting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.compiled import CompiledSetting
    from ..xmlmodel.frozen import FrozenTree

__all__ = ["ChaseError", "ChaseResult", "chase", "canonical_solution"]


@dataclass
class ChaseStep:
    """One applied repair, for tracing and tests."""

    rule: str            # "ChangeAtt" or "ChangeReg"
    node: int
    label: str
    detail: str


@dataclass
class ChaseResult:
    """Outcome of a chase sequence."""

    success: bool
    tree: Optional[XMLTree]
    failure: Optional[str] = None
    steps: List[ChaseStep] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.success

    @property
    def frozen(self) -> Optional["FrozenTree"]:
        """The memoised snapshot of ``tree`` (``None`` without one): the
        one the chase's final conformance check already built, which query
        evaluation then reads."""
        return None if self.tree is None else self.tree.freeze()


def chase(target_dtd: DTD, tree: XMLTree,
          nulls: Optional[NullFactory] = None,
          max_depth: Optional[int] = None) -> ChaseResult:
    """Run the chase of Figure 7 on ``tree`` (typically ``cps(T)``).

    The input tree is not modified; the result contains the repaired copy on
    success.  ``max_depth`` guards against recursive target DTDs that would
    require unbounded expansion (the guard is generous and never reached for
    non-recursive DTDs).
    """
    working = tree.copy()
    working.ordered = False
    factory = nulls or NullFactory(start=1_000_000)
    steps: List[ChaseStep] = []
    if max_depth is None:
        max_depth = working.depth() + len(target_dtd.element_types) + 8
    try:
        _process(target_dtd, working, working.root, factory, steps, depth=0,
                 max_depth=max_depth)
    except _ChaseFailure as failure:
        return ChaseResult(False, None, failure.reason, steps)
    # The final conformance sweep freezes the repaired tree; the snapshot
    # stays memoised on it, so query evaluation (ChaseResult.frozen) reads
    # the same one.
    problems = target_dtd.conformance_violations(working, ordered=False)
    if problems:  # pragma: no cover - defensive; the chase repairs everything or fails
        return ChaseResult(False, None, "; ".join(problems), steps)
    return ChaseResult(True, working, None, steps)


def canonical_solution(setting: DataExchangeSetting, source_tree: XMLTree,
                       nulls: Optional[NullFactory] = None,
                       compiled: Optional["CompiledSetting"] = None) -> ChaseResult:
    """``cps(T)`` followed by the chase: the canonical solution of Section 6.1.

    Returns a failing :class:`ChaseResult` when no solution exists
    (Lemma 6.15 b).  The setting must lie in ``C_U`` (Theorem 6.2): a
    fully-specified setting whose target DTD is not univocal raises
    :class:`ChaseError` before ``cps(T)`` is built, and one that is not fully
    specified raises the pre-solution's ``PreSolutionError`` (a
    ``ValueError``).  The verdict is read from ``compiled``'s dichotomy
    report; without a handle the setting is compiled once, here (see
    :func:`repro.engine.compiled.compiled_for`).
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    with _span("engine.chase"):
        dichotomy = compiled.dichotomy
        if dichotomy.fully_specified and not dichotomy.target_univocal:
            raise ChaseError(
                "the target DTD is not univocal, so the chase computes no "
                "canonical solution (Theorem 6.2 covers C_U only): "
                + dichotomy.summary())
        factory = nulls or NullFactory()
        pre_solution = canonical_pre_solution(setting, source_tree, factory,
                                              compiled=compiled)
        return chase(setting.target_dtd, pre_solution, factory)


# --------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------- #

class _ChaseFailure(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _process(dtd: DTD, tree: XMLTree, node: int, nulls: NullFactory,
             steps: List[ChaseStep], depth: int, max_depth: int) -> None:
    """Depth-first repair: attributes, then the children word, then recurse."""
    if depth > max_depth:
        raise ChaseError(
            "chase exceeded the expansion depth guard; the target DTD is "
            "recursive and forces unbounded trees")
    _change_att(dtd, tree, node, nulls, steps)
    _change_reg(dtd, tree, node, nulls, steps)
    for child in tree.children(node):
        _process(dtd, tree, child, nulls, steps, depth + 1, max_depth)


def _change_att(dtd: DTD, tree: XMLTree, node: int, nulls: NullFactory,
                steps: List[ChaseStep]) -> None:
    label = tree.label(node)
    expected = dtd.attributes_of(label)
    actual = set(tree.attributes(node))
    if actual == expected:
        return
    extra = actual - expected
    if extra:
        raise _ChaseFailure(
            f"node of type {label!r} carries attribute(s) {sorted(extra)} "
            f"not allowed by R({label}) = {sorted(expected)}")
    for name in sorted(expected - actual):
        tree.set_attribute(node, name, nulls.fresh())
    steps.append(ChaseStep("ChangeAtt", node, label,
                           f"added {sorted(expected - actual)}"))


def _change_reg(dtd: DTD, tree: XMLTree, node: int, nulls: NullFactory,
                steps: List[ChaseStep]) -> None:
    """ChangeReg at ``node``: move its children word ``w`` to the
    ⊑_w-maximum of ``rep(w, r)`` (Section 6.1).  An empty ``rep(w, r)``
    fails the chase; a set without a maximum — possible only when ``r`` is
    not univocal — raises :class:`ChaseError`, since no choice among its
    maximal repairs is canonical."""
    label = tree.label(node)
    analysis = dtd.rule_analysis(label)
    word = parikh_vector(tree.children_labels(node))
    if analysis.permutation_contains(word):
        return
    repairs = analysis.repairs(word)
    if not repairs:
        raise _ChaseFailure(
            f"children of a {label!r} node (counts {word}) cannot be repaired "
            f"to match π({dtd.content_model(label)})")
    target = maximum_of(repairs, word)
    if target is None:
        raise ChaseError(
            f"the repairs of a {label!r} node's children (counts {word}) "
            f"have no ⊑_w-maximum: {label} → {dtd.content_model(label)} is "
            "not univocal (Claim 6.17)")
    detail_parts: List[str] = []
    for symbol in sorted(set(word) | set(target) | dtd.content_model(label).alphabet()):
        have = word.get(symbol, 0)
        want = target.get(symbol, 0)
        if have < want:
            for _ in range(want - have):
                tree.add_child(node, symbol)
            detail_parts.append(f"+{want - have}×{symbol}")
        elif have > want:
            _merge_children(dtd, tree, node, symbol, want, label)
            detail_parts.append(f"merge {symbol} {have}→{want}")
    steps.append(ChaseStep("ChangeReg", node, label, ", ".join(detail_parts)))


def _merge_children(dtd: DTD, tree: XMLTree, node: int, symbol: str,
                    target_count: int, parent_label: str) -> None:
    if target_count != 1:
        raise ChaseError(
            f"ChangeReg must shrink {symbol!r} children of a {parent_label!r} "
            f"node to {target_count}, but the merge step of Figure 7 is only "
            "defined for a target multiplicity of 1 (Claim 6.17 guarantees "
            "this inside C_U); the content model is not univocal")
    victims = [c for c in tree.children(node) if tree.label(c) == symbol]
    merged_attributes: Dict[str, Value] = {}
    for attr_name in dtd.attributes_of(symbol):
        constants = {tree.attribute(v, attr_name)
                     for v in victims
                     if is_constant(tree.attribute(v, attr_name))}
        if len(constants) > 1:
            raise _ChaseFailure(
                f"attribute clash while merging {symbol!r} nodes: @{attr_name} "
                f"takes distinct constants {sorted(constants)}")
        if constants:
            merged_attributes[attr_name] = constants.pop()
    merged = tree.merge_children(node, victims)
    for attr_name, value in merged_attributes.items():
        tree.set_attribute(merged, attr_name, value)
