"""Consistency for nested-relational DTDs in O(n·m²) (Theorem 4.5).

Nested-relational DTDs are non-recursive DTDs whose rules all have the shape
``ℓ → l̃_1 … l̃_m`` with pairwise-distinct ``l_i`` and each ``l̃`` one of
``l``, ``l?``, ``l+``, ``l*``.  They capture the nested-relational schemas
handled by Clio.

The paper's algorithm:

1. drop attributes from all STD patterns (Claim 4.2; exact under the
   Section-4 proviso that source patterns use pairwise-distinct variables),
2. build the DTDs ``D°_S`` (keep required children only) and ``D*_T`` (make
   every child required exactly once); each admits exactly one tree,
3. the setting is consistent iff no STD has its source pattern true in the
   unique ``D°_S``-tree while its target pattern is false in the unique
   ``D*_T``-tree (Claim 4.6).

Under the proviso the test is exact.  Outside it a culprit does not prove
"inconsistent" (the erased source pattern fires where the real one need
not), so a check that finds culprits there raises
:class:`~repro.exchange.errors.ConsistencyUndecidedError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..patterns.evaluate import pattern_holds
from ..xmlmodel.tree import XMLTree
from .setting import DataExchangeSetting
from .std import STD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.compiled import CompiledSetting

__all__ = ["NestedRelationalConsistency", "check_consistency_nested_relational"]


@dataclass
class NestedRelationalConsistency:
    """Outcome of the Theorem 4.5 consistency check."""

    consistent: bool
    #: STDs witnessing inconsistency: source side satisfied by every source
    #: tree of a certain shape while the target side cannot be satisfied.
    culprits: List[STD] = field(default_factory=list)
    #: The unique tree conforming to ``D°_S`` (attribute-free skeleton).
    source_skeleton: Optional[XMLTree] = None
    #: The unique tree conforming to ``D*_T`` (attribute-free skeleton).
    target_skeleton: Optional[XMLTree] = None


def check_consistency_nested_relational(
        setting: DataExchangeSetting,
        compiled: Optional["CompiledSetting"] = None) -> NestedRelationalConsistency:
    """Decide consistency of a nested-relational setting (Theorem 4.5).

    Raises ``ValueError`` when either DTD is not nested-relational, and
    :class:`~repro.exchange.errors.ConsistencyUndecidedError` when it finds
    culprits while some source pattern repeats a variable or fixes a
    constant (Claim 4.2 is exact only under the distinct-variable proviso
    of Section 4).

    The check runs on the setting's :class:`repro.engine.CompiledSetting`
    (``compiled``, or one compiled for this call; see
    :func:`repro.engine.compiled.compiled_for`): its class verdicts, the
    unique ``D°_S`` / ``D*_T`` skeletons and the attribute-erased
    dependencies, so repeated checks on one handle skip all regex work.
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    if not compiled.source_nested_relational:
        raise ValueError("the source DTD is not nested-relational")
    if not compiled.target_nested_relational:
        raise ValueError("the target DTD is not nested-relational")
    source_skeleton, target_skeleton = compiled.nested_relational_skeletons()

    culprits: List[STD] = []
    for dependency, (source_pattern, target_pattern) in zip(
            setting.stds, compiled.erased_stds):
        if (pattern_holds(source_skeleton, source_pattern)
                and not pattern_holds(target_skeleton, target_pattern)):
            culprits.append(dependency)
    if culprits:
        # Imported here: repro.exchange.consistency imports this module.
        from .consistency import _refuse_unproven_inconsistency
        _refuse_unproven_inconsistency(setting)
    return NestedRelationalConsistency(
        consistent=not culprits,
        culprits=culprits,
        source_skeleton=source_skeleton,
        target_skeleton=target_skeleton,
    )
