"""Certain answers in XML data exchange (paper, Sections 5.1 and 6.1).

Given a setting, a source tree ``T ⊨ D_S`` and a CTQ//,∪ query ``Q``,

    certain(Q, T) = ⋂ { Q(T') : T' is a solution for T }.

For fully-specified settings whose target DTD uses only univocal content
models, Theorem 6.2 / Lemmas 6.5–6.6 show that certain answers can be obtained
by evaluating ``Q`` over the *canonical solution* ``T*`` produced by the chase
and keeping only all-constant tuples; this module implements exactly that
pipeline.  When the chase fails there is no solution at all and the certain-
answer set is undefined (``has_solution`` is ``False`` in the result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Set, Tuple

from ..obs.trace import span as _span
from ..patterns.queries import Query
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import NullFactory, Value, is_constant
from .chase import ChaseResult, canonical_solution
from .errors import NoSolutionError
from .setting import DataExchangeSetting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.compiled import CompiledSetting

__all__ = ["CertainAnswers", "certain_answers", "certain_answer_boolean",
           "NoSolutionError"]


@dataclass
class CertainAnswers:
    """Result of a certain-answer computation.

    ``answers`` is ``None`` when no solution exists for the source tree (the
    intersection over an empty set of solutions is not meaningful); otherwise
    it is the set of all-constant tuples, ordered by ``variable_order``.
    """

    has_solution: bool
    answers: Optional[Set[Tuple[Value, ...]]]
    variable_order: Tuple[str, ...]
    canonical: Optional[XMLTree] = None
    chase: Optional[ChaseResult] = None

    def certain(self) -> bool:
        """For Boolean queries: the value of ``certain(Q, T)``.

        Raises :class:`NoSolutionError` when no solution exists (certain
        answers are then undefined — consistency should be checked first)."""
        if not self.has_solution:
            raise NoSolutionError("the source tree has no solution; "
                                  "certain answers are undefined")
        assert self.answers is not None
        return bool(self.answers)

    def contains(self, tuple_: Sequence[Value]) -> bool:
        """Is the tuple a certain answer?"""
        if not self.has_solution or self.answers is None:
            raise NoSolutionError("the source tree has no solution")
        return tuple(tuple_) in self.answers


def certain_answers(setting: DataExchangeSetting, source_tree: XMLTree,
                    query: Query,
                    variable_order: Optional[Sequence[str]] = None,
                    nulls: Optional[NullFactory] = None,
                    compiled: Optional["CompiledSetting"] = None) -> CertainAnswers:
    """Compute ``certain(Q, T)`` via the canonical solution (Theorem 6.2).

    Preconditions (checked): the setting is fully specified.  The tractability
    guarantee additionally requires a univocal target DTD
    (``setting.target_dtd.is_univocal()``); outside that class the canonical
    solution may not exist or may not characterise certain answers, matching
    the paper's dichotomy — use :mod:`repro.exchange.naive` to cross-check on
    small instances.

    The pipeline runs on ``compiled``, or on the setting compiled for this
    call (:func:`repro.engine.compiled.compiled_for`): its pre-lowered STD
    source plans and query-plan cache make the per-request path exactly
    "chase → freeze → run the compiled plan", so interpretation is paid
    once per query (at plan-compile time), not once per (query, node).
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    if not compiled.fully_specified:
        raise ValueError(
            "certain_answers via canonical solutions requires fully-specified "
            "STDs (Definition 5.10); this setting is not fully specified")
    order = tuple(variable_order) if variable_order is not None else tuple(query.free_variables())
    result = canonical_solution(setting, source_tree, nulls, compiled=compiled)
    if not result.success:
        return CertainAnswers(False, None, order, None, result)
    with _span("engine.plan_compile"):
        # Compile-or-fetch: a warm plan cache makes this span ~free, which
        # is exactly what it is there to show.
        plan = compiled.query_plan(query)
    with _span("engine.freeze"):
        # The chase's conformance check froze the canonical solution and the
        # snapshot stays memoised on it; the span shows what reading it
        # back costs.
        frozen = result.frozen
    with _span("engine.plan_run"):
        answers = {
            tup for tup in plan.answers(frozen, order, stats=compiled.stats)
            if all(is_constant(value) for value in tup)
        }
    return CertainAnswers(True, answers, order, result.tree, result)


def certain_answer_boolean(setting: DataExchangeSetting, source_tree: XMLTree,
                           query: Query) -> bool:
    """``certain(Q, T)`` for a Boolean query ``Q`` (``True`` / ``False``)."""
    outcome = certain_answers(setting, source_tree, query)
    return outcome.certain()
