"""Certain answers in XML data exchange (paper, Sections 5.1 and 6.1).

Given a setting, a source tree ``T ⊨ D_S`` and a CTQ//,∪ query ``Q``,

    certain(Q, T) = ⋂ { Q(T') : T' is a solution for T }.

For fully-specified settings whose target DTD uses only univocal content
models, Theorem 6.2 / Lemmas 6.5–6.6 show that certain answers can be obtained
by evaluating ``Q`` over the *canonical solution* ``T*`` produced by the chase
and keeping only all-constant tuples; this module implements exactly that
pipeline.  When the chase fails there is no solution at all and the certain-
answer set is undefined (``has_solution`` is ``False`` in the result).
Settings outside that class are refused, not answered: the canonical
solution neither exists nor characterises certain answers there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional, Sequence, Tuple

from ..obs.trace import span as _span
from ..patterns.queries import Query, check_variable_order
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
    it is the frozenset of all-constant tuples, ordered by
    ``variable_order``.
    """

    has_solution: bool
    answers: Optional[FrozenSet[Tuple[Value, ...]]]
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

    The setting must lie in ``C_U``; :func:`~repro.exchange.chase.
    canonical_solution` enforces it, raising ``ChaseError`` for a target DTD
    that is not univocal and a ``ValueError`` (``PreSolutionError``) for
    STDs that are not fully specified.  Outside ``C_U``,
    :func:`repro.exchange.naive.naive_certain_answers` answers small
    instances exactly.  ``variable_order`` is checked against the query
    (:func:`~repro.patterns.queries.check_variable_order`).

    The pipeline runs on ``compiled``, or on the setting compiled for this
    call (:func:`repro.engine.compiled.compiled_for`): its pre-lowered STD
    source plans and query-plan cache make the per-request path exactly
    "chase → freeze → run the compiled plan", so interpretation is paid
    once per query (at plan-compile time), not once per (query, node).
    """
    from ..engine.compiled import compiled_for
    compiled = compiled_for(setting, compiled)
    order = check_variable_order(query, variable_order)
    if order is None:
        order = tuple(query.free_variables())
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
        answers = frozenset(
            tup for tup in plan.answers(frozen, order, stats=compiled.stats)
            if all(is_constant(value) for value in tup))
    return CertainAnswers(True, answers, order, result.tree, result)


def certain_answer_boolean(setting: DataExchangeSetting, source_tree: XMLTree,
                           query: Query) -> bool:
    """``certain(Q, T)`` for a Boolean query ``Q`` (``True`` / ``False``)."""
    outcome = certain_answers(setting, source_tree, query)
    return outcome.certain()
