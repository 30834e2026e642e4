"""Request and per-request result types of the serving layer.

An :class:`ExchangeRequest` names an operation, the fingerprint of the
setting it runs against (``DataExchangeSetting.fingerprint()`` — the sharding
key of the whole layer) and the per-request payload (source tree, query).
Requests are plain frozen data: they can be built on a client, routed by
fingerprint without touching the setting, and executed on whichever shard
owns that fingerprint.

A :class:`ServiceResult` is one slot of a batch response: the request's
position, the :class:`~repro.engine.EngineResult` when the shard produced
one, or the exception it raised.  Batches isolate failures per request — an
error inside one shard marks only the requests it actually failed, never its
batch neighbours (see :meth:`repro.service.AsyncExchangeService.batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from ..engine import EngineResult
from ..patterns.queries import Query, check_variable_order
from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.tree import XMLTree
from .quota import QuotaExceededError

__all__ = ["OPERATIONS", "ExchangeRequest", "ServiceResult",
           "consistency_request", "classify_request", "solve_request",
           "certain_answers_request"]

#: Operations a request may name.  ``consistency`` and ``classify`` are
#: setting-level; ``solve`` and ``certain_answers`` are per-tree.
OPERATIONS = ("consistency", "classify", "solve", "certain_answers")


@dataclass(frozen=True, eq=False)
class ExchangeRequest:
    """One routable unit of work against a registered setting.

    Per-tree requests carry the source document either inline (``tree``,
    a ``FrozenTree``: an ``XMLTree`` is replaced by its ``freeze()``) or
    by reference (``tree_fp`` — the document's fingerprint in the corpus
    store the serving side has attached).  Fingerprint-addressed requests
    are the cheap form: nothing tree-sized travels with the request, and
    the executing shard resolves the fingerprint through its engine's
    store (raising the typed :class:`~repro.storage.UnknownDocumentError`
    for absent documents).
    """

    op: str
    fingerprint: str
    tree: Optional[FrozenTree] = None
    query: Optional[Query] = None
    variable_order: Optional[Tuple[str, ...]] = None
    strategy: str = "auto"
    tree_fp: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in OPERATIONS:
            raise ValueError(f"unknown operation {self.op!r}; "
                             f"expected one of {', '.join(OPERATIONS)}")
        if self.op in ("solve", "certain_answers"):
            if self.tree is None and self.tree_fp is None:
                raise ValueError(f"{self.op!r} requests need a source tree "
                                 f"(inline, or by fingerprint via tree_fp)")
            if self.tree is not None and self.tree_fp is not None:
                raise ValueError(f"{self.op!r} requests take an inline tree "
                                 f"or a tree_fp, not both")
        if self.op == "certain_answers" and self.query is None:
            raise ValueError("'certain_answers' requests need a query")
        if self.tree is not None:
            object.__setattr__(self, "tree", self.tree.freeze())

    @property
    def source(self):
        """What the engine consumes: the inline snapshot, or the
        fingerprint."""
        return self.tree if self.tree is not None else self.tree_fp

    def __repr__(self) -> str:
        return (f"<ExchangeRequest {self.op} "
                f"setting={self.fingerprint[:12]}…>")


def consistency_request(fingerprint: str,
                        strategy: str = "auto") -> ExchangeRequest:
    """A consistency check against the setting ``fingerprint``."""
    return ExchangeRequest("consistency", fingerprint, strategy=strategy)


def classify_request(fingerprint: str) -> ExchangeRequest:
    """A dichotomy-classification request."""
    return ExchangeRequest("classify", fingerprint)


def solve_request(fingerprint: str,
                  tree: Union[XMLTree, FrozenTree, str]) -> ExchangeRequest:
    """A canonical-solution request for one source tree (inline, or a
    stored-document fingerprint)."""
    if isinstance(tree, str):
        return ExchangeRequest("solve", fingerprint, tree_fp=tree)
    return ExchangeRequest("solve", fingerprint, tree=tree)


def certain_answers_request(fingerprint: str,
                            tree: Union[XMLTree, FrozenTree, str],
                            query: Query,
                            variable_order: Optional[Sequence[str]] = None
                            ) -> ExchangeRequest:
    """A certain-answers request for one ``(tree, query)`` pair; ``tree``
    is the document or its stored fingerprint.  ``variable_order`` is
    checked against the query here, before the request is routed
    (:func:`~repro.patterns.queries.check_variable_order`)."""
    order = check_variable_order(query, variable_order)
    if isinstance(tree, str):
        return ExchangeRequest("certain_answers", fingerprint, tree_fp=tree,
                               query=query, variable_order=order)
    return ExchangeRequest("certain_answers", fingerprint, tree=tree,
                           query=query, variable_order=order)


@dataclass
class ServiceResult:
    """One slot of a batch response (requests keep their submission order).

    Exactly one of ``result`` / ``error`` is set.  ``ok`` mirrors
    ``EngineResult.ok`` when the shard produced a result and is ``False``
    when it raised.
    """

    index: int
    fingerprint: str
    result: Optional[EngineResult] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result is not None and self.result.ok

    @property
    def failed(self) -> bool:
        """Did the shard raise (as opposed to returning a defined outcome)?"""
        return self.error is not None

    @property
    def rejected(self) -> bool:
        """Was this slot refused by admission control (a
        :class:`~repro.service.quota.QuotaExceededError`) rather than
        executed?  Rejected slots never reached a shard; their neighbours
        in the same batch are unaffected."""
        return isinstance(self.error, QuotaExceededError)

    def unwrap(self) -> EngineResult:
        """The engine result, re-raising the shard's exception unchanged."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result
