"""Fingerprint routing: mixed-setting batches → per-shard sub-batches.

The :class:`Router` is the synchronous routing core the async facade builds
on.  It maps single requests to their shard and splits a mixed-setting batch
into per-shard sub-batches that preserve each request's original position,
so sub-batch outcomes can be re-assembled into submission order no matter
how the sub-batches were scheduled.

Within one sub-batch requests run sequentially on the shard — that is what
keeps a shard's result cache coherent and duplicate work collapsed — while
distinct sub-batches are independent and may run concurrently (the async
service fans them out over its executor).  Failures are isolated per
request: an exception marks only the :class:`ServiceResult` slot of the
request that raised it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..engine import EngineResult
from .registry import SettingRegistry
from .requests import ExchangeRequest, ServiceResult
from .shard import Shard

__all__ = ["Router"]


class Router:
    """Routes requests to shards by setting fingerprint."""

    def __init__(self, registry: SettingRegistry) -> None:
        self.registry = registry

    # ------------------------------------------------------------------ #
    # Single requests
    # ------------------------------------------------------------------ #

    def shard_for(self, request: ExchangeRequest) -> Shard:
        """The shard owning the request's fingerprint (compiling lazily)."""
        return self.registry.shard(request.fingerprint)

    def execute(self, request: ExchangeRequest) -> EngineResult:
        """Serve one request synchronously; exceptions propagate unchanged."""
        return self.shard_for(request).execute(request)

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #

    def partition(self, requests: Sequence[ExchangeRequest]
                  ) -> "OrderedDict[str, List[Tuple[int, ExchangeRequest]]]"\
                  :
        """Group a mixed batch by fingerprint, keeping original positions.

        The mapping iterates fingerprints in first-appearance order; each
        value lists ``(index, request)`` pairs in submission order.
        """
        return self.partition_pairs(enumerate(requests))

    def partition_pairs(self,
                        pairs: Iterable[Tuple[int, ExchangeRequest]]
                        ) -> "OrderedDict[str, List[Tuple[int, ExchangeRequest]]]":
        """:meth:`partition` over explicitly-indexed requests.

        For callers that dropped some slots before routing (quota
        rejections): the pairs carry each request's *original* batch
        position, so :meth:`reassemble` can merge routed outcomes with the
        caller's rejection slots back into submission order.
        """
        groups: "OrderedDict[str, List[Tuple[int, ExchangeRequest]]]" = \
            OrderedDict()
        for index, request in pairs:
            groups.setdefault(request.fingerprint, []).append((index, request))
        return groups

    def execute_group(self, fingerprint: str,
                      group: Sequence[Tuple[int, ExchangeRequest]],
                      on_done: Optional[
                          Callable[[int, ExchangeRequest], None]] = None
                      ) -> List[ServiceResult]:
        """Run one per-shard sub-batch, capturing failures per request.

        A routing failure (unknown fingerprint) fails every slot of the
        group — there is no shard to try the others on; execution failures
        fail only their own slot.  ``on_done(index, request)`` fires as
        each request settles (success or failure) — the async service uses
        it to release in-flight quota slots per request, not per batch.
        """
        try:
            shard = self.registry.shard(fingerprint)
        except Exception as error:
            results = [ServiceResult(index, fingerprint, error=error)
                       for index, _ in group]
            if on_done is not None:
                for index, request in group:
                    on_done(index, request)
            return results
        results = []
        for index, request in group:
            try:
                outcome = shard.execute(request)
            except Exception as error:
                results.append(ServiceResult(index, fingerprint, error=error))
            else:
                results.append(ServiceResult(index, fingerprint,
                                             result=outcome))
            finally:
                if on_done is not None:
                    on_done(index, request)
        return results

    def execute_batch(self, requests: Sequence[ExchangeRequest]
                      ) -> List[ServiceResult]:
        """Serve a mixed-setting batch, re-assembled in submission order.

        The per-shard sub-batches run one after another in first-appearance
        order; each slot of the returned list corresponds to the request at
        the same position, with failures captured per slot.
        """
        outcomes = [self.execute_group(fingerprint, group)
                    for fingerprint, group in self.partition(requests).items()]
        return self.reassemble(outcomes, len(requests))

    @staticmethod
    def reassemble(group_outcomes: Sequence[List[ServiceResult]],
                   count: int) -> List[ServiceResult]:
        """Merge per-shard sub-batch outcomes back into submission order.

        The single home of the order-preservation invariant — both the sync
        batch path here and the async service's ``batch`` use it.
        """
        slots: List[Optional[ServiceResult]] = [None] * count
        for group_results in group_outcomes:
            for item in group_results:
                slots[item.index] = item
        assert all(slot is not None for slot in slots)
        return slots  # type: ignore[return-value]
