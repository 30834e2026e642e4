"""One shard of the serving layer: a compiled setting behind an engine.

A :class:`Shard` owns the :class:`~repro.engine.ExchangeEngine` for exactly
one setting fingerprint, plus the shard-local accounting the service reports
(requests served, errors raised).  All requests for a fingerprint land on
its shard, so the engine's compiled-setting caches and its bounded result
cache are **per setting by construction** — one tenant's traffic can warm,
fill or evict only its own shard's entries.

Every request runs inline on the caller's thread, straight through the
engine.  Spreading settings over processes happens one level up, in
:class:`~repro.service.host.ShardHost`, whose workers each own a registry
of shards.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

from ..engine import EngineResult, ExchangeEngine
from .requests import ExchangeRequest

__all__ = ["Shard"]


class Shard:
    """The serving unit for one setting fingerprint."""

    def __init__(self, fingerprint: str, engine: ExchangeEngine,
                 prewarmed: bool = False) -> None:
        self.fingerprint = fingerprint
        self.engine = engine
        #: Was this shard compiled ahead of its first request (register
        #: ``prewarm=True`` / pre-seeded compiled setting) rather than
        #: lazily on the serving path?
        self.prewarmed = prewarmed
        self.requests = 0
        self.errors = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, request: ExchangeRequest) -> EngineResult:
        """Serve one request on this shard's engine; exceptions
        (``ChaseError``, precondition ``ValueError``\\ s, ...) propagate
        unchanged."""
        if request.fingerprint != self.fingerprint:
            raise ValueError(
                f"request for setting {request.fingerprint[:12]}… routed to "
                f"shard {self.fingerprint[:12]}…")
        with self._lock:
            self.requests += 1
        try:
            if request.op == "consistency":
                return self.engine.check_consistency(request.strategy)
            if request.op == "classify":
                return self.engine.classify()
            if request.op == "solve":
                return self.engine.solve(request.source)
            if request.op == "certain_answers":
                return self.engine.certain_answers(request.source,
                                                   request.query,
                                                   request.variable_order)
            raise ValueError(f"unknown operation {request.op!r}")
        except BaseException:
            with self._lock:
                self.errors += 1
            raise

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The engine's stats view plus this shard's own accounting.

        Compiled query plans are per-setting state: all requests for this
        fingerprint share them, so the second evaluation of any query on a
        shard is always a ``plan_cache`` hit."""
        with self._lock:
            served, errors = self.requests, self.errors
        return dict(self.engine.stats, requests=served, errors=errors,
                    prewarmed=self.prewarmed)

    def __repr__(self) -> str:
        return (f"<Shard {self.fingerprint[:12]}… requests={self.requests} "
                f"errors={self.errors}>")

