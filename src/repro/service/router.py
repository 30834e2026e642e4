"""Fingerprint routing for the in-process executors.

The :class:`Router` serves a request on the shard of the registry that owns
its setting fingerprint (compiling the setting lazily).  It has the call
shape of :class:`~repro.service.host.ShardHost`: :meth:`Router.execute`
serves one request and :meth:`Router.submit` returns a handle whose
``result()`` gives the outcome, so ``AsyncExchangeService.batch`` runs one
group runner over either backend.  Here a submission runs the request at
once, so the handle is already settled.
"""

from __future__ import annotations

from concurrent.futures import Future

from ..engine import EngineResult
from .registry import SettingRegistry
from .requests import ExchangeRequest

__all__ = ["Router"]


class Router:
    """Routes requests to shards by setting fingerprint."""

    def __init__(self, registry: SettingRegistry) -> None:
        self.registry = registry

    def execute(self, request: ExchangeRequest) -> EngineResult:
        """Serve one request synchronously; exceptions propagate unchanged."""
        return self.registry.shard(request.fingerprint).execute(request)

    def submit(self, request: ExchangeRequest) -> Future[EngineResult]:
        """Serve one request now; the returned future is already settled
        with :meth:`execute`'s result or exception."""
        future: Future[EngineResult] = Future()
        try:
            future.set_result(self.execute(request))
        except Exception as error:
            future.set_exception(error)
        return future
