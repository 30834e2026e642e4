"""The async, multi-setting serving facade.

:class:`AsyncExchangeService` is what a long-lived server holds: one object
serving **many settings at once**, with every call awaitable and the actual
pipeline work running off the event loop on a configurable executor.

* Settings are admitted through :meth:`register` (cheap, synchronous) and
  compiled lazily by the underlying :class:`SettingRegistry`, bounded by its
  compiled-settings LRU.
* Single requests (:meth:`check_consistency`, :meth:`solve`,
  :meth:`certain_answers`, :meth:`classify`, :meth:`submit`) resolve to an
  :class:`~repro.engine.EngineResult` and **raise exactly what a direct
  engine call would raise** — ``ChaseError`` and friends surface unchanged
  through ``await``.
* :meth:`batch` takes a mixed-setting request list and returns one
  :class:`ServiceResult` slot per request, in submission order, isolating
  failures per slot.  The admitted requests are grouped by setting
  fingerprint and each group runs on the executor through one runner: it
  submits the whole group to the backend (:class:`Router` in process, the
  :class:`~repro.service.host.ShardHost` in host mode), then settles the
  handles in order.  Groups run concurrently; within a group, in-process
  requests run one after another on one pool thread and host requests
  pipeline down the owning worker's pipe.
* Admission control: with a :class:`~repro.service.quota.QuotaPolicy`, work
  beyond a setting's ``max_in_flight`` is rejected **at submission time**
  with a typed :class:`~repro.service.quota.QuotaExceededError` — raised
  await-side for single requests, captured as that slot's ``error`` in
  batches — instead of queueing without bound on the executor.  Rejections
  never touch the request's batch neighbours.
* Prewarming: ``register(setting, prewarm=True)`` compiles before
  returning; :meth:`prewarm` does the same compile off the event loop, so
  a server can warm settings in the background (``prewarm_*`` counters in
  ``stats()["registry"]``).

Executors
---------

``executor="thread"`` (default)
    Requests run on a shared thread pool via ``run_in_executor`` — the loop
    never blocks; pipeline work is GIL-bound but routing, caching and I/O
    overlap fully.  It is the only executor that overlaps requests for the
    *same* setting: a slow solve does not hold up fast requests queued
    behind it on that fingerprint.
``executor="serial"``
    Everything runs inline on the loop thread — deterministic and
    dependency-free, for tests and debugging; the loop *does* block while a
    request computes.
``executor="host"``
    Requests are forwarded to a :class:`~repro.service.host.ShardHost` —
    ``workers`` long-lived worker processes (default ``os.cpu_count()``),
    each owning the compiled settings, plan caches and result caches of the
    fingerprints routed to it.  Nothing per-setting is re-pickled per
    call: workers stay warm across requests, and a crashed worker is
    restarted and re-registered transparently (counted as
    ``worker_restarts`` in ``stats()["host"]``).  The thread pool merely
    coordinates pipe round-trips; quota admission stays loop-side in the
    local registry, which never compiles in this mode.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

from ..engine import EngineResult
from ..engine.compiled import CompiledSetting
from ..exchange.setting import DataExchangeSetting
from ..obs.trace import (activate, current_context, emit,
                         enabled as obs_enabled, span as obs_span)
from ..patterns.queries import Query
from ..storage import CorpusStore, StoreError
from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.tree import XMLTree
from .host import ShardHost
from .quota import QuotaExceededError, QuotaPolicy
from .registry import SettingRegistry
from .requests import (ExchangeRequest, ServiceResult,
                       certain_answers_request, classify_request,
                       consistency_request, solve_request)
from .router import Router

__all__ = ["AsyncExchangeService", "SERVICE_EXECUTORS"]

#: Executor names accepted by :class:`AsyncExchangeService`.
SERVICE_EXECUTORS = ("serial", "thread", "host")

_T = TypeVar("_T")


class AsyncExchangeService:
    """Await-able exchange serving across many settings (see module docs)."""

    def __init__(self, registry: Optional[SettingRegistry] = None,
                 executor: str = "thread", parallel: int = 4,
                 max_compiled: Optional[int] = None,
                 result_cache_maxsize: Optional[int] = None,
                 quota: Optional[QuotaPolicy] = None,
                 workers: Optional[int] = None,
                 store: Optional[Union[CorpusStore, str,
                                       "os.PathLike"]] = None) -> None:
        if executor not in SERVICE_EXECUTORS:
            raise ValueError(
                f"unknown service executor {executor!r}; "
                f"expected one of {', '.join(SERVICE_EXECUTORS)}")
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel!r}")
        if workers is not None and executor != "host":
            raise ValueError("workers is the shard-host worker-process "
                             "count; it requires executor='host'")
        if registry is not None and store is not None:
            raise ValueError(
                "pass the corpus store either on the registry or to the "
                "service, not both: an explicit registry keeps its own "
                "store")
        #: The corpus store behind ``put_tree`` and fingerprint-addressed
        #: requests.  ``store`` may be a :class:`CorpusStore` or a store
        #: directory path; without one, non-host executors get an
        #: ephemeral in-memory store (so ``put_tree`` works out of the
        #: box — it just does not survive restarts), while host mode —
        #: whose workers must reopen the store from other processes —
        #: keeps ``None`` until given an on-disk path.  :meth:`close`
        #: closes only a store opened here (from a path, or the in-memory
        #: default); a ``CorpusStore`` passed in stays the caller's.
        owns_store = store is not None and not isinstance(store, CorpusStore)
        if owns_store:
            store = CorpusStore(store)
        if store is None and registry is None and executor != "host":
            store = CorpusStore(None)
            owns_store = True
        if registry is None:
            registry = SettingRegistry(
                max_compiled=max_compiled,
                result_cache_maxsize=result_cache_maxsize,
                quota=quota,
                store=None if executor == "host" else store)
        elif (max_compiled is not None or result_cache_maxsize is not None
                or quota is not None):
            raise ValueError(
                "pass cache bounds and quotas either on the registry or to "
                "the service, not both: an explicit registry keeps its own "
                "max_compiled / result_cache_maxsize / quota")
        self.store: Optional[CorpusStore] = \
            store if store is not None else registry.store
        self._owns_store = owns_store
        self.registry = registry
        self.router = Router(registry)
        self.executor = executor
        self.parallel = parallel
        self._host: Optional[ShardHost] = None
        if executor == "host":
            # Worker registries mirror the local registry's cache bounds;
            # quota stays local — admission happens before the pipe.  The
            # store (when on-disk) is opened read-only in every worker;
            # the supervisor keeps the writable handle.
            self._host = ShardHost(
                workers=workers,
                max_compiled=registry.max_compiled,
                result_cache=registry.result_cache,
                result_cache_maxsize=registry.result_cache_maxsize,
                store=store)
        self._pool: Optional[ThreadPoolExecutor] = None
        if executor != "serial":
            # In host mode every in-flight pipe round-trip parks a thread,
            # so the coordinating pool must at least match the worker count
            # or it would serialise the workers it is supposed to saturate.
            pool_size = parallel if self._host is None \
                else max(parallel, self._host.workers)
            self._pool = ThreadPoolExecutor(
                max_workers=pool_size,
                thread_name_prefix="exchange-service")
        self._closed = False

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def register(self, setting: Union[DataExchangeSetting, CompiledSetting],
                 *, prewarm: bool = False, persist: bool = False) -> str:
        """Admit a setting; returns its fingerprint (the routing key).

        Synchronous on purpose: admission only fingerprints and stores the
        setting — compilation happens lazily on the serving path.
        ``prewarm=True`` compiles before returning (blocking the caller, not
        the loop — from a coroutine prefer ``register()`` followed by
        ``await prewarm(fingerprint)``), so the first request never pays
        compile latency.  ``persist=True`` additionally pickles the compiled
        setting into the attached corpus store (compiling now if needed,
        under prewarm accounting), so a restarted server can
        :meth:`restore_settings` and answer its first request plan-warm.

        In host mode the local registry only *admits* (quota enforcement,
        routing keys — it never compiles); the setting is then forwarded to
        its owning worker process, which compiles on ``prewarm=True``.
        """
        if self._host is None:
            return self.registry.register(setting, prewarm=prewarm,
                                          persist=persist)
        if persist and self._host.store is None:
            # Refuse before the local registry admits the setting.
            raise StoreError(
                "register(persist=True) needs the shard host built with an "
                "on-disk store (pass store=...)")
        plain = setting.setting if isinstance(setting, CompiledSetting) \
            else setting
        fingerprint = self.registry.register(plain)
        self._host.register(setting, prewarm=prewarm, persist=persist)
        return fingerprint

    def restore_settings(self) -> List[str]:
        """Re-admit every setting persisted in the attached store, compiled
        and prewarmed (``prewarm_hits``, zero ``compiled_misses``): the
        plan-warm restart path, one :meth:`register` per stored setting in
        either mode.  Returns the restored fingerprints."""
        if self.store is None:
            return []
        restored: List[str] = []
        with obs_span("storage.restore"):
            for item in self.store.settings():
                self.register(item.compiled, prewarm=True)
                restored.append(item.fingerprint)
        return restored

    async def put_tree(self, tree: Union[XMLTree, FrozenTree]) -> str:
        """Store a source document; returns its fingerprint, usable in
        place of an inline tree on every per-tree request.  The write runs
        off the event loop (store I/O is blocking)."""
        store = self.store
        if store is None:
            raise StoreError(
                "service has no corpus store attached; host-mode services "
                "need an on-disk store (store=PATH) to accept documents")
        return await self.offload(partial(store.put_tree, tree))

    async def prewarm(self, fingerprint: str) -> bool:
        """Compile a registered setting off the event loop, ahead of its
        first request.  Returns ``True`` when this call did the compile,
        ``False`` when the setting was already warm."""
        if self._host is not None:
            return await self.offload(
                partial(self._host.prewarm, fingerprint))
        return await self.offload(
            partial(self.registry.prewarm, fingerprint))

    # ------------------------------------------------------------------ #
    # Await-able single requests
    # ------------------------------------------------------------------ #

    async def submit(self, request: ExchangeRequest) -> EngineResult:
        """Serve one request; shard exceptions surface unchanged.

        With an in-flight quota the request is admitted (or rejected with
        :class:`~repro.service.quota.QuotaExceededError`) *here*, before any
        executor queueing; the slot is released when the request settles.
        """
        with obs_span("service.request", op=request.op,
                      setting=request.fingerprint[:12]):
            with obs_span("service.admission"):
                self.registry.quota_acquire(request.fingerprint)
            try:
                if self._host is not None:
                    return await self._traced_offload(
                        partial(self._host.execute, request))
                return await self._traced_offload(
                    partial(self.router.execute, request))
            finally:
                self.registry.quota_release(request.fingerprint)

    async def check_consistency(self, fingerprint: str,
                                strategy: str = "auto") -> EngineResult:
        return await self.submit(consistency_request(fingerprint, strategy))

    async def classify(self, fingerprint: str) -> EngineResult:
        return await self.submit(classify_request(fingerprint))

    async def solve(self, fingerprint: str,
                    tree: Union[XMLTree, FrozenTree, str]) -> EngineResult:
        return await self.submit(solve_request(fingerprint, tree))

    async def certain_answers(self, fingerprint: str,
                              tree: Union[XMLTree, FrozenTree, str],
                              query: Query,
                              variable_order: Optional[Sequence[str]] = None
                              ) -> EngineResult:
        return await self.submit(
            certain_answers_request(fingerprint, tree, query, variable_order))

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #

    async def batch(self, requests: Sequence[ExchangeRequest],
                    return_exceptions: bool = True) -> List[ServiceResult]:
        """Serve a mixed-setting batch; results keep submission order.

        The admitted requests are grouped by setting fingerprint (in
        first-appearance order) and the groups run concurrently on the
        service executor, each through :meth:`_run_group`.  Failures mark
        only their own slot (``ServiceResult.error``); with
        ``return_exceptions=False`` the first failed slot's exception is
        re-raised after the whole batch has settled, so one bad request
        still cannot abort its neighbours mid-flight.

        With an in-flight quota, slots are admitted in submission order —
        the first ``max_in_flight`` requests per setting are accepted, the
        rest become deterministic
        :class:`~repro.service.quota.QuotaExceededError` slots without ever
        touching a shard (or their admitted neighbours).  Each admitted
        slot's quota is released as that slot settles.
        """
        requests = list(requests)
        slots = [ServiceResult(index, request.fingerprint)
                 for index, request in enumerate(requests)]
        groups: Dict[str, List[Tuple[ServiceResult, ExchangeRequest]]] = {}
        for slot, request in zip(slots, requests):
            try:
                self.registry.quota_acquire(request.fingerprint)
            except QuotaExceededError as error:
                slot.error = error
            else:
                groups.setdefault(request.fingerprint, []).append(
                    (slot, request))
        with obs_span("service.batch", requests=len(slots),
                      admitted=sum(map(len, groups.values()))):
            # Shielded: a cancelled batch leaves its groups to run, so each
            # still releases the quota it holds.
            await asyncio.shield(asyncio.gather(*(
                self._traced_offload(partial(self._run_group, group))
                for group in groups.values())))
        if not return_exceptions:
            for slot in slots:
                if slot.error is not None:
                    raise slot.error
        return slots

    def _run_group(self, group: List[Tuple[ServiceResult, ExchangeRequest]]
                   ) -> None:
        """Run one fingerprint's requests: submit them all back to back,
        then settle each handle in order into its slot, releasing the
        slot's quota.  Host submissions pipeline down the owning worker's
        pipe; a :class:`Router` submission runs the request at once."""
        backend: Union[Router, ShardHost] = \
            self.router if self._host is None else self._host
        handles = []
        for slot, request in group:
            try:
                handles.append(backend.submit(request))
            except Exception as error:
                slot.error = error
                handles.append(None)
                self.registry.quota_release(request.fingerprint)
        for (slot, request), handle in zip(group, handles):
            if handle is None:
                continue
            try:
                slot.result = handle.result()
            except Exception as error:
                slot.error = error
            finally:
                self.registry.quota_release(request.fingerprint)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """Registry counters plus per-shard accounting.

        In host mode the ``registry``/``shards`` views are the worker
        registries' counters aggregated across processes (so they read
        exactly like a single-process run), with the quota counters — which
        live loop-side — overlaid from the local registry; the raw
        per-worker slices and the ``worker_restarts`` count are under
        ``host``.
        """
        quota = self.registry.quota
        view = {
            "executor": self.executor,
            "parallel": self.parallel,
            "quota": None if quota is None else {
                "max_in_flight": quota.max_in_flight,
                "max_registered": quota.max_registered,
            },
            "registry": self.registry.stats(),
            "shards": self.registry.shard_stats(),
        }
        if self._host is not None:
            host_stats = self._host.stats()
            local = view["registry"]
            merged = dict(host_stats["registry"])
            for name in ("settings_registered", "in_flight",
                         "quota_rejections", "quota_release_underflow"):
                merged[name] = local.get(name, 0)
            view["registry"] = merged
            view["shards"] = host_stats["shards"]
            view["host"] = {
                "workers": host_stats["workers"],
                "worker_restarts": host_stats["worker_restarts"],
                "per_worker": host_stats["per_worker"],
            }
        return view

    async def aclose(self) -> None:
        """Shut the service down: worker pools drained, settings kept."""
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.registry.close()
        if self._host is not None:
            self._host.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._owns_store:
            self.store.close()

    async def __aenter__(self) -> "AsyncExchangeService":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        return (f"<AsyncExchangeService executor={self.executor} "
                f"parallel={self.parallel} registry={self.registry!r}>")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    async def offload(self, fn: Callable[[], _T]) -> _T:
        """Run ``fn()`` off the event loop on the service's pool (inline
        for the serial executor).  The server front end also routes heavy
        *codec* work — decoding multi-megabyte request lines, building and
        rendering wire trees — through here, so big payloads cannot stall
        the loop that other connections' replies are written from."""
        if self._closed:
            raise RuntimeError("service is closed")
        if self._pool is None:  # serial: inline on the loop thread
            return fn()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn)

    async def _traced_offload(self, fn: Callable[[], _T]) -> _T:
        """:meth:`offload` with queueing attributed: the span context is
        captured on the loop (contextvars do not cross executor threads),
        re-activated in the pool thread, the executor wait is emitted
        retroactively as ``service.queue``, and the work itself runs under
        ``service.execute``.  Tracing off → plain :meth:`offload`."""
        if not obs_enabled():
            return await self.offload(fn)
        context = current_context()
        submitted = time.perf_counter()

        def run() -> _T:
            with activate(context):
                emit("service.queue", submitted, time.perf_counter())
                with obs_span("service.execute"):
                    return fn()

        return await self.offload(run)
