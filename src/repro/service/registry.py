"""The multi-setting registry: fingerprints in, shards out.

A :class:`SettingRegistry` is the serving layer's source of truth for which
settings exist and which of them are currently compiled.  Settings are
admitted with :meth:`register` and keyed by
``DataExchangeSetting.fingerprint()`` — a content digest, so re-registering
a syntactically identical setting is a no-op returning the same key, and
clients can compute the routing key without the registry.

Compilation is **lazy, bounded and concurrent**: a setting is compiled into
a :class:`~repro.service.shard.Shard` the first time a request routes to it
(or eagerly, via :meth:`prewarm` / ``register(..., prewarm=True)``), and at
most ``max_compiled`` shards are kept, least-recently-used first out
(``compiled_evictions`` in :meth:`stats`).  An evicted setting stays
registered — the next request simply pays compilation again (a
``compiled_misses`` increment), which is what makes an LRU of compiled
settings safe: eviction is a performance event, never a correctness event.
Compilation runs *outside* the registry lock — one tenant's compile never
stalls routing for already-compiled tenants — with a per-fingerprint latch
collapsing duplicate concurrent compiles of the same setting.

Admission control: an optional :class:`~repro.service.quota.QuotaPolicy`
bounds how many distinct settings may register (``max_registered``) and how
many requests per setting may be in flight at once (``max_in_flight``,
enforced through :meth:`quota_acquire` / :meth:`quota_release` by the async
service).  Over-quota work fails fast with a typed
:class:`~repro.service.quota.QuotaExceededError` — it is never queued.

Isolation: every shard owns a private engine whose result cache is bounded
by this registry's ``result_cache_maxsize`` — per setting, not globally —
so one tenant's traffic can never evict another tenant's cached results.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

from ..engine import (CacheStats, ExchangeEngine, compile_setting,
                      merge_counts)
from ..engine.compiled import CompiledSetting
from ..exchange.setting import DataExchangeSetting
from ..obs.trace import span as obs_span
from ..storage import CorpusStore, StoreError
from .quota import QuotaPolicy
from .shard import Shard

__all__ = ["SettingRegistry", "UnknownSettingError"]

#: Counters every :meth:`SettingRegistry.stats` view carries, reading 0
#: until they move.
_REGISTRY_COUNTERS = ("compiled_hits", "compiled_misses",
                      "compiled_evictions", "prewarm_compiles",
                      "prewarm_hits", "compile_failures", "quota_rejections",
                      "quota_release_underflow", "plan_cache_hits",
                      "plan_cache_misses", "plan_cache_evictions",
                      "plan_cache_entries", "store_hits", "store_misses",
                      "store_bytes")


class UnknownSettingError(KeyError):
    """A request named a fingerprint no registered setting has."""

    def __init__(self, fingerprint: str) -> None:
        super().__init__(fingerprint)
        self.fingerprint = fingerprint

    def __str__(self) -> str:
        if " " in self.fingerprint:  # already a rendered message
            return self.fingerprint
        return (f"no setting registered under fingerprint "
                f"{self.fingerprint[:16]}… (register it first)")


class SettingRegistry:
    """Admits settings, compiles them lazily, bounds the compiled set."""

    def __init__(self, max_compiled: Optional[int] = None,
                 result_cache: bool = True,
                 result_cache_maxsize: Optional[int] = None,
                 quota: Optional[QuotaPolicy] = None,
                 store: Optional[Union[CorpusStore, str,
                                       "os.PathLike"]] = None,
                 store_read_only: bool = False) -> None:
        if max_compiled is not None and max_compiled < 1:
            raise ValueError(f"max_compiled must be a positive integer or "
                             f"None (unbounded), got {max_compiled!r}")
        self.max_compiled = max_compiled
        self.result_cache = result_cache
        self.result_cache_maxsize = result_cache_maxsize
        self.quota = quota
        #: The corpus store every shard engine resolves fingerprints
        #: through (one shared handle — ``registry.stats()`` therefore
        #: *overlays* its counters rather than summing per-shard views).
        #: A path opens (and, unless ``store_read_only``, creates) an
        #: on-disk store; shard-host workers pass ``store_read_only=True``
        #: — the supervisor owns writes.  A store opened here from a path
        #: is closed by :meth:`close`; a ``CorpusStore`` passed in stays
        #: the caller's.
        self._owns_store = store is not None and \
            not isinstance(store, CorpusStore)
        if self._owns_store:
            store = CorpusStore(store, read_only=store_read_only)
        self.store: Optional[CorpusStore] = store
        self._settings: Dict[str, DataExchangeSetting] = {}
        self._shards: "OrderedDict[str, Shard]" = OrderedDict()
        self._stats = CacheStats()
        self._in_flight: Dict[str, int] = {}
        #: Per-fingerprint latches for compiles in progress: waiters block on
        #: the latch instead of the registry lock, so compilation never
        #: serialises routing for other settings.
        self._compiling: Dict[str, threading.Event] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def register(self, setting: Union[DataExchangeSetting, CompiledSetting],
                 *, prewarm: bool = False, persist: bool = False) -> str:
        """Admit a setting and return its fingerprint (the routing key).

        This is the one registration signature of the whole serving stack
        — :class:`SettingRegistry`, ``AsyncExchangeService``,
        ``ServiceClient`` and ``ShardHost`` all take the same keyword-only
        flags:

        ``prewarm=True`` compiles the setting before returning (counted
        under ``prewarm_*``, not as a ``compiled_miss``), so its first
        request never pays compile latency.  Passing an already-compiled
        :class:`CompiledSetting` pre-seeds the shard the same way.
        ``persist=True`` additionally saves the *compiled* setting into
        the attached corpus store (compiling first when needed, under the
        prewarm accounting — persisting implies warming), so a future
        process restored from the store boots plan-warm.
        Re-registering an identical setting is a no-op (and is never
        rejected by the registration quota).
        """
        compiled: Optional[CompiledSetting] = None
        if isinstance(setting, CompiledSetting):
            compiled, setting = setting, setting.setting
        if not isinstance(setting, DataExchangeSetting):
            raise TypeError(f"expected a DataExchangeSetting or "
                            f"CompiledSetting, got {type(setting).__name__}")
        persist_to = self.store if persist else None
        if persist and persist_to is None:
            raise StoreError(
                "register(persist=True) needs a corpus store attached "
                "to the registry (pass store=... at construction)")
        fingerprint = setting.fingerprint()
        with self._lock:
            if (self.quota is not None
                    and self.quota.max_registered is not None
                    and fingerprint not in self._settings
                    and len(self._settings) >= self.quota.max_registered):
                self._stats.count("quota_rejections")
                raise self.quota.reject_registered()
            self._settings.setdefault(fingerprint, setting)
            if (compiled is not None and fingerprint not in self._shards
                    and fingerprint not in self._compiling):
                # Skip pre-seeding while a lazy compile of the same
                # fingerprint is in flight: its owner is about to admit a
                # shard, and overwriting it would discard whichever engine
                # (and result cache) started serving first.
                self._admit_shard(fingerprint, compiled, prewarmed=True)
        if persist_to is not None:
            # Persisting implies warming: the pickled plan state must come
            # from a compiled shard, and a persisted setting exists so the
            # next boot is plan-warm — so this compile counts under the
            # prewarm accounting, never as a compiled_miss.
            shard = self._obtain(fingerprint, prewarm=True)[0]
            persist_to.put_setting(shard.engine.compiled, prewarm=prewarm)
        elif prewarm:
            self.prewarm(fingerprint)
        return fingerprint

    # ------------------------------------------------------------------ #
    # In-flight quota
    # ------------------------------------------------------------------ #

    def quota_acquire(self, fingerprint: str) -> None:
        """Claim one in-flight slot for ``fingerprint``, or reject.

        No-op without an in-flight quota.  Raises
        :class:`~repro.service.quota.QuotaExceededError` — and counts a
        ``quota_rejections`` event — when the setting is already at its
        ``max_in_flight``; the caller must :meth:`quota_release` every slot
        it successfully acquired, exactly once, when the request settles.
        """
        quota = self.quota
        if quota is None or quota.max_in_flight is None:
            return
        with self._lock:
            current = self._in_flight.get(fingerprint, 0)
            if current >= quota.max_in_flight:
                self._stats.count("quota_rejections")
                raise quota.reject_in_flight(fingerprint)
            self._in_flight[fingerprint] = current + 1

    def quota_release(self, fingerprint: str) -> None:
        """Return one in-flight slot claimed by :meth:`quota_acquire`.

        Releasing a slot that was never acquired is an acquire/release
        imbalance in the caller — a bug that used to be silently absorbed
        and is now loud: it counts a ``quota_release_underflow`` event and
        raises ``RuntimeError`` (the quota itself stays consistent either
        way; nothing goes negative).
        """
        quota = self.quota
        if quota is None or quota.max_in_flight is None:
            return
        with self._lock:
            current = self._in_flight.get(fingerprint, 0)
            if current <= 0:
                self._stats.count("quota_release_underflow")
                raise RuntimeError(
                    f"quota_release without a matching quota_acquire for "
                    f"{fingerprint[:16]}… (in-flight count is already 0)")
            if current == 1:
                self._in_flight.pop(fingerprint)
            else:
                self._in_flight[fingerprint] = current - 1

    def in_flight(self, fingerprint: str) -> int:
        """Currently-admitted, not-yet-released requests for a setting."""
        with self._lock:
            return self._in_flight.get(fingerprint, 0)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def shard(self, fingerprint: str) -> Shard:
        """The shard serving ``fingerprint``, compiling it if needed."""
        return self._obtain(fingerprint, prewarm=False)[0]

    def prewarm(self, fingerprint: str) -> bool:
        """Compile ``fingerprint`` ahead of its first request.

        Returns ``True`` when this call compiled the setting (a
        ``prewarm_compiles`` event), ``False`` when it was already warm
        (``prewarm_hits``).  Either way the first request afterwards is a
        ``compiled_hits`` — never a ``compiled_misses``.
        """
        return self._obtain(fingerprint, prewarm=True)[1]

    def _obtain(self, fingerprint: str, prewarm: bool) -> "Tuple[Shard, bool]":
        """The shard plus whether *this call* compiled it just now."""
        while True:
            with self._lock:
                shard = self._shards.get(fingerprint)
                if shard is not None:
                    self._shards.move_to_end(fingerprint)
                    if prewarm:
                        self._stats.count("prewarm_hits")
                    else:
                        self._stats.hit("compiled")
                    return shard, False
                setting = self._settings.get(fingerprint)
                if setting is None:
                    raise UnknownSettingError(fingerprint)
                latch = self._compiling.get(fingerprint)
                if latch is None:
                    self._compiling[fingerprint] = threading.Event()
                    break
            # Someone else is compiling this very setting: wait on its
            # latch (not the registry lock) and re-check — if the owner's
            # compile failed, the retry elects a new owner.
            latch.wait()
        try:
            try:
                with obs_span("service.compile", setting=fingerprint[:12],
                              prewarm=prewarm):
                    compiled = compile_setting(setting)
            except BaseException:
                with self._lock:
                    self._stats.count("compile_failures")
                raise
            with self._lock:
                # Counted only on success: a raising compile admits no
                # shard, so charging compiled_misses/prewarm_compiles up
                # front would permanently skew those counters against the
                # shards actually admitted.  Failures get their own event.
                if prewarm:
                    self._stats.count("prewarm_compiles")
                else:
                    self._stats.miss("compiled")
                return self._admit_shard(fingerprint, compiled,
                                         prewarmed=prewarm), True
        finally:
            with self._lock:
                finished = self._compiling.pop(fingerprint)
            finished.set()

    def _admit_shard(self, fingerprint: str, compiled: CompiledSetting,
                     prewarmed: bool = False) -> Shard:
        engine = ExchangeEngine(
            compiled, result_cache=self.result_cache,
            result_cache_maxsize=self.result_cache_maxsize)
        if self.store is not None:
            engine.attach_store(self.store)
        shard = Shard(fingerprint, engine, prewarmed=prewarmed)
        self._shards[fingerprint] = shard
        self._shards.move_to_end(fingerprint)
        if self.max_compiled is not None:
            while len(self._shards) > self.max_compiled:
                _, evicted = self._shards.popitem(last=False)
                self._retire_plan_counters(evicted)
                self._stats.evict("compiled")
        return shard

    def _retire_plan_counters(self, shard: Shard) -> None:
        """Fold an evicted shard's plan-cache counters into the registry's
        own stats, so the registry-level ``plan_cache_*`` view stays
        monotonic across shard evictions (a recompiled setting starts a
        fresh cache whose counters then add on top)."""
        cache = shard.engine.compiled.plan_cache
        self._stats.hit("plan_cache", cache.hits)
        self._stats.miss("plan_cache", cache.misses)
        self._stats.evict("plan_cache", cache.evictions)

    def setting(self, fingerprint: str) -> DataExchangeSetting:
        with self._lock:
            setting = self._settings.get(fingerprint)
        if setting is None:
            raise UnknownSettingError(fingerprint)
        return setting

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def fingerprints(self) -> List[str]:
        """Every registered fingerprint, in registration order."""
        with self._lock:
            return list(self._settings)

    def compiled_fingerprints(self) -> List[str]:
        """Currently-compiled fingerprints, least recently used first."""
        with self._lock:
            return list(self._shards)

    def __len__(self) -> int:
        with self._lock:
            return len(self._settings)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._settings

    def stats(self) -> Dict[str, int]:
        """Registry-level counters: registrations, the compiled LRU,
        prewarming, quota rejections, and the plan caches summed over
        every currently-compiled shard *plus* shards already evicted (their
        counters are folded in at eviction time, so the registry-level
        ``plan_cache_hits/misses/evictions`` never decrease;
        ``plan_cache_entries`` counts live caches only)."""
        with self._lock:
            own = dict.fromkeys(_REGISTRY_COUNTERS, 0)
            own.update(self._stats.snapshot(),
                       settings_registered=len(self._settings),
                       compiled_entries=len(self._shards),
                       in_flight=sum(self._in_flight.values()))
            caches = [shard.engine.compiled.plan_cache
                      for shard in self._shards.values()]
        view = merge_counts(own, *(cache.snapshot() for cache in caches))
        # Store counters are *overlaid*, not summed: every shard engine
        # resolves through the registry's one store handle, so a per-shard
        # sum would multiply the same counters.
        if self.store is not None:
            view.update(self.store.stats.snapshot())
        return view

    def shard_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard accounting for every currently-compiled shard."""
        with self._lock:
            shards = list(self._shards.items())
        return {fingerprint: shard.stats() for fingerprint, shard in shards}

    def close(self) -> None:
        """Close the store this registry opened from a path (idempotent).
        Shards compute inline and hold nothing to release, and a
        ``CorpusStore`` passed in is left open for its owner."""
        if self._owns_store:
            self.store.close()

    def __repr__(self) -> str:
        return (f"<SettingRegistry settings={len(self._settings)} "
                f"compiled={len(self._shards)}"
                f"{'' if self.max_compiled is None else f'/{self.max_compiled}'}>")
