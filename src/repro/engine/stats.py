"""Cache-hit/miss accounting for compiled settings and engines.

A :class:`CacheStats` object is a small named-counter registry.  Every cache
owned by a :class:`~repro.engine.compiled.CompiledSetting` records its hits
and misses here, so callers (and the test-suite) can *prove* that a warm
engine reuses precompiled state instead of rebuilding it — e.g. that a second
``certain_answers`` call performs zero NFA recompilations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = ["CacheStats", "EngineStats"]


@dataclass(frozen=True)
class EngineStats:
    """A point-in-time summary of one :class:`~repro.engine.ExchangeEngine`.

    ``result_cache_*`` counters describe the engine-level result cache keyed
    by ``(tree_fingerprint, query_fingerprint)``; ``plan_cache_*`` counters
    describe the compiled setting's query-plan cache keyed by
    ``Query.fingerprint()`` (a warm engine evaluates every repeated query
    through a cached plan — ``plan_cache_misses`` stops moving after the
    first evaluation of each query); ``counters`` is the full merged
    snapshot (compiled-setting caches plus engine caches) that every
    :class:`~repro.engine.EngineResult` also carries in its ``cache`` field.
    ``result_cache_maxsize`` is ``None`` for an unbounded cache (the batch-job
    default); a bounded cache reports LRU evictions in
    ``result_cache_evictions``.
    """

    requests: int
    result_cache_hits: int
    result_cache_misses: int
    result_cache_entries: int
    result_cache_evictions: int = 0
    result_cache_maxsize: Optional[int] = None
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    plan_cache_entries: int = 0
    #: One event per pattern-plan run (see :mod:`repro.patterns.plan`).
    plan_join_runs: int = 0
    #: Corpus-store resolution counters (all zero with no store attached):
    #: ``store_hits`` / ``store_misses`` count fingerprint-addressed tree
    #: resolutions; ``store_bytes`` accumulates record bytes read off the
    #: store heap (cache-served resolutions move hits but not bytes).
    store_hits: int = 0
    store_misses: int = 0
    store_bytes: int = 0
    counters: Dict[str, int] = field(default_factory=dict)


class CacheStats:
    """Named hit/miss counters with cheap snapshot/delta arithmetic."""

    def __init__(self) -> None:
        self._hits: Counter = Counter()
        self._misses: Counter = Counter()
        self._evictions: Counter = Counter()
        self._events: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def hit(self, name: str, count: int = 1) -> None:
        self._hits[name] += count

    def miss(self, name: str, count: int = 1) -> None:
        self._misses[name] += count

    def evict(self, name: str, count: int = 1) -> None:
        """Record ``count`` capacity evictions from the cache ``name``."""
        self._evictions[name] += count

    def count(self, name: str, count: int = 1) -> None:
        """Record ``count`` occurrences of the plain event ``name``.

        Events are one-sided counters (no hit/miss pairing): prewarm
        compiles, quota rejections, and the like.  They appear in
        :meth:`snapshot` under their own name, verbatim.
        """
        self._events[name] += count

    def set_counts(self, name: str, hits: int, misses: int) -> None:
        """Overwrite both counters of ``name`` (used for caches that keep
        their own counts, such as the per-DTD rule caches)."""
        self._hits[name] = hits
        self._misses[name] = misses

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def hits(self, name: str) -> int:
        return self._hits[name]

    def misses(self, name: str) -> int:
        return self._misses[name]

    def evictions(self, name: str) -> int:
        return self._evictions[name]

    def counts(self, name: str) -> int:
        return self._events[name]

    @property
    def total_hits(self) -> int:
        return sum(self._hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self._misses.values())

    def snapshot(self) -> Dict[str, int]:
        """A flat ``{"<name>_hits": n, "<name>_misses": m, "<name>_evictions":
        e}`` mapping (evictions reported only for caches that recorded any;
        plain event counters recorded via :meth:`count` appear verbatim)."""
        flat: Dict[str, int] = {}
        for name in sorted(set(self._hits) | set(self._misses)):
            flat[f"{name}_hits"] = self._hits[name]
            flat[f"{name}_misses"] = self._misses[name]
        for name in sorted(self._evictions):
            flat[f"{name}_evictions"] = self._evictions[name]
        for name in sorted(self._events):
            flat[name] = self._events[name]
        return flat

    @staticmethod
    def delta(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, int]:
        """Counter movement between two :meth:`snapshot` results."""
        return {key: after.get(key, 0) - before.get(key, 0)
                for key in set(before) | set(after)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CacheStats hits={self.total_hits} misses={self.total_misses}>"
