"""The one counter plane: :class:`CacheStats` and :func:`merge_counts`.

A :class:`CacheStats` object is a small named-counter registry.  Every cache
in the system — the compiled setting's plan and consistency caches, the
engine's result cache, the registry's compiled-settings LRU, the corpus
store — records each hit, miss and eviction here exactly once (the DTD
rule caches keep their own counts, which :meth:`CacheStats.set_counts`
copies in), so callers (and the test-suite) can *prove* that a warm engine
reuses precompiled state instead of rebuilding it — e.g. that a second
``certain_answers`` call performs zero NFA recompilations.

Every stats view is a flat ``{name: number}`` dict built from
:meth:`CacheStats.snapshot` results (``ExchangeEngine.stats``,
``Shard.stats()``, ``SettingRegistry.stats()``); views of disjoint slices —
several shards' plan caches, several shard-host workers — are summed by
:func:`merge_counts`, never by hand.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Mapping

__all__ = ["CacheStats", "merge_counts"]


def merge_counts(*views: Mapping[str, Any]) -> Dict[str, Any]:
    """Sum flat stats views key by key.

    Numeric entries add up; anything else — ``bool`` flags, nested views,
    strings, ``None`` — is skipped, so a view may carry descriptive
    entries without corrupting the totals."""
    merged: Dict[str, Any] = {}
    for view in views:
        for name, value in view.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                merged[name] = merged.get(name, 0) + value
    return merged


class CacheStats:
    """Named hit/miss/eviction counters plus one-sided event counts."""

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
