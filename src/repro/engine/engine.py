"""The compiled, cached facade over the whole exchange pipeline.

:class:`ExchangeEngine` owns a :class:`~repro.engine.compiled.CompiledSetting`
and exposes every pipeline stage as a method returning a uniform
:class:`EngineResult` — success flag, payload, strategy used, wall-clock
timing and a cache-stats snapshot — instead of the four unrelated result
dataclasses of the functional API (which remains available and is what the
engine delegates to, handing it the compiled setting).  A result carries the
answer, not the pipeline: the canonical tree, the chase log and consistency
witnesses stay with the functional API, which a caller who wants them calls
with ``compiled=engine.compiled``.

Per-tree work (``solve``, ``certain_answers``) is independent across trees
once the setting is compiled; the ``*_batch`` methods are order-preserving
loops over the per-tree calls.  Spreading requests over processes is the
serving layer's job: :class:`~repro.service.host.ShardHost` keeps compiled
settings warm in long-lived worker processes.

On top of the compiled-setting caches the engine keeps a **result cache**
keyed by ``(tree_fingerprint, query_fingerprint, variable_order)`` whose
entries are answer sets (``None`` for "no solution"): repeated
``certain_answers`` requests for the same tree and query are served without
re-chasing.  Hits and misses are surfaced through the ``cache`` snapshot of
every :class:`EngineResult` (``result_cache_hits`` / ``result_cache_misses``)
and through :attr:`ExchangeEngine.stats`.  Only *results* are cached
— including "no solution" outcomes — never exceptions: a call that raises
(:class:`~repro.exchange.errors.ChaseError`, a precondition ``ValueError``)
is recomputed, and re-raises, every time.

The cache is unbounded by default — right for a batch job whose working set
is its own input, wrong for a long-lived server.  ``result_cache_maxsize=N``
bounds it to the ``N`` most recently used entries (least-recently-used
eviction, counted as ``result_cache_evictions``); the serving layer
(:mod:`repro.service`) sets this per shard, so each setting's tenants share a
budget but can never evict another setting's entries.

**Source documents are snapshots.**  The per-tree methods read a source
document only through its :class:`~repro.xmlmodel.frozen.FrozenTree`, so
they take a snapshot or an inline :class:`XMLTree` (frozen once, at
:meth:`ExchangeEngine.resolve_tree`).  After :meth:`attach_store` they
also take a document *fingerprint* (``str``), resolved through a small
LRU of snapshots and then the attached :class:`~repro.storage.CorpusStore`
(the decoded record, never thawed), raising the typed
:class:`~repro.storage.UnknownDocumentError` for absent fingerprints.
Resolutions are counted on the store's ``CacheStats`` (``store_hits`` /
``store_misses``; ``store_bytes`` moves only when record bytes are
actually read off the heap) and surface in every result's ``cache``
snapshot, which is :attr:`ExchangeEngine.stats` — the engine's one stats
view.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple, Union)

from ..exchange.certain_answers import certain_answers
from ..exchange.chase import ChaseResult, canonical_solution
from ..exchange.consistency import ConsistencyResult, check_consistency
from ..exchange.errors import NoSolutionError
from ..exchange.setting import DataExchangeSetting
from ..obs.trace import span as obs_span, timer as obs_timer
from ..patterns.queries import Query, check_variable_order
from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import NullFactory, Value
from .compiled import CompiledSetting, compile_setting
from .stats import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage import CorpusStore

__all__ = ["EngineResult", "ExchangeEngine"]

#: A per-tree operand: the document (a tree or its snapshot), or — with a
#: store attached — its fingerprint.
TreeRef = Union[XMLTree, FrozenTree, str]

#: A ``certain_answers`` payload, and what a result-cache entry holds:
#: frozen, so no caller can change what later requests are served.
Answers = FrozenSet[Tuple[Value, ...]]

#: Bound on the LRU of stored-document snapshots an engine with a store
#: keeps.
STORE_TREE_CACHE_MAXSIZE = 64

#: Strategy names accepted by :meth:`ExchangeEngine.check_consistency`.
CONSISTENCY_STRATEGIES = ("auto", "nested_relational", "general")

#: Counters every :attr:`ExchangeEngine.stats` view carries, reading 0
#: until they move — with or without a store attached, so the view's key
#: set never depends on how the engine is deployed.
_ENGINE_COUNTERS = ("result_cache_hits", "result_cache_misses",
                    "result_cache_evictions", "plan_cache_hits",
                    "plan_cache_misses", "plan_cache_evictions",
                    "plan_join_runs", "store_hits", "store_misses",
                    "store_bytes")


@dataclass
class EngineResult:
    """Uniform outcome of every engine operation.

    ``ok``
        Did the operation produce a defined payload?  ``False`` means "no
        solution exists" for ``solve`` / ``certain_answers`` and a proven
        "inconsistent" for ``check_consistency`` — never an internal error
        or an undecided check (those raise).
    ``payload``
        The operation's primary value: a ``bool`` for consistency, the
        canonical-solution tree for ``solve``, the ``frozenset`` of
        certain-answer tuples for ``certain_answers`` (the result cache's
        own entry, shared by every hit, hence immutable), the dichotomy
        report for ``classify``.
    ``strategy``
        Which algorithm served the request (e.g. ``"nested-relational"``,
        ``"general"``, ``"chase"``).
    ``elapsed``
        Wall-clock seconds spent inside the engine for this request.
    ``cache``
        The engine's :attr:`~ExchangeEngine.stats` view taken after the
        request (cumulative counters; diff two snapshots to see
        per-request reuse).
    ``detail``
        Text for a reader: why ``ok`` is false for ``solve`` /
        ``certain_answers``, the consistency procedure's note, the
        dichotomy summary for ``classify``.
    """

    ok: bool
    payload: Any
    strategy: str
    elapsed: float
    cache: Dict[str, int] = field(default_factory=dict)
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def unwrap(self) -> Any:
        """The payload, or :class:`NoSolutionError` when ``ok`` is false."""
        if not self.ok:
            raise NoSolutionError(self.detail or "operation produced no result")
        return self.payload


class ExchangeEngine:
    """A compiled, cached facade over consistency, the chase and certain
    answers.

    Build it from a setting (compiled on the spot) or from an explicitly
    precompiled :class:`CompiledSetting`; reuse it for any number of
    per-tree requests::

        engine = ExchangeEngine(setting)
        engine.check_consistency().payload        # True / False
        engine.solve(tree).payload                # canonical solution tree
        engine.certain_answers(tree, query).payload
        engine.certain_answers_batch(trees, query)
    """

    def __init__(self, compiled: Union[CompiledSetting, DataExchangeSetting],
                 result_cache: bool = True,
                 result_cache_maxsize: Optional[int] = None) -> None:
        if isinstance(compiled, DataExchangeSetting):
            compiled = compile_setting(compiled)
        if not isinstance(compiled, CompiledSetting):
            raise TypeError(
                f"expected a DataExchangeSetting or CompiledSetting, "
                f"got {type(compiled).__name__}")
        if result_cache_maxsize is not None and result_cache_maxsize < 1:
            raise ValueError(
                f"result_cache_maxsize must be a positive integer or None "
                f"(unbounded), got {result_cache_maxsize!r}")
        self.compiled = compiled
        self.requests = 0
        #: ``result_cache=False`` disables the engine-level result cache
        #: (every request recomputes; counters stay at zero).
        self.result_cache_enabled = result_cache
        #: ``None`` keeps the cache unbounded (the batch-job default, where
        #: the working set is the job's own input); a long-lived server
        #: should bound it — least-recently-used entries are then evicted
        #: and counted as ``result_cache_evictions``.
        self.result_cache_maxsize = result_cache_maxsize
        self._results: "OrderedDict[Tuple[str, str, Optional[Tuple[str, ...]]], Optional[Answers]]" = OrderedDict()
        self._engine_stats = CacheStats()
        #: Attached corpus store (see :meth:`attach_store`) and the LRU of
        #: stored-document snapshots fronting it, keyed by fingerprint.
        self._store: Optional["CorpusStore"] = None
        self._store_trees: "OrderedDict[str, FrozenTree]" = OrderedDict()
        # Guards the result cache, its counters and the request counter
        # against concurrent requests (the service's thread executor serves
        # one shard from many threads); computation happens outside the
        # lock (two threads racing past the lookup may both compute — the
        # counters then truthfully report two misses).
        self._lock = threading.Lock()

    @property
    def setting(self) -> DataExchangeSetting:
        return self.compiled.setting

    @property
    def store(self) -> Optional["CorpusStore"]:
        """The attached corpus store, or ``None``."""
        return self._store

    def attach_store(self, store: "CorpusStore") -> "CorpusStore":
        """Attach a persistent corpus store.

        Afterwards every per-tree method accepts a document fingerprint in
        place of an inline tree; resolved snapshots are kept in an LRU of
        :data:`STORE_TREE_CACHE_MAXSIZE` entries so repeated requests
        against the same document decode its record once.  Returns the
        attached store (handy for
        ``engine.attach_store(store).put_tree(tree)``)."""
        with self._lock:
            self._store = store
            self._store_trees.clear()
        return store

    def resolve_tree(self, source: TreeRef) -> FrozenTree:
        """The snapshot of an inline document (``source.freeze()``), or a
        fingerprint resolved through the snapshot LRU and the attached
        store's decoded record.

        Raises :class:`~repro.storage.StoreError` when a fingerprint is
        used with no store attached and
        :class:`~repro.storage.UnknownDocumentError` when the store has no
        such document (both typed, both wire-codable)."""
        if not isinstance(source, str):
            return source.freeze()
        store = self._store
        if store is None:
            from ..storage import StoreError
            raise StoreError(
                f"cannot resolve tree fingerprint {source[:12]}...: no "
                f"store attached (call attach_store first)")
        with self._lock:
            cached = self._store_trees.get(source)
            if cached is not None:
                self._store_trees.move_to_end(source)
        if cached is not None:
            store.stats.hit("store")
            return cached
        frozen = store.get_frozen(source)
        with self._lock:
            self._store_trees[source] = frozen
            self._store_trees.move_to_end(source)
            while len(self._store_trees) > STORE_TREE_CACHE_MAXSIZE:
                self._store_trees.popitem(last=False)
        return frozen

    @property
    def stats(self) -> Dict[str, int]:
        """The engine's one stats view, cumulative: the declared counters,
        the compiled setting's caches, the result cache, the attached
        store's resolution counters and the live entry counts
        ``result_cache_entries`` / ``plan_cache_entries``.  Every
        :class:`EngineResult` carries it as ``cache``."""
        view = dict.fromkeys(_ENGINE_COUNTERS, 0)
        view.update(self.compiled.cache_stats())
        view.update(self._engine_stats.snapshot())
        if self._store is not None:
            # Three direct reads, not snapshot(): this view is built for
            # every EngineResult, and the sorted, formatted snapshot of the
            # store's counters costs measurably more on a warm cache hit.
            stats = self._store.stats
            view["store_hits"] = stats.hits("store")
            view["store_misses"] = stats.misses("store")
            view["store_bytes"] = stats.counts("store_bytes")
        view["result_cache_entries"] = len(self._results)
        view["plan_cache_entries"] = len(self.compiled.plan_cache)
        return view

    def clear_result_cache(self) -> None:
        """Drop every cached result (counters are kept)."""
        with self._lock:
            self._results.clear()

    # ------------------------------------------------------------------ #
    # Setting-level operations
    # ------------------------------------------------------------------ #

    def classify(self) -> EngineResult:
        """The dichotomy routing decision (Theorem 6.2): is this setting in
        the tractable class?  ``ok`` is always true; ``payload.tractable``
        carries the verdict."""
        with obs_timer("engine.classify") as clock:
            cached = self.compiled.dichotomy
            # Fresh containers, so a caller mutating the report (a plain
            # dataclass meant for display) cannot poison the cached one.
            report = replace(
                cached,
                target_rules={element: dict(info)
                              for element, info in cached.target_rules.items()},
                std_classes=list(cached.std_classes),
                reasons=list(cached.reasons))
            return self._result(True, report, "dichotomy", clock,
                                detail=report.summary())

    def check_consistency(self, strategy: str = "auto") -> EngineResult:
        """Decide consistency (Section 4) with automatic strategy routing.

        ``strategy`` is ``"auto"`` (nested-relational fast path when both
        DTDs qualify), ``"nested_relational"`` (Theorem 4.5) or
        ``"general"`` (Theorem 4.1).  The verdict is a proven one: where
        "inconsistent" cannot be proven (a cut skeleton search, or a source
        pattern outside Section 4's distinct-variable proviso) the call
        raises :class:`~repro.exchange.errors.ConsistencyUndecidedError`."""
        normalised = (strategy.replace("-", "_")
                      if isinstance(strategy, str) else None)
        if normalised not in CONSISTENCY_STRATEGIES:
            raise ValueError(
                f"unknown consistency strategy {strategy!r}; "
                f"expected one of {', '.join(CONSISTENCY_STRATEGIES)}")
        with obs_timer("engine.consistency") as clock:
            outcome: ConsistencyResult = check_consistency(
                self.setting, method=normalised.replace("_", "-"),
                compiled=self.compiled)
            return self._result(outcome.consistent, outcome.consistent,
                                outcome.method, clock,
                                detail=outcome.detail)

    # ------------------------------------------------------------------ #
    # Per-tree operations
    # ------------------------------------------------------------------ #

    def solve(self, source_tree: TreeRef,
              nulls: Optional[NullFactory] = None) -> EngineResult:
        """Chase ``cps(T)`` into the canonical solution ``T*`` (Section 6.1).

        ``source_tree`` is an inline tree or snapshot or — with a store
        attached — a document fingerprint.  ``ok`` is false — with the
        chase's failure reason in ``detail`` — when the source tree has no
        solution (Lemma 6.15 b).  Outside ``C_U`` neither holds, so a
        target DTD that is not univocal raises
        :class:`~repro.exchange.errors.ChaseError` (see
        :func:`~repro.exchange.chase.canonical_solution`)."""
        with obs_timer("engine.solve") as clock:
            source_tree = self.resolve_tree(source_tree)
            outcome: ChaseResult = canonical_solution(
                self.setting, source_tree, nulls, compiled=self.compiled)
            return self._result(outcome.success, outcome.tree, "chase",
                                clock, detail=outcome.failure or "")

    def certain_answers(self, source_tree: TreeRef, query: Query,
                        variable_order: Optional[Sequence[str]] = None,
                        nulls: Optional[NullFactory] = None) -> EngineResult:
        """``certain(Q, T)`` via the canonical solution (Theorem 6.2).

        ``source_tree`` is an inline tree or snapshot or — with a store
        attached — a document fingerprint.  ``payload`` is the frozenset
        of all-constant answer tuples; ``ok`` is false when the source tree
        has no solution.  A setting outside ``C_U`` (a target DTD that is
        not univocal) raises :class:`~repro.exchange.errors.ChaseError`,
        and a ``variable_order`` the query does not admit raises
        ``ValueError`` (:func:`~repro.patterns.queries.
        check_variable_order`), before the result cache is consulted.
        Repeated requests for a fingerprint-identical
        ``(tree, query, variable_order)`` triple are served from the result
        cache (observable only through the ``result_cache_*`` counters —
        payload, strategy and detail are identical to a fresh computation),
        so inline and fingerprint-addressed forms of the same document
        share cache entries.  Passing an explicit ``nulls``
        factory bypasses the cache: the caller is asking for the canonical
        solution to be built from *that* factory, which a cached outcome
        would silently ignore."""
        with obs_timer("engine.certain_answers") as clock:
            source_tree = self.resolve_tree(source_tree)
            order = check_variable_order(query, variable_order)
            key = (None if nulls is not None
                   else self._result_key(source_tree, query, order))
            if key is not None:
                with obs_span("engine.cache_lookup"):
                    hit, answers = self._cache_lookup(key)
                if hit:
                    return self._certain_result(answers, clock)
            answers = certain_answers(
                self.setting, source_tree, query, order, nulls,
                compiled=self.compiled).answers
            if key is not None:
                self._cache_store(key, answers)
            return self._certain_result(answers, clock)

    def _result_key(self, source_tree: FrozenTree, query: Query,
                    order: Optional[Tuple[str, ...]]
                    ) -> Optional[Tuple[str, str, Optional[Tuple[str, ...]]]]:
        if not self.result_cache_enabled:
            return None
        return (source_tree.fingerprint(), query.fingerprint(), order)

    def _cache_lookup(self, key: Tuple) -> Tuple[bool, Optional[Answers]]:
        """Counted result-cache lookup: ``(hit, answers)``; a hit refreshes
        the entry's LRU position."""
        with self._lock:
            hit = key in self._results
            if hit:
                self._results.move_to_end(key)
                self._engine_stats.hit("result_cache")
            else:
                self._engine_stats.miss("result_cache")
            return hit, self._results.get(key)

    def _cache_store(self, key: Tuple, answers: Optional[Answers]) -> None:
        """Store ``answers`` under ``key``, evicting least-recently-used
        entries beyond ``result_cache_maxsize`` (counted)."""
        with self._lock:
            self._results[key] = answers
            self._results.move_to_end(key)
            if self.result_cache_maxsize is not None:
                while len(self._results) > self.result_cache_maxsize:
                    self._results.popitem(last=False)
                    self._engine_stats.evict("result_cache")

    def _certain_result(self, answers: Optional[Answers],
                        clock: Any) -> EngineResult:
        if answers is None:
            return self._result(False, None, "canonical-solution", clock,
                                detail="the source tree has no solution")
        return self._result(True, answers, "canonical-solution", clock)

    def certain_answer_boolean(self, source_tree: TreeRef,
                               query: Query) -> EngineResult:
        """Boolean certain answers; ``payload`` is ``True`` / ``False`` and
        ``ok`` is false (payload ``None``) when no solution exists."""
        result = self.certain_answers(source_tree, query)
        payload = bool(result.payload) if result.ok else None
        return replace(result, payload=payload)

    # ------------------------------------------------------------------ #
    # Batch operations
    # ------------------------------------------------------------------ #

    def solve_batch(self, source_trees: Sequence[TreeRef]
                    ) -> List[EngineResult]:
        """Canonical solutions for many source trees (order-preserving).

        Items may be inline trees or stored-document fingerprints; each is
        served by :meth:`solve`."""
        return [self.solve(tree) for tree in source_trees]

    def certain_answers_batch(self, source_trees: Sequence[TreeRef],
                              queries: Union[Query, Sequence[Query]]
                              ) -> List[EngineResult]:
        """``certain(Q_i, T_i)`` for many trees (order-preserving).

        ``queries`` is either a single query evaluated against every tree or
        a sequence paired elementwise with ``source_trees``.  Each pair is
        served by :meth:`certain_answers`, so a fingerprint-identical
        repeat within the batch is a result-cache hit."""
        trees = list(source_trees)
        if isinstance(queries, Query):
            query_list = [queries] * len(trees)
        else:
            query_list = list(queries)
            if len(query_list) != len(trees):
                raise ValueError(
                    f"{len(trees)} source tree(s) but {len(query_list)} "
                    "query/queries; pass one query or exactly one per tree")
        return [self.certain_answers(tree, query)
                for tree, query in zip(trees, query_list)]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _result(self, ok: bool, payload: Any, strategy: str, clock: Any,
                detail: str = "") -> EngineResult:
        """Wrap an outcome; ``clock`` is the request's
        :func:`repro.obs.trace.timer` — the one code path every
        ``EngineResult.elapsed`` flows through."""
        with self._lock:
            self.requests += 1
        return EngineResult(ok, payload, strategy, clock.elapsed,
                            self.stats, detail)

    def __repr__(self) -> str:
        return f"<ExchangeEngine {self.compiled!r} requests={self.requests}>"

