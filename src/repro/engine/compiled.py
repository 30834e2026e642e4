"""Compile-once state for a data exchange setting.

Everything the pipeline can derive from the triple ``(D_S, D_T, Σ_ST)`` alone
— and therefore everything that is wasted work when recomputed per request —
lives here:

* the per-element content-model machinery of **both** DTDs (regex→NFA,
  semilinear sets, the univocality analyses of Definition 6.9), forced into
  the DTD rule caches eagerly;
* the :func:`~repro.exchange.dichotomy.classify_setting` report
  (``dichotomy``): per-STD classification, the fully-specified flag
  (Theorem 5.11 / Definition 5.10) and the per-element univocality
  verdicts, which together decide whether the canonical-solution pipeline
  may answer (Theorem 6.2);
* the other structural verdicts: nested-relational detection
  (Theorem 4.5) and source-DTD satisfiability;
* reusable consistency machinery: the attribute-erased dependencies of
  Claim 4.2, the target-side goal search (whose memo table persists across
  requests), the ⪯-minimal source-skeleton enumeration, and the unique
  ``D°_S`` / ``D*_T`` trees of the nested-relational algorithm;
* compiled evaluation plans (:mod:`repro.patterns.plan`): every STD source
  pattern lowered once at compile time, plus a bounded, counted LRU of
  per-query plans keyed by ``Query.fingerprint()`` — the request path runs
  slot-based plans over frozen trees instead of interpreting pattern ASTs.

All of it is observable through :meth:`CompiledSetting.cache_stats`, whose
miss counters prove (for tests and benchmarks) that a warm engine never
recompiles an NFA or re-runs an analysis.

Every stage of :mod:`repro.exchange` runs on a compiled setting, which its
outermost entry point obtains through :func:`compiled_for`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..exchange.consistency import _GoalSearch, minimal_source_skeletons
from ..exchange.dichotomy import DichotomyReport, classify_setting
from ..exchange.setting import DataExchangeSetting
from ..patterns.formula import TreePattern
from ..patterns.plan import (PatternPlan, PlanCache, QueryPlan,
                             compile_pattern)
from ..patterns.queries import Query
from ..regexlang.univocal import RegexAnalysis
from ..xmlmodel.tree import XMLTree
from .stats import CacheStats

__all__ = ["CompiledSetting", "compile_setting", "compiled_for",
           "DEFAULT_PLAN_CACHE_MAXSIZE"]

#: Bound on the per-setting query-plan cache.  Plans are small
#: (slot tables + op tuples), but the cache is keyed by query fingerprint
#: and a long-lived shard sees an open-ended query stream — bounded LRU
#: keeps the worst case flat while any realistic working set stays warm.
DEFAULT_PLAN_CACHE_MAXSIZE = 256


class CompiledSetting:
    """Precompiled, request-independent state of a
    :class:`~repro.exchange.setting.DataExchangeSetting`.

    Construction performs every setting-level computation eagerly (or, for
    the potentially expensive skeleton enumeration, memoises it on first
    use); afterwards the object is read-only from the pipeline's point of
    view and can be shared across threads serving per-tree requests (lazy
    memoisation is lock-protected; the hit *counters* of the underlying DTD
    rule caches are best-effort under concurrency — miss counters only move
    on real recompilations, which the compile phase has already exhausted).
    """

    def __init__(self, setting: DataExchangeSetting) -> None:
        self.setting = setting
        self.stats = CacheStats()

        # --- per-element content-model machinery (compile phase 1) ------- #
        setting.source_dtd.precompile_rules()
        setting.target_dtd.precompile_rules()
        self.source_analyses: Dict[str, RegexAnalysis] = {
            element: setting.source_dtd.rule_analysis(element)
            for element in setting.source_dtd.element_types}
        self.target_analyses: Dict[str, RegexAnalysis] = {
            element: setting.target_dtd.rule_analysis(element)
            for element in setting.target_dtd.element_types}

        # --- routing decision and structural verdicts (compile phase 2) --- #
        # The dichotomy report is the single source of truth for the
        # STD classification and the per-element univocality verdicts;
        # canonical_solution reads it to refuse targets outside C_U.
        self.dichotomy: DichotomyReport = classify_setting(setting)
        self.source_nested_relational: bool = \
            setting.source_dtd.is_nested_relational()
        self.target_nested_relational: bool = \
            setting.target_dtd.is_nested_relational()
        self.nested_relational: bool = (self.source_nested_relational
                                        and self.target_nested_relational)
        self.source_satisfiable: bool = setting.source_dtd.is_satisfiable()
        self.erased_stds: List[Tuple[TreePattern, TreePattern]] = [
            (dep.source.erase_attributes(), dep.target.erase_attributes())
            for dep in setting.stds]

        # --- compiled evaluation plans (compile phase 3) ------------------ #
        # STD source patterns are lowered once here: every pre-solution
        # evaluates them as slot-based plans over the frozen source tree.
        self.std_source_plans: List[PatternPlan] = [
            compile_pattern(dep.source) for dep in setting.stds]
        #: Bounded LRU of per-query evaluation plans, keyed by
        #: ``Query.fingerprint()``.  Hits/misses/evictions are recorded once,
        #: into this setting's :class:`CacheStats`, as ``plan_cache_*``, so
        #: they surface in ``ExchangeEngine.stats`` (every
        #: ``EngineResult.cache``) and in the serving layer's shard and
        #: registry views.
        self.plan_cache = PlanCache(self.stats,
                                    maxsize=DEFAULT_PLAN_CACHE_MAXSIZE)

        # --- lazily memoised heavy machinery ------------------------------ #
        self._lock = threading.Lock()
        self._goal_search: Optional[_GoalSearch] = None
        self._skeletons: Optional[Tuple[List[XMLTree], bool]] = None
        self._nr_skeletons: Optional[Tuple[XMLTree, XMLTree]] = None

        # Baselines so cache_stats reports movement *since compilation*:
        # misses after this point are genuine recompilations.
        self._rule_baseline = self._rule_counts()

    # ------------------------------------------------------------------ #
    # Pickling (the shard-host pipe and the corpus store)
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        """Everything but the lock travels: a compiled setting shipped to a
        shard-host worker or restored from a corpus store arrives warm
        (NFAs, analyses, verdicts, memo tables) and never recompiles."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        if isinstance(self._skeletons, dict):
            # Older versions memoised one enumeration per cap; the next
            # general check re-enumerates under the one bound.
            self._skeletons = None

    # ------------------------------------------------------------------ #
    # Derived machinery (memoised, instrumented)
    # ------------------------------------------------------------------ #

    def check_owns(self, setting: DataExchangeSetting) -> None:
        """Guard for ``compiled=`` handles: raise unless this compiled state
        was built from exactly the given setting object (a mismatched handle
        would silently answer for the wrong setting)."""
        if setting is not self.setting:
            raise ValueError(
                "the compiled= handle was built from a different "
                "DataExchangeSetting than the one passed to this call; "
                "compile_setting() the setting you are querying")

    def query_plan(self, query: Query) -> QueryPlan:
        """The compiled evaluation plan for ``query`` (cached, counted).

        The first request for a query fingerprint compiles the plan
        (``plan_cache_misses``); every later evaluation of the same query on
        this setting — and in every process it is unpickled into
        afterwards — reuses it (``plan_cache_hits``)."""
        return self.plan_cache.get(query)

    def goal_search(self) -> _GoalSearch:
        """The target-side goal search of Section 4.  One instance per
        compiled setting: its (state → satisfiable) memo table accumulates
        across consistency checks."""
        with self._lock:
            if self._goal_search is None:
                self.stats.miss("goal_search")
                self._goal_search = _GoalSearch(self.setting.target_dtd)
            else:
                self.stats.hit("goal_search")
            return self._goal_search

    def source_skeletons(self) -> Tuple[List[XMLTree], bool]:
        """The ⪯-minimal source skeletons and whether the enumeration was
        complete (memoised; see
        :func:`~repro.exchange.consistency.minimal_source_skeletons`)."""
        with self._lock:
            if self._skeletons is None:
                self.stats.miss("skeletons")
                self._skeletons = minimal_source_skeletons(
                    self.setting.source_dtd)
            else:
                self.stats.hit("skeletons")
            return self._skeletons

    def nested_relational_skeletons(self) -> Tuple[XMLTree, XMLTree]:
        """The unique trees of ``D°_S`` and ``D*_T`` (Theorem 4.5)."""
        if not self.nested_relational:
            raise ValueError("the setting is not nested-relational")
        with self._lock:
            if self._nr_skeletons is None:
                self.stats.miss("nr_skeletons")
                self._nr_skeletons = (
                    self.setting.source_dtd.nested_relational_lower().unique_tree(),
                    self.setting.target_dtd.nested_relational_upper().unique_tree())
            else:
                self.stats.hit("nr_skeletons")
            return self._nr_skeletons

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def _rule_counts(self) -> Tuple[int, int]:
        source = self.setting.source_dtd.rule_cache_info()
        target = self.setting.target_dtd.rule_cache_info()
        return (source["hits"] + target["hits"],
                source["misses"] + target["misses"])

    def cache_stats(self) -> Dict[str, int]:
        """A flat snapshot of every cache owned by this compiled setting.

        ``rule_cache_misses`` counts regex→NFA/analysis compilations in
        either DTD **since compilation finished** — a warm pipeline keeps it
        at zero, which is exactly what the reuse tests assert.
        """
        hits, misses = self._rule_counts()
        base_hits, base_misses = self._rule_baseline
        self.stats.set_counts("rule_cache", hits - base_hits,
                              misses - base_misses)
        return self.stats.snapshot()

    def __repr__(self) -> str:
        verdict = []
        if self.nested_relational:
            verdict.append("nested-relational")
        if self.dichotomy.fully_specified:
            verdict.append("fully-specified")
        if self.dichotomy.target_univocal:
            verdict.append("univocal-target")
        return (f"<CompiledSetting {self.setting!r} "
                f"[{', '.join(verdict) or 'general'}]>")


def compile_setting(setting: DataExchangeSetting) -> CompiledSetting:
    """Precompute everything derivable from ``(D_S, D_T, Σ_ST)`` alone.

    The returned :class:`CompiledSetting` is the unit of reuse of the engine
    API: build it once per setting, then serve any number of per-tree
    requests (consistency checks, chases, certain-answer queries) without
    recompiling DTD content models, re-deriving structural verdicts or
    re-lowering query plans (the per-query plan LRU holds
    :data:`DEFAULT_PLAN_CACHE_MAXSIZE` plans).
    """
    return CompiledSetting(setting)


def compiled_for(setting: DataExchangeSetting,
                 compiled: Optional[CompiledSetting] = None
                 ) -> CompiledSetting:
    """The compiled setting a :mod:`repro.exchange` stage runs on: the
    caller's ``compiled`` handle, checked to belong to ``setting``, or — for
    a bare one-shot call — ``setting`` compiled here, once per call."""
    if compiled is None:
        return compile_setting(setting)
    compiled.check_owns(setting)
    return compiled
