"""The engine API: compile a setting once, serve per-tree requests forever.

* :func:`compile_setting` turns a
  :class:`~repro.exchange.setting.DataExchangeSetting` into a
  :class:`CompiledSetting` owning every setting-derived artefact (content
  model NFAs and univocality analyses, structural verdicts, dichotomy
  routing, consistency machinery) with cache-hit/miss accounting;
* :class:`ExchangeEngine` wraps a compiled setting and exposes the whole
  pipeline — consistency, chase, certain answers, and order-preserving
  batches of them — as methods returning a uniform :class:`EngineResult`.

The engine delegates to the functional API in :mod:`repro.exchange`, handing
it the compiled setting; a bare functional call compiles one per call.
"""

from .compiled import CompiledSetting, compile_setting
from .engine import EngineResult, ExchangeEngine
from .stats import CacheStats, merge_counts

__all__ = ["CacheStats", "CompiledSetting", "compile_setting",
           "EngineResult", "ExchangeEngine", "merge_counts"]
