"""ReproScope: stdlib-only tracing + metrics across engine → service → host.

Two instruments, one rule — *pay for what you use*:

* :mod:`repro.obs.trace` — request-scoped **spans** (``trace_id`` /
  ``span_id`` / parent, monotonic ``perf_counter`` timing) carried through
  async code by a ``contextvar``, across executor threads by
  ``current_context()`` / ``activate()``, and across the shard-host process
  boundary inside the pickle frames of its pipes, so one request
  reconstructs as one tree no matter how many processes served it.
  Disabled (the default), ``span()`` hands out a shared no-op and costs one
  boolean check; ``timer()`` always times (it feeds
  ``EngineResult.elapsed``) but records a span only when tracing is on.
* :mod:`repro.obs.metrics` — thread-safe gauges and fixed-bucket
  histograms (p50/p90/p99 derivable without storing samples), a registry
  snapshot the server's ``stats`` op exposes, and an event-loop lag probe.
  Counting is :class:`~repro.engine.stats.CacheStats`' job alone (RL004);
  the obs registry holds no counters.

Surfaces: ``--trace PATH`` on the server and ``bench_service.py`` writes
span records as JSON lines; the ``trace_dump`` wire op returns the
in-memory ring buffer; ``python -m repro.obs.report`` renders a dump as a
per-phase latency table and a collapsed-stack file for flamegraph tools;
a configurable slow-request threshold logs the full span tree of
offending requests.  See ROADMAP "Observability" for the span taxonomy.
"""

from .metrics import (Gauge, Histogram, MetricsRegistry, loop_lag_probe,
                      registry)
from .trace import (Span, Tracer, activate, capture, configure,
                    current_context, disable, drain, emit, enabled,
                    format_trace, ingest, records, span, timer)

__all__ = [
    "Span", "Tracer", "activate", "capture", "configure", "current_context",
    "disable", "drain", "emit", "enabled", "format_trace", "ingest",
    "records", "span", "timer",
    "Gauge", "Histogram", "MetricsRegistry", "loop_lag_probe", "registry",
]
