"""Thread-safe gauges and fixed-bucket histograms.

The histogram stores only per-bucket tallies (plus count/sum/min/max), so
p50/p90/p99 are derivable by linear interpolation inside the landing
bucket **without storing samples** — constant memory per metric no matter
how many requests pass through.  Bucket semantics are ``le`` (a value
equal to a bound lands in that bound's bucket), the last bound is always
``+inf``, and quantiles are clamped to the observed min/max so edge
observations (0, exact bounds, ``inf``) answer exactly.

Counting is not this module's job: every hit, miss, eviction and event
is recorded once in a :class:`~repro.engine.stats.CacheStats` (RL004) and
surfaces through the stats views.  The obs registry carries what
CacheStats cannot — latency distributions (every finished span feeds
``span.<name>`` via :meth:`MetricsRegistry.observe_span`), point-in-time
gauges (per-worker in-flight depth in the shard host), and the event-loop
lag probe (:func:`loop_lag_probe`).
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["Gauge", "Histogram", "MetricsRegistry", "loop_lag_probe",
           "registry", "DEFAULT_LATENCY_BOUNDS"]

#: Exponential latency buckets (seconds), 100 µs … 10 s, then overflow.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, math.inf)


class Gauge:
    """A point-in-time value that can go both ways (queue depth, lag)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantiles but no stored samples.

    ``bounds`` are ascending upper bucket bounds; ``math.inf`` is appended
    when missing, so no observation is ever dropped.  ``le`` semantics: an
    observation equal to a bound counts in that bound's bucket.
    """

    __slots__ = ("bounds", "_lock", "_tallies", "_observations", "_total",
                 "_low", "_high")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(bounds) if bounds is not None \
            else DEFAULT_LATENCY_BOUNDS
        if not chosen:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b > a for b, a in zip(chosen, chosen[1:])):
            raise ValueError(f"bucket bounds must be ascending: {chosen!r}")
        if chosen[-1] != math.inf:
            chosen = chosen + (math.inf,)
        self.bounds = chosen
        self._lock = threading.Lock()
        self._tallies = [0] * len(chosen)
        self._observations = 0
        self._total = 0.0
        self._low = math.inf
        self._high = -math.inf

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._tallies[index] += 1
            self._observations += 1
            self._total += value
            if value < self._low:
                self._low = value
            if value > self._high:
                self._high = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._observations

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (``0 < q <= 1``) interpolated inside the
        landing bucket and clamped to the observed range; ``None`` while
        empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q!r}")
        with self._lock:
            observations = self._observations
            tallies = list(self._tallies)
            low, high = self._low, self._high
        if observations == 0:
            return None
        rank = max(1, math.ceil(q * observations))
        cumulative = 0
        for index, tally in enumerate(tallies):
            if tally == 0:
                continue
            previous = cumulative
            cumulative += tally
            if cumulative >= rank:
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                upper = self.bounds[index]
                if math.isinf(upper):
                    estimate = high
                else:
                    fraction = (rank - previous) / tally
                    estimate = lower + (upper - lower) * fraction
                return min(max(estimate, low), high)
        return high  # pragma: no cover - cumulative always reaches rank

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            observations = self._observations
            total = self._total
            low, high = self._low, self._high
            tallies = list(self._tallies)
        view: Dict[str, Any] = {
            "count": observations,
            "sum": total,
            "min": None if observations == 0 else low,
            "max": None if observations == 0 else high,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {("inf" if math.isinf(bound) else repr(bound)): tally
                        for bound, tally in zip(self.bounds, tallies)},
        }
        return view


class MetricsRegistry:
    """Named instruments behind one lock; same-name calls return the same
    instrument, cross-kind reuse of a name is a loud error."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _obtain(self, name: str, kind: type, *args: Any) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(*args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already exists as "
                    f"{type(instrument).__name__}, not {kind.__name__}")
            return instrument

    def gauge(self, name: str) -> Gauge:
        return self._obtain(name, Gauge)

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        return self._obtain(name, Histogram, bounds)

    def observe_span(self, record: Dict[str, Any]) -> None:
        """The tracer's metrics hook: every finished span feeds the
        ``span.<name>`` latency histogram."""
        self.histogram(f"span.{record['name']}").observe(record["dur"])

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's current value, JSON-ready, grouped by kind."""
        with self._lock:
            instruments = list(self._instruments.items())
        view: Dict[str, Dict[str, Any]] = {"gauges": {}, "histograms": {}}
        for name, instrument in sorted(instruments):
            if isinstance(instrument, Gauge):
                view["gauges"][name] = instrument.value
            else:
                view["histograms"][name] = instrument.snapshot()
        return view

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._instruments.clear()


#: The process-wide registry: the tracer's span histograms, the host's
#: in-flight gauges and the loop-lag probe all land here, and the server's
#: ``stats`` op snapshots it.
registry = MetricsRegistry()


async def loop_lag_probe(interval: float = 0.25,
                         metrics: Optional[MetricsRegistry] = None) -> None:
    """Measure event-loop responsiveness forever (run as a task; cancel to
    stop): sleep ``interval`` seconds, record how much later than asked the
    loop actually resumed us — the lag every coroutine on that loop is
    experiencing — as the ``loop.lag`` gauge (latest reading) and the
    ``loop.lag.seconds`` histogram (distribution)."""
    instruments = metrics if metrics is not None else registry
    gauge = instruments.gauge("loop.lag")
    histogram = instruments.histogram("loop.lag.seconds")
    while True:
        before = time.perf_counter()
        await asyncio.sleep(interval)
        lag = max(0.0, time.perf_counter() - before - interval)
        gauge.set(lag)
        histogram.observe(lag)
