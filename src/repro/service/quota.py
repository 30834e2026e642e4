"""Admission control for the serving layer: quotas, typed rejections.

A :class:`QuotaPolicy` declares how much work the serving layer may *accept*
— as opposed to the cache bounds (``max_compiled``,
``result_cache_maxsize``), which declare how much accepted work it may
*remember*.  Over-quota work is rejected immediately with a typed
:class:`QuotaExceededError` instead of queueing without bound, so a
saturated tenant observes a deterministic, retryable failure rather than
unbounded latency — and can never starve its neighbours' slots.

The two knobs:

``max_in_flight``
    Per-setting ceiling on requests admitted but not yet completed.  Counted
    at admission time (when a request is submitted / a batch slot is
    accepted), not at execution time — the executor's queue is exactly the
    unbounded buffer the quota exists to replace.
``max_registered``
    Ceiling on distinct settings a registry will admit.  Re-registering an
    already-known fingerprint is always allowed (it is a no-op).

The bound on concurrently compiled settings is the registry's
``max_compiled``: an LRU that evicts rather than rejects, since eviction is a
performance event, never a correctness event.

:class:`QuotaExceededError` travels over the JSON-lines wire by class name
(see :mod:`repro.service.protocol`) and re-raises client-side as itself, so
``except QuotaExceededError`` works identically against a local
:class:`~repro.service.AsyncExchangeService` and a remote server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exchange.errors import ExchangeError

__all__ = ["QuotaPolicy", "QuotaExceededError"]


class QuotaExceededError(ExchangeError, RuntimeError):
    """A request (or registration) was rejected by a :class:`QuotaPolicy`.

    Carries the quota ``kind`` (``"in_flight"`` / ``"registered"``), the
    ``fingerprint`` it applied to (``None`` for registry-wide quotas) and the
    ``limit`` that was hit — when constructed locally.  Rebuilt from the wire
    it carries the rendered message only.
    """

    def __init__(self, message: str, *, kind: Optional[str] = None,
                 fingerprint: Optional[str] = None,
                 limit: Optional[int] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.fingerprint = fingerprint
        self.limit = limit


@dataclass(frozen=True)
class QuotaPolicy:
    """Declarative admission limits for a registry / service (see module
    docs).  ``None`` disables the corresponding limit."""

    max_in_flight: Optional[int] = None
    max_registered: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_in_flight", "max_registered"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be a positive integer or "
                                 f"None (unlimited), got {value!r}")

    def reject_in_flight(self, fingerprint: str) -> QuotaExceededError:
        assert self.max_in_flight is not None
        return QuotaExceededError(
            f"in-flight quota exceeded for setting {fingerprint[:16]}…: "
            f"at most {self.max_in_flight} request(s) may be admitted at "
            f"once (retry when earlier requests complete)",
            kind="in_flight", fingerprint=fingerprint,
            limit=self.max_in_flight)

    def reject_registered(self) -> QuotaExceededError:
        assert self.max_registered is not None
        return QuotaExceededError(
            f"registration quota exceeded: at most {self.max_registered} "
            f"distinct setting(s) may be registered",
            kind="registered", limit=self.max_registered)
