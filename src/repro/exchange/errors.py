"""Shared exception hierarchy for the exchange pipeline.

All failures that the pipeline can signal derive from :class:`ExchangeError`,
so callers can guard a whole request with a single ``except``.  The concrete
classes additionally inherit from the builtin each of them historically
subclassed (``RuntimeError`` / ``ValueError``), so existing ``except``
clauses keep working.
"""

from __future__ import annotations

__all__ = ["ExchangeError", "ChaseError", "NoSolutionError",
           "ConsistencyUndecidedError"]


class ExchangeError(Exception):
    """Base class for every error raised by the exchange pipeline."""


class ChaseError(ExchangeError, RuntimeError):
    """Raised when a canonical solution is asked for outside the chase's
    class ``C_U`` — a target DTD that is not univocal (Theorem 6.2), or a
    ChangeReg step with no canonical repair — *not* when the chase
    legitimately fails: failures are reported in the result."""


class NoSolutionError(ExchangeError, ValueError):
    """Raised when certain answers are requested for a source tree that has
    no solution: the intersection over an empty set of solutions is undefined,
    so consistency should be checked first (Lemma 6.15 b)."""


class ConsistencyUndecidedError(ExchangeError, RuntimeError):
    """Raised when a consistency check cannot prove "inconsistent" (Section
    4): the ⪯-minimal source-skeleton enumeration stopped at its tree or
    depth bound, or a source pattern repeats a variable or fixes a
    constant, outside the proviso under which Claim 4.2's attribute-erased
    test is exact.  A "consistent" verdict is never refused: its witness
    is a proof."""
