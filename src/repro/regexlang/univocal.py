"""Univocal regular expressions (paper, Section 6 / Definition 6.9).

The dichotomy theorem (Theorem 6.2) classifies data exchange settings by the
class of regular expressions used in the *target* DTD: settings whose target
content models are all *univocal* admit polynomial-time certain-answer
computation, all other admissible classes are strongly coNP-complete.

A regular expression ``r`` is **univocal** iff

1. ``c(r) ≤ 1``, where ``c(r) = max_a c_a(r)`` and ``c_a(r)`` is the largest
   number of ``a``'s in a string of ``fixed_a(r)`` (strings of ``π(r)`` whose
   ``a``-count cannot be increased by any ⪯-extension inside ``π(r)``), and
2. for every string ``w`` with ``rep(w, r) ≠ ∅`` the set of possible repairs
   ``rep(w, r)`` has a maximum with respect to the preorder ``⊑_w``.

This module computes, exactly and from the semilinear representation of
``π(r)`` (:mod:`repro.regexlang.parikh`):

* ``fixed_a`` membership, ``c_a(r)`` and ``c(r)`` (Lemma 6.8 guarantees the
  latter are finite; we use the linear-set analysis described below),
* ``min_ext(w, r)``, ``rep(w, r)`` and the ``⊑_w`` maxima (Section 6.1),
* the univocality test itself.

Deciding condition 2 quantifies over *all* strings ``w``.  The paper reduces
it to Presburger arithmetic (Proposition 6.10) without giving complexity
bounds.  Two shapes are decided by their syntax alone, with no sweep:

* **simple** expressions ``ε`` and ``(a_1|…|a_n)*`` (Section 5.3), whose
  ``π(r)`` holds every vector over ``alph(r)``, so ``c(r) = 0`` and ``w``
  itself is the ⊑_w-maximum of ``rep(w, r)`` whenever that is nonempty;
* **nested-relational** expressions ``ℓ̃_1 … ℓ̃_m`` over pairwise-distinct
  symbols, each ``ℓ̃`` one of ``ℓ``, ``ℓ?``, ``ℓ+``, ``ℓ*``
  (:func:`nested_relational_factors`).

Both are univocal.  For a nested-relational ``r``, ``π(r)`` is a product of
per-symbol count intervals ``[lo_ℓ, cap_ℓ]`` (``ℓ``: [1, 1], ``ℓ?``: [0, 1],
``ℓ+``: [1, ∞), ``ℓ*``: [0, ∞); 0 off ``alph(r)``), so:

* ``c(r) ≤ 1``.  An unbounded symbol can always gain one more occurrence,
  so its ``fixed_a(r)`` is empty; only ``ℓ`` and ``ℓ?`` are bounded, and
  both at 1.
* Every ``min_ext(w', r)`` is a single vector, ``max(w'_ℓ, lo_ℓ)`` per
  symbol, or empty (``w'`` exceeds some ``cap_ℓ`` or leaves ``alph(r)``).
* Let ``w*_a = min(w_a, cap_a)`` on ``alph(w)``: the top corner among the
  ``w' ⪯ w`` with ``alph(w') = alph(w)``.  If ``rep(w, r) ≠ ∅`` then
  ``m* = min_ext(w*, r)`` exists and is ⊑_w-above every ``m = min_ext(w',
  r)`` in ``rep(w, r)``: on ``b ∈ alph(w)``, ``m*_b = max(w*_b, lo_b) ≥
  max(w'_b, lo_b) = m_b``, and off ``alph(w)`` both equal ``lo``, so
  condition (2) of ⊑_w holds with equality.

Every other shape pays a bounded sweep: ``c(r) ≤ 1``, then a ⊑_w-maximum
of ``rep(w, r)`` for all Parikh vectors with support in ``alph(r)`` and
counts up to a bound derived from the semilinear representation (every
base and period entry plus a safety margin).  The bound can be raised by
the caller.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .ast import Concat, Epsilon, Regex, Star, Symbol, Union
from .parikh import CountVector, parikh_vector, semilinear_of

__all__ = [
    "RegexAnalysis", "analyse", "c_value", "is_univocal", "is_simple_regex",
    "nested_relational_factors", "repairs", "max_repairs", "maximum_of",
    "maxima_of", "preorder_leq",
]


def is_simple_regex(expr: Regex) -> bool:
    """Simple regular expressions (Section 5.3): ``ε`` or ``(a_1|…|a_n)*``
    with pairwise distinct symbols.  Every simple expression is univocal."""
    if isinstance(expr, Epsilon):
        return True
    if isinstance(expr, Star):
        symbols = _union_of_symbols(expr.inner)
        return symbols is not None and len(symbols) == len(set(symbols))
    return False


def _union_of_symbols(expr: Regex) -> Optional[List[str]]:
    if isinstance(expr, Symbol):
        return [expr.name]
    if isinstance(expr, Union):
        left = _union_of_symbols(expr.left)
        right = _union_of_symbols(expr.right)
        if left is None or right is None:
            return None
        return left + right
    return None


def nested_relational_factors(model: Regex) -> Optional[List[Tuple[str, str]]]:
    """If ``model`` has the nested-relational shape ``l̃_1 … l̃_m`` with
    pairwise distinct symbols, return the list of ``(symbol, quantifier)``
    pairs with quantifier in ``{"1", "?", "*", "+"}``; otherwise ``None``.
    Every such expression is univocal (see the module docstring)."""
    flat = _flatten_concat(model)
    factors: List[Tuple[str, str]] = []
    index = 0
    while index < len(flat):
        part = flat[index]
        if isinstance(part, Symbol):
            # ``l`` or, if followed by ``l*``, the expansion of ``l+``.
            if (index + 1 < len(flat) and isinstance(flat[index + 1], Star)
                    and isinstance(flat[index + 1].inner, Symbol)
                    and flat[index + 1].inner.name == part.name):
                factors.append((part.name, "+"))
                index += 2
                continue
            factors.append((part.name, "1"))
            index += 1
            continue
        if isinstance(part, Star) and isinstance(part.inner, Symbol):
            factors.append((part.inner.name, "*"))
            index += 1
            continue
        if isinstance(part, Union):
            symbol = _optional_symbol(part)
            if symbol is not None:
                factors.append((symbol, "?"))
                index += 1
                continue
        if isinstance(part, Epsilon):
            index += 1
            continue
        return None
    symbols = [s for s, _ in factors]
    if len(symbols) != len(set(symbols)):
        return None
    return factors


def _flatten_concat(model: Regex) -> List[Regex]:
    if isinstance(model, Concat):
        return _flatten_concat(model.left) + _flatten_concat(model.right)
    if isinstance(model, Epsilon):
        return []
    return [model]


def _optional_symbol(model: Union) -> Optional[str]:
    left, right = model.left, model.right
    if isinstance(left, Epsilon) and isinstance(right, Symbol):
        return right.name
    if isinstance(right, Epsilon) and isinstance(left, Symbol):
        return left.name
    return None


# --------------------------------------------------------------------- #
# The ⊑_w preorder (Section 6.1)
# --------------------------------------------------------------------- #

def preorder_leq(w1: Mapping[str, int], w2: Mapping[str, int],
                 w: Mapping[str, int]) -> bool:
    """``w1 ⊑_w w2``: (1) ``#b(w2) ≥ min(#b(w1), #b(w))`` for all ``b ∈ alph(w)``
    and (2) ``alph(w2) \\ alph(w) ⊆ alph(w1) \\ alph(w)``."""
    alph_w = {s for s, c in w.items() if c}
    for symbol in alph_w:
        if w2.get(symbol, 0) < min(w1.get(symbol, 0), w[symbol]):
            return False
    extra_w2 = {s for s, c in w2.items() if c} - alph_w
    extra_w1 = {s for s, c in w1.items() if c} - alph_w
    return extra_w2 <= extra_w1


def maximum_of(reps: Sequence[CountVector],
               w: Mapping[str, int]) -> Optional[CountVector]:
    """The first ⊑_w-maximum of ``reps`` in list order, or ``None``.

    ⊑_w is a preorder, so two linear passes replace the all-pairs test.  A
    running candidate, replaced only by an element not below it, stops at
    the first maximum and keeps it: every earlier candidate is a
    non-maximum, and a maximum below it would make it one.  The second
    pass confirms that the candidate is above every element.
    """
    if not reps:
        return None
    best = reps[0]
    for candidate in reps[1:]:
        if not preorder_leq(candidate, best, w):
            best = candidate
    if all(preorder_leq(other, best, w) for other in reps):
        return best
    return None


def maxima_of(reps: Sequence[CountVector],
              w: Mapping[str, int]) -> List[CountVector]:
    """The ⊑_w-maximal elements of ``reps``: no element is strictly above."""
    return [candidate for candidate in reps
            if not any(preorder_leq(candidate, other, w)
                       and not preorder_leq(other, candidate, w)
                       for other in reps)]


class RegexAnalysis:
    """Bundles the semilinear representation of ``π(r)`` with the univocality
    machinery, so that a DTD rule analysed once can be reused by the chase."""

    def __init__(self, expr: Regex, univocality_bound: Optional[int] = None) -> None:
        self.expr = expr
        self.semilinear = semilinear_of(expr)
        self.alphabet = sorted(expr.alphabet())
        self._bound = univocality_bound
        self._c_values: Dict[str, int] = {}
        self._univocal: Optional[bool] = None

    # -- π(r) membership ------------------------------------------------ #

    def permutation_contains(self, word_or_vector) -> bool:
        """Membership in ``π(r)`` of a word (sequence) or a Parikh vector."""
        vector = self._as_vector(word_or_vector)
        return self.semilinear.contains(vector)

    @staticmethod
    def _as_vector(word_or_vector) -> CountVector:
        if isinstance(word_or_vector, Mapping):
            return {s: c for s, c in word_or_vector.items() if c}
        return parikh_vector(word_or_vector)

    # -- fixed_a / c_a / c ----------------------------------------------- #

    def c_a(self, symbol: str) -> int:
        """``c_a(r)`` of Lemma 6.8 (0 when ``fixed_a(r)`` is empty)."""
        if symbol in self._c_values:
            return self._c_values[symbol]
        best = 0
        for ls in self.semilinear.linear_sets:
            periods = ls.period_vectors()
            if any(p.get(symbol, 0) for p in periods):
                continue  # every member can still gain more of ``symbol``
            if self._has_fixed_member(ls, symbol):
                best = max(best, ls.base_vector().get(symbol, 0))
        self._c_values[symbol] = best
        return best

    def _has_fixed_member(self, ls, symbol: str) -> bool:
        """Does the (symbol-bounded) linear set contain a member of
        ``fixed_symbol(r)``?

        A member ``v`` fails to be fixed iff some linear set of ``π(r)``
        contains ``v' ≥ v`` with strictly more occurrences of ``symbol``.
        Taking the period multiplicities of ``ls`` arbitrarily large produces
        the hardest-to-dominate member, and domination of that member reduces
        to period-coverage conditions (see the module docstring of
        :mod:`repro.regexlang.parikh`).
        """
        base = ls.base_vector()
        unbounded = set()
        for period in ls.period_vectors():
            unbounded |= {s for s, c in period.items() if c}
        required = {s: c for s, c in base.items() if c and s not in unbounded}
        required[symbol] = base.get(symbol, 0) + 1
        for other in self.semilinear.linear_sets:
            other_base = other.base_vector()
            other_periods = other.period_vectors()
            covers_unbounded = all(
                any(p.get(s, 0) for p in other_periods) for s in unbounded
            )
            if not covers_unbounded:
                continue
            covers_required = True
            for sym, count in required.items():
                deficit = count - other_base.get(sym, 0)
                if deficit > 0 and not any(p.get(sym, 0) for p in other_periods):
                    covers_required = False
                    break
            if covers_required:
                return False
        return True

    def c_value(self) -> int:
        """``c(r) = max_a c_a(r)`` over ``alph(r)``."""
        if not self.alphabet:
            return 0
        return max(self.c_a(symbol) for symbol in self.alphabet)

    def fixed_witness(self, symbol: str) -> Optional[CountVector]:
        """A concrete Parikh vector ``w ∈ fixed_symbol(r)`` with
        ``#symbol(w) = c_symbol(r)``, or ``None`` when ``fixed_symbol(r)`` is
        empty.  Used by the Lemma 6.20 hardness gadget, which needs an actual
        string ``w = a^k a_1 … a_ℓ`` of ``fixed_a(r)``.

        The witness is the base of an undominated symbol-bounded linear set,
        pumped on all its periods often enough that no other linear set can
        dominate it with a strictly larger ``symbol`` count.
        """
        target_count = self.c_a(symbol)
        if target_count == 0 and not any(
                ls.base_vector().get(symbol, 0) == 0 and self._has_fixed_member(ls, symbol)
                and not any(p.get(symbol, 0) for p in ls.period_vectors())
                for ls in self.semilinear.linear_sets):
            return None
        pump = 1 + max((count for ls in self.semilinear.linear_sets
                        for count in ls.base_vector().values()), default=0)
        for ls in self.semilinear.linear_sets:
            if any(p.get(symbol, 0) for p in ls.period_vectors()):
                continue
            if ls.base_vector().get(symbol, 0) != target_count:
                continue
            if not self._has_fixed_member(ls, symbol):
                continue
            witness = dict(ls.base_vector())
            for period in ls.period_vectors():
                for sym, count in period.items():
                    witness[sym] = witness.get(sym, 0) + pump * count
            return {s: c for s, c in witness.items() if c}
        return None

    # -- rep(w, r) and its maxima ---------------------------------------- #

    def min_ext(self, w: Mapping[str, int]) -> List[CountVector]:
        """``min_ext(w, r)``: ⪯-minimal members of ``π(r)`` dominating ``w``."""
        return self.semilinear.minimal_ge(w)

    def repairs(self, w) -> List[CountVector]:
        """``rep(w, r)``: union of ``min_ext(w', r)`` over all ``w' ⪯ w`` with
        ``alph(w') = alph(w)`` (Section 6.1)."""
        vector = self._as_vector(w)
        support = sorted(s for s, c in vector.items() if c)
        if not support:
            return self.min_ext({})
        ranges = [range(1, vector[s] + 1) for s in support]
        collected: List[CountVector] = []
        seen = set()
        for counts in itertools.product(*ranges):
            sub = dict(zip(support, counts))
            for ext in self.min_ext(sub):
                key = tuple(sorted(ext.items()))
                if key not in seen:
                    seen.add(key)
                    collected.append(ext)
        return collected

    def max_repairs(self, w) -> List[CountVector]:
        """The ⊑_w-maximal elements of ``rep(w, r)`` (ChangeReg's candidates)."""
        vector = self._as_vector(w)
        return maxima_of(self.repairs(vector), vector)

    def has_max_repair(self, w) -> bool:
        """Does ``rep(w, r)`` have a ⊑_w-*maximum* (an element above all others)?"""
        vector = self._as_vector(w)
        reps = self.repairs(vector)
        # Vacuously so when rep = ∅: the condition only applies when rep ≠ ∅.
        return not reps or maximum_of(reps, vector) is not None

    def maximum_repair(self, w) -> Optional[CountVector]:
        """The ⊑_w-maximum of ``rep(w, r)`` if it exists, else ``None``."""
        vector = self._as_vector(w)
        return maximum_of(self.repairs(vector), vector)

    # -- univocality ------------------------------------------------------ #

    def default_bound(self) -> int:
        """Count bound used for the bounded univocality sweep."""
        if self._bound is not None:
            return self._bound
        largest = 1
        for ls in self.semilinear.linear_sets:
            for vec in [ls.base_vector()] + ls.period_vectors():
                for count in vec.values():
                    largest = max(largest, count)
        return largest + 2

    def is_univocal(self, bound: Optional[int] = None) -> bool:
        """Definition 6.9: ``c(r) ≤ 1`` and every ``rep(w, r) ≠ ∅`` has a
        ⊑_w-maximum.  The module docstring lists the shapes decided by
        syntax; every other shape pays the bounded sweep."""
        if self._univocal is not None and bound is None:
            return self._univocal
        result = self._decide_univocal(bound)
        if bound is None:
            self._univocal = result
        return result

    def _decide_univocal(self, bound: Optional[int]) -> bool:
        # Simple and nested-relational expressions are univocal by their
        # shape (module docstring); only the other shapes pay the sweep.
        if (is_simple_regex(self.expr)
                or nested_relational_factors(self.expr) is not None):
            return True
        if self.c_value() > 1:
            return False
        limit = bound if bound is not None else self.default_bound()
        symbols = self.alphabet
        if not symbols:
            return True
        if not self.has_max_repair({}):
            return False
        for support_size in range(1, len(symbols) + 1):
            for support in itertools.combinations(symbols, support_size):
                for counts in itertools.product(range(1, limit + 1),
                                                repeat=support_size):
                    w = dict(zip(support, counts))
                    if not self.has_max_repair(w):
                        return False
        return True


# --------------------------------------------------------------------- #
# Module-level convenience wrappers
# --------------------------------------------------------------------- #

_ANALYSIS_CACHE: Dict[Regex, RegexAnalysis] = {}


def analyse(expr: Regex) -> RegexAnalysis:
    """Return (and cache) the :class:`RegexAnalysis` of an expression."""
    if expr not in _ANALYSIS_CACHE:
        _ANALYSIS_CACHE[expr] = RegexAnalysis(expr)
    return _ANALYSIS_CACHE[expr]


def c_value(expr: Regex) -> int:
    """``c(r)`` (Lemma 6.8)."""
    return analyse(expr).c_value()


def is_univocal(expr: Regex, bound: Optional[int] = None) -> bool:
    """Decide whether ``expr`` is univocal (Definition 6.9 / Proposition 6.10)."""
    return analyse(expr).is_univocal(bound)


def repairs(word, expr: Regex) -> List[CountVector]:
    """``rep(w, r)`` as count vectors."""
    return analyse(expr).repairs(word)


def max_repairs(word, expr: Regex) -> List[CountVector]:
    """The ⊑_w-maximal elements of ``rep(w, r)``."""
    return analyse(expr).max_repairs(word)
