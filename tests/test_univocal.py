"""Tests for fixed_a(r), c(r), rep(w, r), ⊑_w and univocality (Section 6)."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import DTD_PROFILES, generate_dtd
from repro.regexlang import (RegexAnalysis, analyse, c_value, is_simple_regex,
                             is_univocal, max_repairs, maximum_of,
                             nested_relational_factors, parse_regex,
                             preorder_leq, repairs)

_UNIVOCAL = [
    "b c+ d* e?",      # paper example
    "(b*|c*)",         # paper example
    "(b c)* (d e)*",   # paper example
    "(a|b|c)*",        # simple
    "",                # ε
    "a? b* c+ d",      # nested-relational shape
]

_NON_UNIVOCAL_C2 = [
    "a | a a b*",      # c(r) = 2
    "a a b*",          # c(r) = 2
    "a a",             # c(r) = 2
]


class TestCValue:
    def test_paper_example_a_or_aab_star(self):
        # The paper: c_a(a | aab*) = 2, c_b(a | aab*) = 0, so c = 2.
        analysis = analyse(parse_regex("a | a a b*"))
        assert analysis.c_a("a") == 2
        assert analysis.c_a("b") == 0
        assert analysis.c_value() == 2

    def test_simple_regexes_have_c_zero(self):
        assert c_value(parse_regex("(a|b|c)*")) == 0

    def test_required_single_occurrence(self):
        # b c+ d* e? : every symbol's maximal fixed count is ≤ 1.
        assert c_value(parse_regex("b c+ d* e?")) == 1

    def test_exactly_two_required(self):
        assert c_value(parse_regex("a a b*")) == 2

    def test_fixed_witness(self):
        analysis = analyse(parse_regex("a | a a b*"))
        witness = analysis.fixed_witness("a")
        assert witness is not None and witness["a"] == 2
        assert analysis.permutation_contains(witness)

    def test_c_value_finite_lemma_6_8(self):
        # Lemma 6.8: c(r) is finite for every r — spot-check a few expressions.
        for text in ["(a b)*", "a+ b+", "(a|b)* c c", "a a a | a*"]:
            assert c_value(parse_regex(text)) >= 0


class TestPreorder:
    def test_paper_example_ccdd_preferred_to_cd(self):
        # rep(cc, (cd)*(cde)*) contains ccdd and cd; ccdd is preferred (⊑_w).
        w = {"c": 2}
        assert preorder_leq({"c": 1, "d": 1}, {"c": 2, "d": 2}, w)
        assert not preorder_leq({"c": 2, "d": 2}, {"c": 1, "d": 1}, w)

    def test_ccdd_preferred_to_ccdde(self):
        w = {"c": 2}
        assert preorder_leq({"c": 2, "d": 2, "e": 1}, {"c": 2, "d": 2}, w)
        assert not preorder_leq({"c": 2, "d": 2}, {"c": 2, "d": 2, "e": 1}, w)


class TestRepairs:
    def test_example_6_13_rep_bb(self):
        # rep(BB, (BC)*) = min_ext(B,·) ∪ min_ext(BB,·) = {BC} ∪ {BBCC} as vectors.
        expr = parse_regex("(B C)*")
        result = repairs(["B", "B"], expr)
        as_sets = {tuple(sorted(v.items())) for v in result}
        assert (("B", 1), ("C", 1)) in as_sets
        assert (("B", 2), ("C", 2)) in as_sets
        # The ⊑_BB-maximum is BBCC (no merging, nothing extra).
        maxima = max_repairs(["B", "B"], expr)
        assert {tuple(sorted(v.items())) for v in maxima} == {(("B", 2), ("C", 2))}

    def test_rep_of_conforming_word_contains_itself(self):
        expr = parse_regex("(B C)*")
        result = repairs(["B", "C"], expr)
        assert any(v == {"B": 1, "C": 1} for v in result)

    def test_rep_paper_example_cc(self):
        expr = parse_regex("(c d)* (c d e)*")
        result = repairs(["c", "c"], expr)
        vectors = {tuple(sorted(v.items())) for v in result}
        assert (("c", 2), ("d", 2)) in vectors
        assert (("c", 1), ("d", 1)) in vectors
        maxima = max_repairs(["c", "c"], expr)
        assert {tuple(sorted(v.items())) for v in maxima} == {(("c", 2), ("d", 2))}

    def test_rep_empty_when_unrepairable(self):
        # R(b c+): two b's can only merge; rep(bb, bc+) = min_ext(b, bc+) ≠ ∅,
        # but for a DTD forbidding b entirely rep is empty.
        expr = parse_regex("c+")
        assert repairs(["b", "b"], expr) == []


class TestUnivocality:
    @pytest.mark.parametrize("pattern", _UNIVOCAL)
    def test_univocal_examples(self, pattern):
        assert is_univocal(parse_regex(pattern))

    @pytest.mark.parametrize("pattern", _NON_UNIVOCAL_C2)
    def test_non_univocal_because_c_at_least_two(self, pattern):
        assert not is_univocal(parse_regex(pattern))

    def test_bbc_star_has_c_zero_and_is_univocal(self):
        # Every member of π((bbc)*) can gain further b's, so fixed_b is empty,
        # c(r) = 0, and all repair sets have ⊑_w-maxima.
        expr = parse_regex("(b b c)*")
        assert c_value(expr) == 0
        assert is_univocal(expr)

    def test_non_univocal_because_no_maximum_repair(self):
        # rep(ε, a|b) = {a, b} has two ⊑-maximal, incomparable elements.
        expr = parse_regex("a | b")
        assert analyse(expr).c_value() <= 1
        assert not is_univocal(expr)

    def test_simple_regex_detection(self):
        assert is_simple_regex(parse_regex("(a|b|c)*"))
        assert is_simple_regex(parse_regex(""))
        # (a_1 | … | a_n)* requires pairwise-distinct symbols.
        assert not is_simple_regex(parse_regex("(a|a)*"))
        # a* is the n = 1 instance of the simple shape.
        assert is_simple_regex(parse_regex("a*"))
        assert not is_simple_regex(parse_regex("a b*"))

    def test_maximum_repair_used_by_change_reg(self):
        expr = parse_regex("(B C)*")
        analysis = analyse(expr)
        assert analysis.maximum_repair({"B": 2}) == {"B": 2, "C": 2}
        assert analysis.maximum_repair({}) == {}
        assert analysis.has_max_repair({"B": 3})


# --------------------------------------------------------------------- #
# The shape test against the bounded sweep
# --------------------------------------------------------------------- #

def _swept_verdict(expr, bound=None):
    """Reference oracle: Definition 6.9 decided by the bounded sweep alone,
    with no shape shortcut.  ``c(r) ≤ 1``, then an all-pairs ⊑_w-maximum
    test of ``rep(w, r)`` for every vector with support in ``alph(r)`` and
    counts up to the bound (``default_bound()`` unless given).  ``min_ext``
    is memoised per vector, since the sweep asks it the same sub-vectors
    again and again; it is a pure function of the vector."""
    analysis = RegexAnalysis(expr)
    if analysis.c_value() > 1:
        return False
    symbols = analysis.alphabet
    if not symbols:
        return True
    limit = bound if bound is not None else analysis.default_bound()
    memo = {}
    min_ext = analysis.min_ext

    def memo_min_ext(w):
        key = tuple(sorted(w.items()))
        if key not in memo:
            memo[key] = min_ext(w)
        return memo[key]

    analysis.min_ext = memo_min_ext

    def has_maximum(w):
        reps = analysis.repairs(w)
        return not reps or any(all(preorder_leq(other, candidate, w)
                                   for other in reps)
                               for candidate in reps)

    return has_maximum({}) and all(
        has_maximum(dict(zip(support, counts)))
        for size in range(1, len(symbols) + 1)
        for support in itertools.combinations(symbols, size)
        for counts in itertools.product(range(1, limit + 1), repeat=size))


_QUANTIFIERS = ("", "?", "+", "*")


def _nested_relational_shapes():
    """Width 1–5, every rotation of the four quantifiers (widths ≥ 4 use
    all four), explicit bounds 1–4.  Widths 4 and 5 stop at bounds 3 and
    2: the oracle's sweep grows exponentially with width."""
    for width in range(1, 6):
        for rotation in range(len(_QUANTIFIERS)):
            text = " ".join(
                f"l{i}{_QUANTIFIERS[(i + rotation) % len(_QUANTIFIERS)]}"
                for i in range(width))
            for bound in range(1, min(4, 7 - width) + 1):
                yield text, bound


def _canonical(model):
    """The model's text with element types renamed in order of first
    occurrence.  Univocality, the sweep and the shape test are all
    invariant under renaming, so one check per canonical shape covers
    every model of that shape."""
    names = {}
    return re.sub(r"\be\d+\b",
                  lambda m: names.setdefault(m.group(0), f"x{len(names)}"),
                  str(model))


class TestShapeDecision:
    @pytest.mark.parametrize("pattern", _UNIVOCAL + _NON_UNIVOCAL_C2
                             + ["(b b c)*", "a | b"])
    def test_paper_patterns_agree_with_the_sweep(self, pattern):
        expr = parse_regex(pattern)
        assert RegexAnalysis(expr).is_univocal() == _swept_verdict(expr)

    @pytest.mark.parametrize("text,bound", list(_nested_relational_shapes()))
    def test_nested_relational_shapes_agree_with_the_sweep(self, text, bound):
        expr = parse_regex(text)
        assert nested_relational_factors(expr) is not None
        assert RegexAnalysis(expr).is_univocal(bound) is True
        assert _swept_verdict(expr, bound) is True

    @pytest.mark.parametrize("profile", DTD_PROFILES)
    def test_generated_content_models_agree_with_the_sweep(self, profile):
        shapes = {_canonical(model)
                  for seed in range(20)
                  for model in generate_dtd(seed, profile).dtd.rules.values()}
        for text in sorted(shapes):
            expr = parse_regex(text)
            assert str(expr) == text
            assert RegexAnalysis(expr).is_univocal() == _swept_verdict(expr), text

    @staticmethod
    def _count_min_ext(monkeypatch, text):
        analysis = RegexAnalysis(parse_regex(text))
        calls = []
        original = analysis.min_ext

        def counting(w):
            calls.append(w)
            return original(w)

        monkeypatch.setattr(analysis, "min_ext", counting)
        return analysis, calls

    @pytest.mark.parametrize("text", ["a? b* c+ d", "b c+ d* e?", "a",
                                      "a b c d e", "a* b*"])
    def test_nested_relational_shape_skips_the_sweep(self, monkeypatch, text):
        analysis, calls = self._count_min_ext(monkeypatch, text)
        assert analysis.is_univocal()
        assert calls == []

    @pytest.mark.parametrize("text", ["(b c)* (d e)*", "(b*|c*)"])
    def test_other_shapes_still_sweep(self, monkeypatch, text):
        analysis, calls = self._count_min_ext(monkeypatch, text)
        assert nested_relational_factors(parse_regex(text)) is None
        assert analysis.is_univocal()
        assert calls


# --------------------------------------------------------------------- #
# maximum_of: one pass over rep(w, r), same choice as the all-pairs loop
# --------------------------------------------------------------------- #

def _loop_maximum(reps, w):
    """The all-pairs loop ``maximum_repair`` ran before ``maximum_of``."""
    for candidate in reps:
        if all(preorder_leq(other, candidate, w) for other in reps):
            return candidate
    return None


_VECTORS = st.dictionaries(st.sampled_from("abc"), st.integers(1, 3),
                           max_size=3)


@st.composite
def _repair_lists(draw):
    w = draw(_VECTORS)
    pool = draw(st.lists(_VECTORS, min_size=1, max_size=4))
    # A twin raises every count already at #b(w) or above for b ∈ alph(w):
    # ⊑_w-equivalent to the original, but a different vector.
    twins = [{s: c + 1 if s in w and c >= w[s] else c for s, c in v.items()}
             for v in pool]
    # Copies of the same dicts make duplicates.
    reps = draw(st.lists(st.sampled_from(pool + twins), max_size=10))
    return reps, w


@settings(max_examples=200, deadline=None)
@given(case=_repair_lists())
def test_maximum_of_matches_the_all_pairs_loop(case):
    reps, w = case
    assert maximum_of(reps, w) is _loop_maximum(reps, w)
