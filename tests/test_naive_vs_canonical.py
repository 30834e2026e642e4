"""Cross-validation: brute-force certain answers vs the canonical solution.

Theorem 5.5 (coNP upper bound) guarantees that small counterexample solutions
suffice; Lemma 6.5 says that for univocal target DTDs the canonical solution
characterises certain answers.  On settings small enough for exhaustive
enumeration the two procedures must agree — this is experiment E8.
"""

import pytest

from repro.exchange import (DataExchangeSetting, certain_answers,
                            naive_certain_answers, enumerate_target_trees, std)
from repro.patterns import exists, parse_pattern, pattern_query
from repro.xmlmodel import DTD, XMLTree


@pytest.fixture
def tiny_setting():
    """A two-element-type target with a required C→D chain (Figure 6 shape)."""
    source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
    target_dtd = DTD("r", {"r": "B* C?", "B": "", "C": ""},
                     {"B": ["m"], "C": ["n"]})
    dependency = std("r[B(@m=x)]", "A(@a=x)")
    return DataExchangeSetting(source_dtd, target_dtd, [dependency])


def test_enumeration_produces_only_weakly_conforming_trees(tiny_setting):
    trees = list(enumerate_target_trees(tiny_setting.target_dtd, ["1"], max_repeat=1))
    assert trees
    assert all(tiny_setting.target_dtd.weakly_conforms(t) for t in trees)


def test_naive_agrees_with_canonical_on_unary_query(tiny_setting):
    source = XMLTree.build(("r", [("A", {"a": "1"}), ("A", {"a": "2"})]))
    query = pattern_query(parse_pattern("r[B(@m=x)]"))
    canonical = certain_answers(tiny_setting, source, query)
    naive = naive_certain_answers(tiny_setting, source, query, max_repeat=2)
    assert canonical.has_solution and naive.has_solution
    assert naive.answers == canonical.answers == {("1",), ("2",)}


def test_naive_agrees_on_boolean_query(tiny_setting):
    source = XMLTree.build(("r", [("A", {"a": "1"})]))
    # "is there a C node with some value?" — never certain: a solution without
    # a C node exists (C is optional), and even with one its value is a null.
    query = exists(["x"], pattern_query(parse_pattern("r[C(@n=x)]")))
    canonical = certain_answers(tiny_setting, source, query)
    naive = naive_certain_answers(tiny_setting, source, query, max_repeat=1)
    assert canonical.certain() is False
    assert naive.answers == set() == canonical.answers


def test_naive_agrees_on_positive_boolean_query(tiny_setting):
    source = XMLTree.build(("r", [("A", {"a": "1"})]))
    query = exists(["x"], pattern_query(parse_pattern("r[B(@m=x)]")))
    canonical = certain_answers(tiny_setting, source, query)
    naive = naive_certain_answers(tiny_setting, source, query, max_repeat=1)
    assert canonical.certain() is True
    assert naive.answers == {()}


def test_naive_detects_unsolvable_settings():
    source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
    target_dtd = DTD("r", {"r": "B", "B": ""}, {"B": ["m"]})
    setting = DataExchangeSetting(source_dtd, target_dtd,
                                  [std("r[B(@m=x)]", "A(@a=x)")])
    source = XMLTree.build(("r", [("A", {"a": "1"}), ("A", {"a": "2"})]))
    query = pattern_query(parse_pattern("B(@m=x)"))
    canonical = certain_answers(setting, source, query)
    naive = naive_certain_answers(setting, source, query, max_repeat=2)
    assert not canonical.has_solution
    assert not naive.has_solution


def test_enumeration_builds_a_candidate_only_when_asked(monkeypatch):
    """3,375 root variants (15 choices for each of a, b and c), but the
    first candidate costs a few trees, not all of them."""
    dtd = DTD("r", {"r": "a* b* c*", "a": "", "b": "", "c": ""},
              {"a": ["x"], "b": ["x"], "c": ["x"]})
    built = [0]
    init = XMLTree.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(XMLTree, "__init__", counting_init)
    candidates = enumerate_target_trees(dtd, ["1", "2", "3", "4"],
                                        max_repeat=2)
    next(candidates)
    assert built[0] <= 5
    assert 1 + sum(1 for _ in candidates) == 15 ** 3


def test_naive_certain_answers_shrink_with_more_solutions(tiny_setting):
    """The intersection over more solutions can only lose tuples — sanity check
    of the certain-answer semantics itself."""
    source = XMLTree.build(("r", [("A", {"a": "1"})]))
    query = pattern_query(parse_pattern("r[_(@m=x)]"))
    naive = naive_certain_answers(tiny_setting, source, query, max_repeat=2)
    canonical = certain_answers(tiny_setting, source, query)
    assert naive.answers == canonical.answers == {("1",)}
