"""Naive (enumeration-based) certain answers — the coNP baseline.

Theorem 5.5 proves that ``Certain-Answers(Q)`` is in coNP by showing that a
counterexample solution of polynomial size always exists.  The naive baseline
implemented here makes that bound operational on *small* instances: it
enumerates candidate unordered target trees conforming to the target DTD, up
to a repetition bound per element type and over a finite value pool (source
constants, query constants and a handful of fresh nulls), keeps those that are
solutions, and intersects the query answers over them.

The enumeration is exponential by design — it is the brute-force counterpart
used in the test-suite and the benchmarks to cross-validate the polynomial
canonical-solution algorithm (Lemma 6.5) and to exhibit the tractable /
intractable gap of the dichotomy (Theorem 6.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..patterns.queries import Query
from ..xmlmodel.dtd import DTD
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import Null, Value, is_constant
from .setting import DataExchangeSetting

__all__ = ["NaiveResult", "enumerate_target_trees", "naive_certain_answers"]


@dataclass
class NaiveResult:
    """Outcome of the naive enumeration."""

    has_solution: bool
    answers: Optional[Set[Tuple[Value, ...]]]
    solutions_found: int
    candidates_examined: int
    exhausted: bool  # False if the candidate cap was reached


def enumerate_target_trees(dtd: DTD, value_pool: Sequence[Value],
                           max_repeat: int = 2,
                           max_children_options: int = 2000,
                           max_depth: Optional[int] = None) -> Iterator[XMLTree]:
    """Enumerate unordered trees weakly conforming to ``dtd``.

    Children multiplicities are bounded by ``max_repeat`` per element type and
    every required attribute ranges over ``value_pool``.  Intended for very
    small DTDs.  The generator is lazy, so callers can cap consumption: a
    candidate is built when it is asked for, and only the variant lists of
    the children a candidate combines are materialised — never the list of
    every variant of the root.
    """
    if max_depth is None:
        max_depth = len(dtd.element_types) + 2

    def subtree_variants(label: str, depth: int) -> Iterator[XMLTree]:
        if depth > max_depth:
            return
        analysis = dtd.rule_analysis(label)
        alphabet = sorted(dtd.content_model(label).alphabet())
        # All children count vectors within the repetition bound that lie in π(P(label)).
        vectors = []
        for counts in itertools.product(range(max_repeat + 1), repeat=len(alphabet)):
            vector = {a: c for a, c in zip(alphabet, counts) if c}
            if analysis.permutation_contains(vector):
                vectors.append(vector)
            if len(vectors) >= max_children_options:
                break
        attr_names = sorted(dtd.attributes_of(label))
        attr_choices = list(itertools.product(value_pool, repeat=len(attr_names))) or [()]
        for vector in vectors:
            child_variant_lists = []
            feasible = True
            for symbol in sorted(vector):
                sub = list(subtree_variants(symbol, depth + 1))
                if not sub:
                    feasible = False
                    break
                child_variant_lists.append((symbol, vector[symbol], sub))
            if not feasible:
                continue
            # combinations_with_replacement avoids generating permutations of
            # identical sibling subtrees (the trees are unordered).
            per_symbol_choices = [
                list(itertools.combinations_with_replacement(range(len(sub)), count))
                for _, count, sub in child_variant_lists
            ]
            for combo in itertools.product(*per_symbol_choices) if per_symbol_choices else [()]:
                for attrs in attr_choices:
                    tree = XMLTree(label, ordered=False)
                    for name, value in zip(attr_names, attrs):
                        tree.set_attribute(tree.root, name, value)
                    for (symbol, _count, sub), indices in zip(child_variant_lists, combo):
                        for index in indices:
                            tree.graft_subtree(tree.root, sub[index])
                    yield tree

    yield from subtree_variants(dtd.root, 0)


def naive_certain_answers(setting: DataExchangeSetting, source_tree: XMLTree,
                          query: Query,
                          variable_order: Optional[Sequence[str]] = None,
                          max_repeat: int = 2,
                          extra_nulls: int = 2,
                          max_candidates: int = 200_000) -> NaiveResult:
    """Certain answers by brute-force enumeration of unordered solutions.

    The value pool consists of the source constants, the constants mentioned
    in the query patterns, and ``extra_nulls`` fresh nulls.  Only use on small
    settings — the search space is exponential.
    """
    order = list(variable_order) if variable_order is not None else query.free_variables()
    pool: List[Value] = sorted(source_tree.constants())
    for pattern in query.patterns():
        for sub in pattern.subpatterns():
            attribute = getattr(sub, "attribute", None)
            if attribute is None:
                continue
            for _, term in attribute.assignments:
                if isinstance(term, str) and term not in pool:
                    pool.append(term)
    pool = list(pool) + [Null(900_000 + i) for i in range(extra_nulls)]

    answers: Optional[Set[Tuple[Value, ...]]] = None
    solutions = 0
    examined = 0
    exhausted = True
    for candidate in enumerate_target_trees(setting.target_dtd, pool, max_repeat):
        examined += 1
        if examined > max_candidates:
            exhausted = False
            break
        if not setting.is_unordered_solution(source_tree, candidate):
            continue
        solutions += 1
        tuples = {
            tup for tup in query.answers(candidate, order)
            if all(is_constant(v) for v in tup)
        }
        answers = tuples if answers is None else (answers & tuples)
        if answers is not None and not answers and query.free_variables():
            # The intersection can only shrink; for non-Boolean queries we may
            # stop early once it is empty.
            break
    return NaiveResult(
        has_solution=solutions > 0,
        answers=answers,
        solutions_found=solutions,
        candidates_examined=examined,
        exhausted=exhausted,
    )
