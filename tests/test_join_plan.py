"""The plan evaluator: adversarial shapes, row order, bind caching and
the accounting/plumbing around it.

The generated property sweep (tests/test_properties_generated.py) checks
plans against the interpreter across hundreds of scenarios, but its
queries are linear root-down paths — no ``//``, no wildcard.  This file
attacks exactly the shapes the sweep cannot reach: nested descendant
chains, descendant arms under branching nodes, wildcard ops seeded from
attribute tables, empty ``nodes_by_label`` seeds, union arms of mixed
selectivity and a deep narrow chain — each checked against the
interpreter.  Interpreter parity only compares row *sets*; the chase's
null allocation depends on the row *order*, which ``TestRowOrderLock``
pins.
"""

import copyreg
import hashlib
import pickle
import random

import pytest

from repro import ExchangeEngine, XMLTree
from repro.engine.stats import CacheStats
from repro.exchange import canonical_solution
from repro.exchange.chase import ChaseResult
from repro.generators import SCENARIO_PROFILES, generate_scenario
from repro.patterns import (assignment_key, compile_pattern, compile_query,
                            descendant, match_anywhere, node, pattern_query,
                            union_query, wildcard)
from repro.patterns.plan import PatternPlan
from repro.storage.encoding import decode_document, encode_document
from repro.workloads import library


def _random_tree(seed: int, size: int = 60) -> XMLTree:
    """A skewed random tree: 'row' is everywhere, 'book'/'author' are rare
    (selective seeds), 'shelf' sits mid-frequency, some nodes carry
    attributes shared across labels (wildcard-seed fodder)."""
    rng = random.Random(seed)
    tree = XMLTree("db", ordered=False)
    nodes = [tree.root]
    for _ in range(size):
        parent = rng.choice(nodes)
        label = rng.choices(["row", "shelf", "book", "author", "misc"],
                            weights=[10, 4, 2, 2, 3])[0]
        child = tree.add_child(parent, label)
        if rng.random() < 0.5:
            tree.set_attribute(child, "name",
                               rng.choice(["A", "B", "C"]))
        if rng.random() < 0.3:
            tree.set_attribute(child, "aff", rng.choice(["U", "V"]))
        nodes.append(child)
    return tree


def _chain_tree(length: int = 300) -> XMLTree:
    """A deep narrow chain: ``db`` over ``length - 1`` nested ``row``
    nodes, each carrying ``k`` (the worst case of a ``//`` evaluator that
    enumerates descendant sets)."""
    tree = XMLTree("db", ordered=False)
    current = tree.root
    for index in range(length - 1):
        current = tree.add_child(current, "row")
        tree.set_attribute(current, "k", str(index % 7))
    return tree


#: The shapes the generated sweep cannot produce.
ADVERSARIAL_PATTERNS = [
    # Nested // chain at the pattern root (read off in pre order).
    descendant(descendant(node("author", {"name": "$n"}))),
    # // chain as the child of a selective node.
    node("db", None, descendant(node("author", {"name": "$n"}))),
    node("shelf", None, descendant(node("book", None,
                                        node("author", {"name": "$n"})))),
    # Wildcard with tests: seeded from the smallest attribute table.
    wildcard({"name": "$n", "aff": "$a"}),
    # Wildcard root whose // child shares a variable (join across arms).
    wildcard({"name": "$n"}, descendant(wildcard({"name": "$n"}))),
    # Bare wildcard with a child-span merge join below it.
    wildcard(None, node("author", {"name": "$n"})),
    # Empty nodes_by_label seed: the label occurs nowhere.
    node("zz", {"name": "$n"}),
    descendant(node("zz")),
    # Mixed-selectivity branching: rare arm + ubiquitous arm at one node.
    node("db", None, descendant(node("book")), descendant(node("row"))),
]

#: Nested // over a deep chain: every node is an ancestor of a match.
CHAIN_PATTERNS = [
    descendant(wildcard(None, descendant(wildcard()))),
    node("row", None, descendant(node("row"))),
    node("db", None, descendant(wildcard(None, descendant(wildcard())))),
    descendant(node("row", {"k": "$x"})),
]


def _assert_interpreter_parity(tree, patterns, context):
    frozen = tree.freeze()
    for pattern in patterns:
        plan = compile_pattern(pattern)
        interpreted = sorted(map(assignment_key,
                                 match_anywhere(tree, pattern)))
        planned = sorted(map(assignment_key, plan.assignments(frozen)))
        assert planned == interpreted, f"{context} pattern={pattern}"


class TestAdversarialParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_plan_equals_interpreter(self, seed):
        _assert_interpreter_parity(_random_tree(seed), ADVERSARIAL_PATTERNS,
                                   f"seed={seed}")

    def test_deep_chain_equals_interpreter(self):
        _assert_interpreter_parity(_chain_tree(), CHAIN_PATTERNS, "chain")

    def test_union_arms_of_mixed_selectivity(self):
        tree = _random_tree(99, size=120)
        frozen = tree.freeze()
        query = union_query(
            pattern_query(descendant(node("author", {"name": "$n"}))),
            pattern_query(descendant(node("row", {"name": "$n"}))),
        )
        plan = compile_query(query)
        stats = CacheStats()
        assert plan.answers(frozen, stats=stats) == query.answers(tree)
        assert stats.counts("plan_join_runs") == 2  # one per arm


def _order_tree() -> XMLTree:
    """A hand-built tree whose BFS and document orders disagree (and
    whose deepest author sits under a later sibling)::

        db ─┬─ shelf(name=A) ── box ─┬─ book(title=T2) ── author(name=A)
            │                        └─ crate ── book(title=T4) ──
            │                                    author(name=D)
            ├─ book(title=T3) ── author(name=B)
            └─ shelf(name=B) ── book(title=T1) ── author(name=C)
    """
    tree = XMLTree("db", ordered=False)

    def add(parent, label, **attrs):
        child = tree.add_child(parent, label)
        for name, value in attrs.items():
            tree.set_attribute(child, name, value)
        return child

    box = add(add(tree.root, "shelf", name="A"), "box")
    add(add(box, "book", title="T2"), "author", name="A")
    add(add(add(box, "crate"), "book", title="T4"), "author", name="D")
    add(add(tree.root, "book", title="T3"), "author", name="B")
    shelf_b = add(tree.root, "shelf", name="B")
    add(add(shelf_b, "book", title="T1"), "author", name="C")
    return tree


#: SHA-256 over the canonical-solution fingerprints of
#: ``generate_scenario(0..99)`` for every profile ("-" when no solution
#: exists), as computed when the plan evaluator still had a second,
#: independently written strategy to agree with.
CANONICAL_FINGERPRINTS_SHA256 = \
    "8455fec4266ffa805d89d443cdd6df473835beb2b2c70eba384c43c071192b96"


class TestRowOrderLock:
    """Rows come out deduplicated in a fixed order — node-rooted patterns
    by BFS position, ``//`` results in document (pre) order — and the
    chase allocates nulls in that order, so the order is part of the
    contract, not an implementation detail."""

    def _values(self, plan, rows, *names):
        slots = [plan.slot_of(name) for name in names]
        return [tuple(row[slot] for slot in slots) for row in rows]

    def test_node_rooted_rows_in_bfs_order(self):
        plan = compile_pattern(node("book", {"title": "$t"},
                                    node("author", {"name": "$n"})))
        rows = plan.matches(_order_tree().freeze())
        assert self._values(plan, rows, "t", "n") == [
            ("T3", "B"), ("T1", "C"), ("T2", "A"), ("T4", "D")]

    def test_descendant_rooted_rows_in_document_order(self):
        plan = compile_pattern(descendant(node("author", {"name": "$n"})))
        rows = plan.matches(_order_tree().freeze())
        assert self._values(plan, rows, "n") == [
            ("A",), ("D",), ("B",), ("C",)]

    def test_descendant_child_rows_in_document_order(self):
        plan = compile_pattern(node("shelf", {"name": "$s"},
                                    descendant(node("author",
                                                    {"name": "$n"}))))
        rows = plan.matches(_order_tree().freeze())
        assert self._values(plan, rows, "s", "n") == [
            ("A", "A"), ("A", "D"), ("B", "C")]

    def test_union_rows_arm_by_arm(self):
        plan = compile_query(union_query(
            pattern_query(descendant(node("author", {"name": "$n"}))),
            pattern_query(node("book", {"title": "$n"}))))
        rows = plan.rows(_order_tree().freeze())
        slot = plan.free_slots[0]
        assert [row[slot] for row in rows] == [
            "A", "D", "B", "C", "T3", "T1", "T2", "T4"]

    def test_canonical_solution_fingerprints_locked(self):
        fingerprints = []
        for profile in SCENARIO_PROFILES:
            for seed in range(100):
                scenario = generate_scenario(seed, profile=profile)
                for tree in scenario.source_trees:
                    solved = canonical_solution(scenario.setting, tree)
                    fingerprints.append(solved.tree.fingerprint()
                                        if solved.success else "-")
        assert len(fingerprints) == 900
        digest = hashlib.sha256("\n".join(fingerprints).encode())
        assert digest.hexdigest() == CANONICAL_FINGERPRINTS_SHA256


class TestBindCache:
    def test_resolution_cached_per_snapshot(self):
        plan = compile_pattern(node("db", None, node("book", {"title": "$t"})))
        frozen = _random_tree(1).freeze()
        first = plan._bound_ops(frozen)
        assert plan._bound_ops(frozen) is first  # cached, not re-resolved
        other = _random_tree(2).freeze()
        assert plan._bound_ops(other) is not first
        assert len(plan._bind_cache) == 2

    def test_bind_cache_entries_die_with_the_snapshot(self):
        plan = compile_pattern(node("db"))
        frozen = _random_tree(1).freeze()
        plan._bound_ops(frozen)
        assert len(plan._bind_cache) == 1
        del frozen
        assert len(plan._bind_cache) == 0  # weakly keyed

    def test_pickle_drops_bind_cache(self):
        plan = compile_pattern(
            node("db", None, descendant(node("author", {"name": "$n"}))))
        tree = _random_tree(4)
        frozen = tree.freeze()
        before = plan.matches(frozen)
        clone = pickle.loads(pickle.dumps(plan))
        assert len(clone._bind_cache) == 0
        assert clone.matches(frozen) == before

    def test_unpickles_state_with_retired_fields(self):
        """Stores persist compiled settings as pickles, so a plan pickled
        by an older version — whose state still carries the retired
        ``join_ops`` program — must load and evaluate identically."""
        plan = compile_pattern(
            node("db", None, descendant(node("author", {"name": "$n"}))))
        state = plan.__getstate__()
        state["join_ops"] = (("node", ()), ("desc", 0, 1),
                             ("node", (("desc", 0, 1),)))

        class OlderPickle:  # unpickles as a PatternPlan fed ``state``
            def __reduce__(self):
                return copyreg._reconstructor, (PatternPlan, object,
                                                None), state

        clone = pickle.loads(pickle.dumps(OlderPickle()))
        assert isinstance(clone, PatternPlan)
        frozen = _random_tree(4).freeze()
        assert clone.matches(frozen) == plan.matches(frozen)


class TestEngineAccounting:
    def test_engine_result_cache_carries_plan_run_counter(self):
        engine = ExchangeEngine(library.library_setting())
        tree = library.figure_1_source()
        query = library.query_writer_of("Computational Complexity")
        result = engine.certain_answers(tree, query)
        assert result.ok
        # STD source plans + the query's atoms all counted.
        assert result.cache["plan_join_runs"] > 0
        assert engine.stats["plan_join_runs"] == result.cache["plan_join_runs"]

    def test_generated_scenario_counters_accumulate(self):
        scenario = generate_scenario(7)
        engine = ExchangeEngine(scenario.setting)
        for tree in scenario.source_trees:
            for query in scenario.queries:
                engine.certain_answers(tree, query)
        assert engine.stats["plan_join_runs"] > 0


class TestPrePostPlane:
    def test_pre_post_cached_and_characterises_ancestry(self):
        tree = _random_tree(11)
        frozen = tree.freeze()
        pre, post = frozen.pre_post()
        assert frozen.pre_post() is frozen._pre_post  # computed once
        assert sorted(pre) == list(range(frozen.n))
        assert sorted(post) == list(range(frozen.n))
        assert frozen.depths()[0] == 0
        # pre/post plane vs the parent chain, exhaustively.
        def ancestors(pos):
            chain = set()
            while frozen.parent(pos) is not None:
                pos = frozen.parent(pos)
                chain.add(pos)
            return chain
        for w in range(frozen.n):
            plane = {v for v in range(frozen.n)
                     if pre[v] < pre[w] and post[v] > post[w]}
            assert plane == ancestors(w), f"node {w}"

    def test_storage_roundtrip_seeds_the_plane(self):
        frozen = _random_tree(12).freeze()
        record = memoryview(encode_document(frozen))
        decoded = decode_document(record)
        assert decoded._pre_post is not None  # seeded, not lazily re-derived
        assert decoded._pre_post == frozen.pre_post()
        # The plane is read off the record's columns, not re-derived.
        assert decoded.pre_post() is decoded._pre_post


class TestFrozenConformance:
    def test_reports_each_violation_of_a_broken_solution(self):
        dtd = library.target_dtd()
        solved = canonical_solution(library.library_setting(),
                                    library.figure_1_source())
        assert solved.success
        good = solved.tree
        assert dtd.conformance_violations(good, ordered=False) == []
        # Break it two ways: an alien attribute and an alien child.  The
        # columnar walk reports exactly what a node-by-node walk reports
        # (messages grouped by label, node idents of the tree).
        bad = good.copy()
        some_node = next(iter(bad.nodes()))
        bad.set_attribute(some_node, "alien", "x")
        martian = bad.add_child(bad.root, "martian")
        assert sorted(dtd.conformance_violations(bad, ordered=False)) == [
            f"node {bad.root} (bib): attributes ['alien'] do not match "
            "R(bib) = []",
            f"node {bad.root} (bib): children ['writer', 'writer', "
            "'writer', 'martian'] not in π(writer*)",
            f"node {martian}: unknown element type 'martian'",
        ]

    def test_chase_result_frozen_is_the_memoised_snapshot(self):
        solved = canonical_solution(library.library_setting(),
                                    library.figure_1_source())
        assert solved.success
        assert solved.frozen is solved.tree.freeze()
        assert solved.frozen.fingerprint() == solved.tree.fingerprint()
        clone = pickle.loads(pickle.dumps(solved))
        assert clone.tree._frozen is None  # a cache, not part of the identity
        assert clone.frozen.fingerprint() == solved.tree.fingerprint()
        assert clone.tree.fingerprint() == solved.tree.fingerprint()
        failed = ChaseResult(False, None, "no solution")
        assert failed.frozen is None
