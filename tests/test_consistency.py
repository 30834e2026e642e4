"""Tests for the consistency problem (Section 4, Theorems 4.1 / 4.5, Prop 4.4)."""

import itertools
import pickle
import sys
import threading

import pytest

from repro import ExchangeEngine
from repro.exchange import (DataExchangeSetting, check_consistency,
                            check_consistency_general,
                            check_consistency_nested_relational,
                            minimal_source_skeletons, pattern_satisfiable,
                            target_satisfiable, std)
from repro.exchange.consistency import _GoalSearch
from repro.patterns import parse_pattern
from repro.reductions import proposition_4_4
from repro.reductions.sat import CNFFormula, dpll_satisfiable, random_3cnf
from repro.workloads import library
from repro.xmlmodel import DTD


class TestPatternSatisfiability:
    def test_satisfiable_patterns(self):
        dtd = library.source_dtd()
        assert pattern_satisfiable(dtd, parse_pattern("db[book[author]]"))
        assert pattern_satisfiable(dtd, parse_pattern("//author"))
        assert pattern_satisfiable(dtd, parse_pattern("db[book, book]"))
        assert pattern_satisfiable(dtd, parse_pattern("_[_[_]]"))

    def test_unsatisfiable_patterns(self):
        dtd = library.source_dtd()
        assert not pattern_satisfiable(dtd, parse_pattern("db[author]"))
        assert not pattern_satisfiable(dtd, parse_pattern("book[db]"))
        assert not pattern_satisfiable(dtd, parse_pattern("//journal"))
        assert not pattern_satisfiable(dtd, parse_pattern("author[_]"))

    def test_joint_satisfiability(self):
        # r → 1|2 : the two children are mutually exclusive (the Section 4 example).
        dtd = DTD("r", {"r": "l1 | l2", "l1": "", "l2": ""})
        assert target_satisfiable(dtd, [parse_pattern("r[l1]")])
        assert target_satisfiable(dtd, [parse_pattern("r[l2]")])
        assert not target_satisfiable(dtd, [parse_pattern("r[l1]"),
                                            parse_pattern("r[l2]")])

    def test_satisfiability_with_recursion_and_descendant(self):
        dtd = DTD("r", {"r": "a", "a": "a | b", "b": ""})
        assert pattern_satisfiable(dtd, parse_pattern("//b"))
        assert pattern_satisfiable(dtd, parse_pattern("r[a[a[a[b]]]]"))
        assert not pattern_satisfiable(dtd, parse_pattern("b[a]"))


class TestSection4Example:
    """The inconsistent setting r[1[2(@a=x)]] :– r with target r → 1|2."""

    def _setting(self):
        source_dtd = DTD("rs", {"rs": ""})
        target_dtd = DTD("r", {"r": "l1 | l2", "l1": "", "l2": ""},
                         {"l2": ["a"]})
        dependency = std("r[l1[l2(@a=x)]]", "rs")
        return DataExchangeSetting(source_dtd, target_dtd, [dependency])

    def test_inconsistent(self):
        result = check_consistency(self._setting())
        assert not result.consistent

    def test_becomes_consistent_with_richer_target(self):
        source_dtd = DTD("rs", {"rs": ""})
        target_dtd = DTD("r", {"r": "l1 | l2", "l1": "l2?", "l2": ""},
                         {"l2": ["a"]})
        dependency = std("r[l1[l2(@a=x)]]", "rs")
        setting = DataExchangeSetting(source_dtd, target_dtd, [dependency])
        assert check_consistency(setting).consistent


class TestMinimalSkeletons:
    def test_non_recursive_enumeration_is_complete(self):
        dtd = DTD("r", {"r": "a | b", "a": "c?", "b": "", "c": ""})
        skeletons, complete = minimal_source_skeletons(dtd)
        assert complete
        shapes = {tuple(t.children_labels(t.root)) for t in skeletons}
        assert shapes == {("a",), ("b",)}

    def test_every_skeleton_weakly_conforms(self):
        dtd = library.source_dtd()
        skeletons, complete = minimal_source_skeletons(dtd)
        assert complete
        assert skeletons and all(dtd.weakly_conforms(t) for t in skeletons)

    def test_recursive_dtd_is_depth_bounded(self):
        dtd = DTD("r", {"r": "a", "a": "r | b", "b": ""})
        skeletons, _complete = minimal_source_skeletons(dtd, max_depth=6)
        assert skeletons  # at least the r[a[b]] witness


class TestNestedRelationalConsistency:
    def test_library_setting_consistent(self, library_setting):
        outcome = check_consistency_nested_relational(library_setting)
        assert outcome.consistent
        assert not outcome.culprits

    def test_company_setting_consistent(self, company_setting):
        assert check_consistency(company_setting).method == "nested-relational"
        assert check_consistency(company_setting).consistent

    def test_inconsistent_nested_relational_setting(self):
        # Every source tree has an ``a`` child (it is required), so the STD
        # always fires and forces a ``forbidden`` child below the target root,
        # which the target DTD does not allow → inconsistent.
        source_dtd = DTD("s", {"s": "a"}, {"a": ["v"]})
        target_dtd = DTD("t", {"t": "allowed", "allowed": "", "forbidden": ""},
                         {"forbidden": ["v"]})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("t[forbidden(@v=x)]", "a(@v=x)")])
        outcome = check_consistency_nested_relational(setting)
        assert not outcome.consistent
        assert len(outcome.culprits) == 1
        # The general method agrees (Theorem 4.5 is a special case of 4.1).
        assert not check_consistency_general(setting).consistent

    def test_optional_source_children_keep_the_setting_consistent(self):
        # With ``a`` optional, the empty source document has the trivial
        # solution, so the setting is consistent even though the STD head is
        # unsatisfiable in the target (the paper's notion is existential).
        source_dtd = DTD("s", {"s": "a*"}, {"a": ["v"]})
        target_dtd = DTD("t", {"t": "allowed", "allowed": "", "forbidden": ""},
                         {"forbidden": ["v"]})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("t[forbidden(@v=x)]", "a(@v=x)")])
        assert check_consistency_nested_relational(setting).consistent
        assert check_consistency_general(setting).consistent

    def test_agreement_with_general_method(self, library_setting, company_setting):
        for setting in (library_setting, company_setting):
            fast = check_consistency(setting, method="nested-relational")
            slow = check_consistency(setting, method="general")
            assert fast.consistent == slow.consistent

    def test_rejects_non_nested_relational_dtd(self):
        source_dtd = DTD("s", {"s": "(a b)*", "a": "", "b": ""})
        target_dtd = DTD("t", {"t": ""})
        setting = DataExchangeSetting(source_dtd, target_dtd, [])
        with pytest.raises(ValueError):
            check_consistency_nested_relational(setting)

    def test_distinct_variable_proviso_enforced(self):
        # The source pattern repeats a variable, outside the proviso, which
        # only a "no" needs: the skeleton ``s`` fires nothing, so
        # "consistent" is proven and answered (TestUndecided covers "no").
        source_dtd = DTD("s", {"s": "a*"}, {"a": ["u", "v"]})
        target_dtd = DTD("t", {"t": "b?", "b": ""}, {"b": ["w"]})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("t[b(@w=x)]", "a(@u=x, @v=x)")])
        assert not setting.has_distinct_source_variables()
        assert check_consistency_nested_relational(setting).consistent
        assert check_consistency(setting, method="general").consistent


class TestProposition44:
    """Consistency of the Prop 4.4(b) instances coincides with satisfiability."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_agree_with_dpll(self, seed):
        formula = random_3cnf(n_variables=4, n_clauses=6, seed=seed)
        setting = proposition_4_4.consistency_instance(formula)
        expected = dpll_satisfiable(formula) is not None
        assert check_consistency(setting).consistent is expected

    def test_unsatisfiable_formula_gives_inconsistent_setting(self):
        clauses = [tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
                   for signs in itertools.product([True, False], repeat=3)]
        formula = CNFFormula.of(clauses)
        assert dpll_satisfiable(formula) is None
        setting = proposition_4_4.consistency_instance(formula)
        result = check_consistency(setting)
        assert not result.consistent

    def test_rejects_degenerate_clauses(self):
        with pytest.raises(ValueError):
            proposition_4_4.consistency_instance(CNFFormula.of([(1, 1, 2)]))


class TestFrontDoor:
    def test_auto_dispatch(self, library_setting):
        assert check_consistency(library_setting).method == "nested-relational"
        general = check_consistency(library_setting, method="general")
        assert general.method == "general" and general.consistent

    def test_unknown_method_rejected(self, library_setting):
        with pytest.raises(ValueError):
            check_consistency(library_setting, method="magic")

    def test_unsatisfiable_source_dtd(self):
        source_dtd = DTD("s", {"s": "a", "a": "a"})
        target_dtd = DTD("t", {"t": ""})
        setting = DataExchangeSetting(source_dtd, target_dtd, [])
        result = check_consistency(setting, method="general")
        assert not result.consistent
        assert "empty" in result.detail


class TestSharedGoalSearch:
    """A compiled setting shares one goal search across requests: a state
    that another thread is expanding must not read as a cycle, and the
    search travels through pickle without its lock."""

    @staticmethod
    def _setting():
        source = DTD("r", {"r": "A", "A": ""}, {"A": ["a"]})
        target = DTD("t", {"t": "B | C", "B": "D", "C": "", "D": ""})
        return DataExchangeSetting(source, target,
                                   [std("t[B[D]]", "r[A(@a=x)]")])

    def test_concurrent_checks_match_the_serial_verdict(self, monkeypatch):
        serial = ExchangeEngine(self._setting()).check_consistency(
            strategy="general").ok
        assert serial is True
        engine = ExchangeEngine(self._setting())
        parked, release, entered = (threading.Event(), threading.Event(),
                                    threading.Event())
        expand, satisfiable = _GoalSearch._expand, _GoalSearch.satisfiable

        def parking_expand(search, *args):
            if threading.current_thread().name == "first" \
                    and not parked.is_set():
                parked.set()
                release.wait(10)
            return expand(search, *args)

        def announcing_satisfiable(search, patterns):
            if threading.current_thread().name == "second":
                entered.set()
            return satisfiable(search, patterns)

        monkeypatch.setattr(_GoalSearch, "_expand", parking_expand)
        monkeypatch.setattr(_GoalSearch, "satisfiable", announcing_satisfiable)
        verdicts = {}

        def check():
            verdicts[threading.current_thread().name] = \
                engine.check_consistency(strategy="general").ok

        first = threading.Thread(target=check, name="first")
        second = threading.Thread(target=check, name="second")
        first.start()
        assert parked.wait(10)
        second.start()
        assert entered.wait(10)
        # Give the second search time to run into the first one's state
        # (or, serialised, to wait for it), then let the first finish.
        second.join(0.2)
        release.set()
        first.join(10)
        second.join(10)
        assert verdicts == {"first": serial, "second": serial}

    def test_racing_first_checks_agree(self):
        """More threads than cores race each fresh engine's first general
        check, switching every microsecond: every verdict is the serial
        one."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                engine = ExchangeEngine(self._setting())
                start = threading.Barrier(8)
                verdicts = []

                def check():
                    start.wait(10)
                    verdicts.append(engine.check_consistency(
                        strategy="general").ok)

                threads = [threading.Thread(target=check) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert verdicts == [True] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_pickle_drops_and_recreates_the_lock(self):
        setting = self._setting()
        search = _GoalSearch(setting.target_dtd)
        goal = parse_pattern("t[B[D]]")
        assert search.satisfiable([goal])
        state = search.__getstate__()
        assert "_lock" not in state
        restored = pickle.loads(pickle.dumps(search))
        assert restored._memo == search._memo
        assert restored.satisfiable([goal])
        # A search pickled before the lock existed carries none.
        legacy = _GoalSearch.__new__(_GoalSearch)
        legacy.__setstate__(state)
        assert legacy.satisfiable([goal])
