"""Tests for canonical pre-solutions and the chase (Section 6.1, Figures 5–8)."""

import pytest

from repro.engine.compiled import compile_setting
from repro.exchange import (DataExchangeSetting, canonical_pre_solution,
                            canonical_solution, chase, pattern_to_tree, std)
from repro.exchange.presolution import PreSolutionError
from repro.patterns import parse_pattern
from repro.xmlmodel import DTD, XMLTree
from repro.xmlmodel.values import Null, NullFactory, is_null


class TestPatternToTree:
    def test_instantiation(self):
        pattern = parse_pattern("r[A(@x=u), B[C(@n=v, @m=w)]]")
        tree = pattern_to_tree(pattern, {"u": "4", "v": "5", "w": "6"})
        assert tree.label(tree.root) == "r"
        assert sorted(tree.children_labels(tree.root)) == ["A", "B"]

    def test_fresh_nulls_for_unbound_variables(self):
        pattern = parse_pattern("r[A(@x=u, @y=z)]")
        tree = pattern_to_tree(pattern, {"u": "4"})
        a_node = tree.children(tree.root)[0]
        assert tree.attribute(a_node, "x") == "4"
        assert is_null(tree.attribute(a_node, "y"))

    def test_rejects_descendant_and_wildcard(self):
        with pytest.raises(PreSolutionError):
            pattern_to_tree(parse_pattern("r[//a]"), {})
        with pytest.raises(PreSolutionError):
            pattern_to_tree(parse_pattern("r[_]"), {})

    def test_two_values_for_one_attribute_conflict(self):
        with pytest.raises(PreSolutionError,
                           match="conflicting values for @x"):
            pattern_to_tree(parse_pattern('r[A(@x=u, @x="5")]'), {"u": "4"})


class TestExample63:
    """Example 6.3 / Figure 5: two STDs instantiated on one source A node."""

    def setup_method(self):
        source_dtd = DTD("r", {"r": "A*"}, {"A": ["a", "b", "c"]})
        target_dtd = DTD("r", {"r": "(A B E)*", "A": "", "B": "C* D*",
                               "C": "", "D": "", "E": ""},
                         {"A": ["x"], "C": ["n", "m"], "E": ["m"]})
        std1 = std("r[A(@x=x), B[C(@n=y, @m=z)]]", "r[A(@a=x, @b=y, @c=z)]")
        std2 = std("r[B[C, D], E(@m=y)]", "r[A(@a=x, @b=y, @c=z)]")
        self.setting = DataExchangeSetting(source_dtd, target_dtd, [std1, std2])
        self.source = XMLTree.build(("r", [("A", {"a": "4", "b": "5", "c": "6"})]))

    def test_cps_structure_matches_figure_5(self):
        cps = canonical_pre_solution(self.setting, self.source)
        labels = sorted(cps.children_labels(cps.root))
        # Figure 5 (d): the merged root has children A, B (from ψ1) and B, E (from ψ2).
        assert labels == ["A", "B", "B", "E"]
        a_node = [c for c in cps.children(cps.root) if cps.label(c) == "A"][0]
        assert cps.attribute(a_node, "x") == "4"
        e_node = [c for c in cps.children(cps.root) if cps.label(c) == "E"][0]
        assert cps.attribute(e_node, "m") == "5"
        b_nodes = [c for c in cps.children(cps.root) if cps.label(c) == "B"]
        grandchildren = sorted(label for b in b_nodes
                               for label in cps.children_labels(b))
        assert grandchildren == ["C", "C", "D"]

    def test_cps_is_the_one_tree_built(self, monkeypatch):
        """Each STD instance is written straight into cps: no instance
        tree is built and nothing is grafted."""
        compiled = compile_setting(self.setting)
        built, grafts = [], []
        init, graft = XMLTree.__init__, XMLTree.graft_subtree

        def counting_init(tree, *args, **kwargs):
            built.append(tree)
            init(tree, *args, **kwargs)

        def counting_graft(tree, *args, **kwargs):
            grafts.append(tree)
            return graft(tree, *args, **kwargs)

        monkeypatch.setattr(XMLTree, "__init__", counting_init)
        monkeypatch.setattr(XMLTree, "graft_subtree", counting_graft)
        cps = canonical_pre_solution(self.setting, self.source,
                                     compiled=compiled)
        assert len(built) == 1 and built[0] is cps
        assert grafts == []


class TestInstancesAtTheRoot:
    """Two source matches of ``r(@k=z)[B(@m=x)] :- r[A(@c=x)]`` meet at
    the cps root, which keeps the first match's value."""

    def setup_method(self):
        self.source_dtd = DTD("r", {"r": "A*"}, {"A": ["c"]})
        self.target_dtd = DTD("r", {"r": "B*", "B": ""},
                              {"r": ["k"], "B": ["m"]})
        self.source = XMLTree.build(
            ("r", [("A", {"c": "1"}), ("A", {"c": "2"})]))

    def _setting(self, target):
        return DataExchangeSetting(self.source_dtd, self.target_dtd,
                                   [std(target, "r[A(@c=x)]")])

    def test_root_keeps_its_value_and_each_match_draws_its_null(self):
        factory = NullFactory()
        cps = canonical_pre_solution(self._setting("r(@k=z)[B(@m=x)]"),
                                     self.source, factory)
        assert dict(cps.attributes(cps.root)) == {"k": Null(1)}
        assert [cps.attribute(b, "m") for b in cps.children(cps.root)] == \
            ["1", "2"]
        # The second match drew ⊥2 for z although the root kept ⊥1.
        assert factory.fresh() == Null(3)

    @pytest.mark.parametrize("target", ['r[B(@m=x, @m="5")]',
                                        'r(@k=x, @k="5")[B(@m=x)]'])
    def test_two_values_in_one_pattern_node_conflict(self, target):
        with pytest.raises(PreSolutionError, match="conflicting values"):
            canonical_pre_solution(self._setting(target), self.source)


class TestExample64Figure6:
    """Example 6.4 / 6.13, Figures 6 and 8: the full chase trace."""

    def test_cps(self, figure_6_setting, figure_6_source):
        cps = canonical_pre_solution(figure_6_setting, figure_6_source)
        assert cps.children_labels(cps.root) == ["B", "B"]
        values = sorted(cps.attribute(c, "m") for c in cps.children(cps.root))
        assert values == ["1", "2"]

    def test_canonical_solution_matches_figure_6e(self, figure_6_setting, figure_6_source):
        result = canonical_solution(figure_6_setting, figure_6_source)
        assert result.success
        tree = result.tree
        labels = sorted(tree.children_labels(tree.root))
        # Figure 6 (e): B B C C under the root …
        assert labels == ["B", "B", "C", "C"]
        c_nodes = [c for c in tree.children(tree.root) if tree.label(c) == "C"]
        for c_node in c_nodes:
            # … each C has a D child carrying a fresh null @n.
            assert tree.children_labels(c_node) == ["D"]
            d_node = tree.children(c_node)[0]
            assert is_null(tree.attribute(d_node, "n"))
        # Distinct nulls ⊥1, ⊥2 on the two D nodes.
        nulls = {tree.attribute(tree.children(c)[0], "n") for c in c_nodes}
        assert len(nulls) == 2
        # The result is a genuine (unordered) solution.
        assert figure_6_setting.is_unordered_solution(figure_6_source, tree)
        # And it conforms to the target DTD in the weak sense.
        assert figure_6_setting.target_dtd.weakly_conforms(tree)

    def test_chase_steps_are_recorded(self, figure_6_setting, figure_6_source):
        result = canonical_solution(figure_6_setting, figure_6_source)
        rules = {step.rule for step in result.steps}
        assert rules == {"ChangeAtt", "ChangeReg"}


class TestChaseFailure:
    def test_attribute_clash_failure(self):
        """Two source values forced onto the single allowed child: merging
        clashes on constants, so there is no solution (Lemma 6.15 b)."""
        source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
        target_dtd = DTD("r", {"r": "B", "B": ""}, {"B": ["m"]})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("r[B(@m=x)]", "A(@a=x)")])
        source = XMLTree.build(("r", [("A", {"a": "1"}), ("A", {"a": "2"})]))
        result = canonical_solution(setting, source)
        assert not result.success
        assert "clash" in result.failure

    def test_merge_succeeds_on_equal_constants(self):
        source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
        target_dtd = DTD("r", {"r": "B", "B": ""}, {"B": ["m"]})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("r[B(@m=x)]", "A(@a=x)")])
        source = XMLTree.build(("r", [("A", {"a": "1"}), ("A", {"a": "1"})]))
        result = canonical_solution(setting, source)
        assert result.success
        b_nodes = [c for c in result.tree.children(result.tree.root)]
        assert len(b_nodes) == 1
        assert result.tree.attribute(b_nodes[0], "m") == "1"

    def test_forbidden_attribute_failure(self):
        """The STD forces an attribute the target DTD does not allow."""
        source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
        target_dtd = DTD("r", {"r": "B*", "B": ""}, {})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("r[B(@m=x)]", "A(@a=x)")])
        source = XMLTree.build(("r", [("A", {"a": "1"})]))
        result = canonical_solution(setting, source)
        assert not result.success
        assert "not allowed" in result.failure

    def test_unrepairable_children_failure(self):
        """rep(w, r) = ∅: the forced child type cannot appear at all."""
        source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
        target_dtd = DTD("r", {"r": "C", "C": "", "B": ""}, {"B": ["m"], "C": []})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("r[B(@m=x)]", "A(@a=x)")])
        source = XMLTree.build(("r", [("A", {"a": "1"})]))
        result = canonical_solution(setting, source)
        assert not result.success
        assert "repaired" in result.failure

    def test_non_fully_specified_rejected(self):
        source_dtd = DTD("r", {"r": "A*"}, {"A": ["a"]})
        target_dtd = DTD("r", {"r": "B*", "B": ""}, {"B": ["m"]})
        setting = DataExchangeSetting(source_dtd, target_dtd,
                                      [std("B(@m=x)", "A(@a=x)")])
        source = XMLTree.build(("r", [("A", {"a": "1"})]))
        with pytest.raises(PreSolutionError):
            canonical_pre_solution(setting, source)


class TestLibraryScenario:
    def test_canonical_solution_of_figure_2(self, library_setting, figure_1_source):
        result = canonical_solution(library_setting, figure_1_source)
        assert result.success
        tree = result.tree
        # Three (book, author) pairs → three writer children.
        assert tree.children_labels(tree.root) == ["writer", "writer", "writer"]
        years = [tree.attribute(work, "year")
                 for writer in tree.children(tree.root)
                 for work in tree.children(writer)]
        assert all(is_null(year) for year in years)
        assert library_setting.is_unordered_solution(figure_1_source, tree)

    def test_chase_is_idempotent_on_solutions(self, library_setting, figure_1_source):
        first = canonical_solution(library_setting, figure_1_source)
        again = chase(library_setting.target_dtd, first.tree)
        assert again.success
        assert again.tree.equals(first.tree, respect_order=False)
