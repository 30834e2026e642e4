"""Tests for STDs and data exchange settings (Definitions 3.1–3.3, 5.10)."""

import pytest

from repro.exchange import STD, classify_std, std
from repro.workloads import library
from repro.xmlmodel import DTD, XMLTree
from repro.xmlmodel.values import Null


@pytest.fixture
def example_3_4_std():
    return std("bib[writer(@name=y)[work(@title=x, @year=z)]]",
               "db[book(@title=x)[author(@name=y)]]")


class TestVariables:
    def test_shared_and_existential(self, example_3_4_std):
        assert set(example_3_4_std.shared_variables()) == {"x", "y"}
        assert example_3_4_std.existential_variables() == ["z"]
        assert set(example_3_4_std.source_variables()) == {"x", "y"}

    def test_distinct_source_variables_proviso(self):
        ok = std("r[b]", "r[l0(@a=x)[l1(@a=y)]]")
        repeated = std("r[b]", "r[l0(@a=x)[l1(@a=x)]]")
        constant = std("r[b]", "r[l0(@a=x)[l1(@a='c')]]")
        assert ok.has_distinct_source_variables()
        assert not repeated.has_distinct_source_variables()
        # A constant is not a variable: it fixes a value Claim 4.2 erases.
        assert not constant.has_distinct_source_variables()


class TestClassification:
    def test_fully_specified(self, example_3_4_std):
        assert example_3_4_std.is_fully_specified("bib")
        assert not example_3_4_std.is_fully_specified("other_root")
        assert classify_std(example_3_4_std, "bib") == "fully-specified"

    def test_std_classes_of_theorem_5_11(self):
        non_rooted = std("H1(@l=x)[H2(@l=y)]", "K[C(@f=x, @s=y, @t=z)]")
        assert classify_std(non_rooted, "K") == "STD(_,//)"
        with_wildcard = std("K[_[a(@l=x)]]", "K[C(@f=x)]")
        assert classify_std(with_wildcard, "K") == "STD(r,//)"
        with_descendant = std("K[//a(@l=x)]", "K[C(@f=x)]")
        assert classify_std(with_descendant, "K") == "STD(r,_)"


class TestSatisfaction:
    def test_example_3_4_satisfaction(self, example_3_4_std):
        source = library.figure_1_source()
        target = XMLTree.build(("bib", [
            ("writer", {"name": "Papadimitriou"}, [
                ("work", {"title": "Combinatorial Optimization", "year": Null(1)}),
                ("work", {"title": "Computational Complexity", "year": Null(2)}),
            ]),
            ("writer", {"name": "Steiglitz"}, [
                ("work", {"title": "Combinatorial Optimization", "year": Null(1)}),
            ]),
        ]), ordered=False)
        assert example_3_4_std.satisfied_by(source, target)
        # Remove Steiglitz's work: the STD is now violated.
        broken = XMLTree.build(("bib", [
            ("writer", {"name": "Papadimitriou"}, [
                ("work", {"title": "Combinatorial Optimization", "year": Null(1)}),
                ("work", {"title": "Computational Complexity", "year": Null(2)}),
            ]),
            ("writer", {"name": "Steiglitz"}),
        ]), ordered=False)
        violations = example_3_4_std.violations(source, broken)
        assert violations == [{"x": "Combinatorial Optimization", "y": "Steiglitz"}]

    def test_null_reuse_enforces_joint_satisfaction(self):
        dependency = std("r[a(@u=x, @v=z), b(@w=z)]", "s(@u=x)")
        source = XMLTree.build(("s", {"u": "1"}))
        shared_null = Null(5)
        good = XMLTree.build(("r", [("a", {"u": "1", "v": shared_null}),
                                    ("b", {"w": shared_null})]))
        bad = XMLTree.build(("r", [("a", {"u": "1", "v": Null(6)}),
                                   ("b", {"w": Null(7)})]))
        assert dependency.satisfied_by(source, good)
        assert not dependency.satisfied_by(source, bad)


class TestSetting:
    def test_library_setting_properties(self, library_setting):
        assert library_setting.is_fully_specified()
        assert library_setting.has_distinct_source_variables()
        assert library_setting.std_classes() == ["fully-specified"]
        assert library_setting.dtd_size() > 0
        assert library_setting.std_size() > 0

    def test_solution_report(self, library_setting, figure_1_source):
        good = XMLTree.build(("bib", [
            ("writer", {"name": "Papadimitriou"}, [
                ("work", {"title": "Combinatorial Optimization", "year": Null(1)}),
                ("work", {"title": "Computational Complexity", "year": Null(3)}),
            ]),
            ("writer", {"name": "Steiglitz"}, [
                ("work", {"title": "Combinatorial Optimization", "year": Null(2)}),
            ]),
        ]), ordered=False)
        report = library_setting.solution_report(figure_1_source, good, ordered=False)
        assert report.is_solution
        assert report.summary() == "solution"

    def test_solution_report_detects_dtd_violation(self, library_setting, figure_1_source):
        bad = XMLTree.build(("bib", [("writer", {})]), ordered=False)
        report = library_setting.solution_report(figure_1_source, bad, ordered=False)
        assert not report.is_solution
        assert report.dtd_violations
        assert report.std_violations
        assert "STD" in report.summary() or "target DTD" in report.summary()
