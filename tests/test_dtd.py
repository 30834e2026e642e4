"""Tests for DTDs: conformance, consistency/trimming, classes (Section 2, Thm 4.5)."""

import pytest

from repro.xmlmodel import DTD, XMLTree, parse_dtd
from repro.regexlang import nested_relational_factors, parse_regex
from repro.workloads import library


@pytest.fixture
def source_dtd():
    return library.source_dtd()


class TestExample21:
    """Example 2.1: the source DTD of Figure 1 (a)."""

    def test_element_types_and_attributes(self, source_dtd):
        assert source_dtd.element_types == {"db", "book", "author"}
        assert source_dtd.attributes_of("book") == {"title"}
        assert source_dtd.attributes_of("author") == {"name", "aff"}
        assert source_dtd.attributes_of("db") == set()
        assert source_dtd.root == "db"

    def test_content_models(self, source_dtd):
        assert str(source_dtd.content_model("db")) == "book*"
        assert str(source_dtd.content_model("author")) == "ε"


class TestConformance:
    def test_figure_1_document_conforms(self, source_dtd):
        assert source_dtd.conforms(library.figure_1_source())

    def test_wrong_root(self, source_dtd):
        tree = XMLTree("book")
        tree.set_attribute(tree.root, "title", "t")
        assert not source_dtd.conforms(tree)
        assert any("root" in v for v in source_dtd.conformance_violations(tree))

    def test_missing_attribute_detected(self, source_dtd):
        tree = XMLTree.build(("db", [("book", {})]))
        violations = source_dtd.conformance_violations(tree)
        assert any("attributes" in v for v in violations)

    def test_extra_attribute_detected(self, source_dtd):
        tree = XMLTree.build(("db", [("book", {"title": "x", "isbn": "1"})]))
        assert not source_dtd.conforms(tree)

    def test_children_order_matters_for_ordered_conformance(self):
        dtd = DTD("r", {"r": "a b"})
        good = XMLTree.build(("r", [("a",), ("b",)]))
        bad = XMLTree.build(("r", [("b",), ("a",)]))
        assert dtd.conforms(good)
        assert not dtd.conforms(bad)
        # Unordered (weak) conformance only checks the permutation language.
        assert dtd.weakly_conforms(bad)

    def test_unknown_element_type(self):
        dtd = DTD("r", {"r": "a*"})
        tree = XMLTree.build(("r", [("z",)]))
        assert not dtd.conforms(tree)


class TestSatisfiabilityAndTrimming:
    def test_satisfiable_and_consistent(self, source_dtd):
        assert source_dtd.is_satisfiable()
        assert source_dtd.is_consistent()

    def test_unsatisfiable_dtd(self):
        # r requires an ``a`` child and ``a`` requires an ``a`` child forever.
        dtd = DTD("r", {"r": "a", "a": "a"})
        assert not dtd.is_satisfiable()
        with pytest.raises(ValueError):
            dtd.trimmed()

    def test_lemma_2_2_trimming(self):
        # ``b`` can never occur in a conforming tree (it needs an impossible c).
        dtd = DTD("r", {"r": "a (b|EPSILON)", "a": "", "b": "c", "c": "c"})
        assert dtd.is_satisfiable()
        assert not dtd.is_consistent()
        assert "b" not in dtd.usable_types()
        trimmed = dtd.trimmed()
        assert trimmed.is_consistent()
        assert trimmed.element_types == {"r", "a"}
        # SAT(D) = SAT(D'): the only conforming skeleton is r[a].
        tree = XMLTree.build(("r", [("a",)]))
        assert dtd.conforms(tree) and trimmed.conforms(tree)

    def test_realizable_types(self):
        dtd = DTD("r", {"r": "a | b", "a": "", "b": "b"})
        assert dtd.realizable_types() == {"r", "a"}


class TestGraphAndRecursion:
    def test_graph(self, source_dtd):
        graph = source_dtd.graph()
        assert graph["db"] == {"book"}
        assert graph["book"] == {"author"}

    def test_recursive_detection(self):
        assert DTD("r", {"r": "a", "a": "r?"}).is_recursive()
        assert not DTD("r", {"r": "a", "a": ""}).is_recursive()

    def test_restriction(self, source_dtd):
        restricted = source_dtd.restricted_to("book")
        assert restricted.root == "book"
        assert restricted.element_types == {"book", "author"}


class TestNestedRelational:
    def test_factors(self):
        factors = nested_relational_factors(parse_regex("a b? c* d+"))
        assert factors == [("a", "1"), ("b", "?"), ("c", "*"), ("d", "+")]

    def test_not_nested_relational_shapes(self):
        assert nested_relational_factors(parse_regex("a a")) is None
        assert nested_relational_factors(parse_regex("(a b)*")) is None
        assert nested_relational_factors(parse_regex("a | b")) is None

    def test_dtd_class_detection(self, source_dtd):
        assert source_dtd.is_nested_relational()
        assert not DTD("r", {"r": "(a b)*"}).is_nested_relational()
        assert not DTD("r", {"r": "a", "a": "r*"}).is_nested_relational()

    def test_lower_and_upper_transforms(self):
        dtd = DTD("r", {"r": "a? b* c+ d", "a": "", "b": "", "c": "", "d": ""})
        lower = dtd.nested_relational_lower()
        upper = dtd.nested_relational_upper()
        assert str(lower.content_model("r")) == "c d"
        assert str(upper.content_model("r")) == "a b c d"

    def test_unique_tree(self):
        dtd = DTD("r", {"r": "a b", "a": "c", "b": "", "c": ""})
        tree = dtd.unique_tree()
        assert dtd.conforms(tree)
        assert tree.children_labels(tree.root) == ["a", "b"]

    def test_unique_tree_rejects_ambiguity(self):
        with pytest.raises(ValueError):
            DTD("r", {"r": "a*"}).unique_tree()


class TestClasses:
    def test_simple_dtd(self):
        assert DTD("r", {"r": "(a|b)*", "a": "", "b": ""}).is_simple()
        assert not DTD("r", {"r": "a b"}).is_simple()

    def test_univocal_dtd(self, source_dtd):
        assert source_dtd.is_univocal()
        assert not DTD("r", {"r": "a | b", "a": "", "b": ""}).is_univocal()


class TestParseDtd:
    def test_parse_figure_1(self):
        dtd = library.source_dtd()
        assert dtd.root == "db"
        assert dtd.attributes_of("author") == {"name", "aff"}

    def test_parse_empty_content(self):
        dtd = parse_dtd("<!ELEMENT r EMPTY>")
        assert str(dtd.content_model("r")) == "ε"

    def test_parse_requires_declaration(self):
        with pytest.raises(ValueError):
            parse_dtd("<!ATTLIST r a CDATA #REQUIRED>")

    def test_explicit_root_override(self):
        dtd = parse_dtd("<!ELEMENT a (b*)> <!ELEMENT b EMPTY>", root="b")
        assert dtd.root == "b"

    def test_size_and_text(self):
        dtd = library.source_dtd()
        assert dtd.size() > 0
        assert "book" in dtd.to_text()
