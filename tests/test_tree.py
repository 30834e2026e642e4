"""Tests for the XML tree model (Section 2)."""

import pickle

import pytest

from repro.workloads import library
from repro.xmlmodel import XMLTree
from repro.xmlmodel.frozen import FrozenTree
from repro.xmlmodel.values import Null

_AUTHOR = ("author", {"name": "A", "aff": "U"})
_B1 = ("book", {"title": "B1"}, [_AUTHOR])
_B2 = ("book", {"title": "B2"})


@pytest.fixture
def sample():
    return XMLTree.build(("db", [_B1, _B2]))


def test_build_and_labels(sample):
    assert sample.label(sample.root) == "db"
    assert sample.children_labels(sample.root) == ["book", "book"]
    assert len(sample) == 4


def test_attributes_and_values(sample):
    books = sample.children(sample.root)
    assert sample.attribute(books[0], "title") == "B1"
    assert sample.attribute(books[0], "missing") is None
    assert sample.constants() == {"B1", "B2", "A", "U"}
    assert sample.nulls() == set()


def test_add_child_and_positions():
    tree = XMLTree("r")
    first = tree.add_child(tree.root, "a")
    tree.add_child(tree.root, "c")
    tree.add_child(tree.root, "b", position=1)
    assert tree.children_labels(tree.root) == ["a", "b", "c"]
    assert tree.parent(first) == tree.root


def test_depth_and_size(sample):
    assert sample.depth() == 2
    assert sample.size() == 4 + 4  # 4 nodes + 4 attribute assignments


def test_descendants_and_ancestor(sample):
    books = sample.children(sample.root)
    descendants = list(sample.descendants(sample.root))
    assert len(descendants) == 3
    author = sample.children(books[0])[0]
    assert sample.is_ancestor(sample.root, author)
    assert not sample.is_ancestor(author, sample.root)


def test_remove_subtree(sample):
    books = sample.children(sample.root)
    sample.remove_subtree(books[0])
    assert sample.children_labels(sample.root) == ["book"]
    assert len(sample) == 2


def test_remove_root_rejected(sample):
    with pytest.raises(ValueError):
        sample.remove_subtree(sample.root)


def test_graft_subtree(sample):
    other = XMLTree.build(("book", {"title": "B3"}))
    sample.graft_subtree(sample.root, other)
    assert sample.children_labels(sample.root) == ["book", "book", "book"]


def test_replace_subtree(sample):
    books = sample.children(sample.root)
    other = XMLTree.build(("book", {"title": "B9"}, [("author", {"name": "X", "aff": "Y"})]))
    new_root = sample.replace_subtree(books[1], other)
    assert sample.attribute(new_root, "title") == "B9"
    assert sample.children_labels(new_root) == ["author"]


def test_merge_children():
    tree = XMLTree.build(("r", [
        ("a", {"k": "1"}, [("x",)]),
        ("a", {"k": "2"}, [("y",)]),
        ("b",),
    ]))
    children = tree.children(tree.root)
    merged = tree.merge_children(tree.root, children[:2])
    assert tree.children_labels(tree.root) == ["a", "b"]
    assert sorted(tree.children_labels(merged)) == ["x", "y"]


def test_merge_children_rejects_non_children():
    tree = XMLTree.build(("r", [("a", [("x",)]), ("a",)]))
    children = tree.children(tree.root)
    grandchild = tree.children(children[0])[0]
    size_before = len(tree)
    with pytest.raises(ValueError):
        tree.merge_children(tree.root, [grandchild, children[1]])
    # The guard fires before any mutation: the tree is untouched.
    assert len(tree) == size_before
    assert tree.children(tree.root) == children


def test_copy_is_independent(sample):
    clone = sample.copy()
    clone.add_child(clone.root, "book", {"title": "B3"})
    assert len(clone) == len(sample) + 1


def test_structural_equality_ignores_order_when_unordered():
    left = XMLTree.build(("r", [("a",), ("b",)]), ordered=False)
    right = XMLTree.build(("r", [("b",), ("a",)]), ordered=False)
    assert left.equals(right)
    ordered_left = left.as_ordered()
    ordered_right = right.as_ordered()
    assert not ordered_left.equals(ordered_right)


def test_equality_distinguishes_nulls():
    left = XMLTree.build(("r", {"a": Null(1)}))
    right = XMLTree.build(("r", {"a": Null(2)}))
    assert not left.equals(right)


def test_to_xml_and_to_text(sample):
    xml = sample.to_xml()
    assert xml.startswith("<db>") and xml.endswith("</db>")
    assert 'title="B1"' in xml
    text = sample.to_text()
    assert "book" in text and "@title='B1'" in text


def test_children_returns_shared_tuple(sample):
    """The read path never copies: children() hands out the node's own
    (immutable) child tuple, identical across calls."""
    first = sample.children(sample.root)
    assert isinstance(first, tuple)
    assert sample.children(sample.root) is first
    # A returned tuple is stable across mutation (the node gets a new one).
    sample.add_child(sample.root, "book", {"title": "B3"})
    assert len(first) == 2
    assert len(sample.children(sample.root)) == 3


def test_reorder_children_validates_permutation(sample):
    books = sample.children(sample.root)
    sample.reorder_children(sample.root, tuple(reversed(books)))
    assert sample.children(sample.root) == tuple(reversed(books))
    with pytest.raises(ValueError):
        sample.reorder_children(sample.root, books[:1])


def test_fingerprint_cache_invalidated_by_mutation(sample):
    before = sample.fingerprint()
    assert sample.fingerprint() == before  # memoised
    sample.set_attribute(sample.root, "note", "x")
    assert sample.fingerprint() != before
    sample.add_child(sample.root, "book", {"title": "B4"})
    changed = sample.fingerprint()
    sample.remove_subtree(sample.children(sample.root)[-1])
    assert sample.fingerprint() != changed


#: Each tree mutation applied to ``sample`` (given the tree and its two
#: book idents), with the spec of a tree built from scratch to the shape
#: the mutation leaves.
_MUTATIONS = {
    "add_child": (
        lambda t, b1, b2: t.add_child(t.root, "book", {"title": "B3"}),
        ("db", [_B1, _B2, ("book", {"title": "B3"})])),
    "set_attribute": (
        lambda t, b1, b2: t.set_attribute(b2, "title", "B9"),
        ("db", [_B1, ("book", {"title": "B9"})])),
    "clear_attributes": (
        lambda t, b1, b2: t.clear_attributes(b2),
        ("db", [_B1, ("book",)])),
    "remove_subtree": (
        lambda t, b1, b2: t.remove_subtree(b1),
        ("db", [_B2])),
    "replace_subtree": (
        lambda t, b1, b2: t.replace_subtree(
            b2, XMLTree.build(("book", {"title": "B9"}))),
        ("db", [_B1, ("book", {"title": "B9"})])),
    "graft_subtree": (
        lambda t, b1, b2: t.graft_subtree(b2, XMLTree.build(_AUTHOR)),
        ("db", [_B1, ("book", {"title": "B2"}, [_AUTHOR])])),
    "merge_children": (
        lambda t, b1, b2: t.merge_children(t.root, [b1, b2]),
        ("db", [("book", [_AUTHOR])])),
    "reorder_children": (
        lambda t, b1, b2: t.reorder_children(t.root, (b2, b1)),
        ("db", [_B2, _B1])),
}


class TestReadView:
    """``XMLTree.freeze()`` is memoised: one snapshot per settled tree,
    dropped by every mutation, never pickled, handed over by ``thaw``."""

    def test_freeze_is_memoised_and_shared_by_copies(self, sample):
        frozen = sample.freeze()
        assert sample.freeze() is frozen
        assert sample.fingerprint() == frozen.fingerprint()
        clone = sample.copy()
        assert clone.freeze() is frozen  # same idents, same snapshot
        clone.add_child(clone.root, "book")
        assert clone.freeze() is not frozen
        assert sample.freeze() is frozen

    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_every_mutation_drops_the_snapshot(self, sample, name):
        mutate, expected = _MUTATIONS[name]
        before = sample.freeze()
        b1, b2 = sample.children(sample.root)
        mutate(sample, b1, b2)
        after = sample.freeze()
        assert after is not before
        assert after.fingerprint() == XMLTree.build(expected).fingerprint()
        assert sample.fingerprint() != before.fingerprint()

    def test_ordered_flag_change_rebuilds_the_snapshot(self, sample):
        ordered = sample.freeze()
        assert ordered.ordered
        sample.ordered = False  # as the chase does
        unordered = sample.freeze()
        assert not unordered.ordered
        assert sample.fingerprint() != ordered.fingerprint()
        assert sample.as_ordered().freeze().ordered
        assert sample.as_ordered().fingerprint() == ordered.fingerprint()

    def test_pickle_leaves_the_snapshot_out(self, sample):
        before = pickle.dumps(sample)
        fingerprint = sample.fingerprint()
        assert pickle.dumps(sample) == before
        clone = pickle.loads(before)
        assert clone._frozen is None
        assert clone.fingerprint() == fingerprint

    def test_thaw_keeps_idents_and_hands_over_the_snapshot(self, sample):
        # ``build`` numbers nodes in document order, snapshots in BFS
        # order: the second book precedes the author here.
        frozen = sample.freeze()
        thawed = frozen.thaw()
        assert thawed.freeze() is frozen
        assert list(thawed.nodes()) == list(sample.nodes())
        for node in sample.nodes():
            assert thawed.label(node) == sample.label(node)
            assert thawed.attributes(node) == sample.attributes(node)
            assert thawed.children(node) == sample.children(node)
            assert thawed.parent(node) == sample.parent(node)
        fresh = thawed.add_child(thawed.root, "book", {"title": "B3"})
        assert fresh not in set(sample.nodes())
        assert thawed.freeze() is not frozen

    def test_pinned_fingerprints(self):
        assert library.figure_1_source().fingerprint() == (
            "c852ea16a43d702697c18f7c3796beb3f3c982f05aa251a3fbcae17ac70d6144")
        assert library.generate_source(
            4, authors_per_book=2, seed=1).fingerprint() == (
            "5b02d96c0e1a9c8e20b015bc0a7d90ea19b2c33f04c72b7271ce6266bfe2904c")


class TestDeepTrees:
    """Regression: every traversal must be iterative — a depth-5000 chain
    used to blow ``sys.getrecursionlimit()`` in the recursive versions of
    the structural key / ``to_xml`` / ``to_text`` / ``_copy_children``."""

    DEPTH = 5000

    @pytest.fixture(scope="class")
    def chain(self):
        tree = XMLTree("d0")
        node = tree.root
        for level in range(1, self.DEPTH + 1):
            node = tree.add_child(node, f"d{level % 7}", {"level": str(level)})
        return tree

    def test_digest_fingerprint_and_equals(self, chain):
        assert chain.depth() == self.DEPTH
        assert len(chain.freeze().digest(respect_order=False)) == 32
        assert len(chain.fingerprint()) == 64
        # A difference at the deepest node is seen through every level.
        other = chain.copy()
        deepest = list(other.nodes())[-1]
        other.set_attribute(deepest, "level", "changed")
        assert not chain.equals(other)
        assert not chain.equals(other, respect_order=False)
        assert chain.fingerprint() != other.fingerprint()

    def test_to_text_and_to_xml(self, chain):
        text = chain.to_text()
        assert text.count("\n") == self.DEPTH
        xml = chain.to_xml()
        assert xml.startswith("<d0>") and xml.endswith("</d0>")

    def test_copy_graft_and_replace(self, chain):
        clone = chain.copy()
        assert clone.equals(chain)
        host = XMLTree("host")
        grafted = host.graft_subtree(host.root, chain)
        assert host.label(grafted) == "d0"
        assert host.depth() == self.DEPTH + 1
        stub = host.add_child(host.root, "stub")
        replaced = host.replace_subtree(stub, chain)
        assert host.label(replaced) == "d0"

    def test_freeze_deep(self, chain):
        frozen = chain.freeze()
        assert len(frozen) == self.DEPTH + 1
        assert frozen.fingerprint() == chain.fingerprint()

    def test_wire_roundtrip_deep(self, chain):
        from repro.service.protocol import (decode_line, encode_line,
                                            frozen_from_wire, tree_from_wire,
                                            tree_to_wire)
        wire = tree_to_wire(chain)
        # One row per node, parents by row: the JSON nests three levels
        # whatever the depth, so the JSON layer never recurses deeply.
        assert len(wire) == self.DEPTH + 1
        assert [row[2] for row in wire] == list(range(-1, self.DEPTH))
        line = encode_line({"tree": wire})
        rows = decode_line(line)["tree"]
        assert frozen_from_wire(rows).fingerprint() == chain.fingerprint()
        rebuilt = tree_from_wire(rows)
        assert rebuilt.depth() == self.DEPTH
        assert rebuilt.fingerprint() == chain.fingerprint()


class _ReprImpostor:
    """A value whose ``repr`` collides with ``Null(1)`` but which equals
    nothing except itself — the collision the old repr-keyed identity
    schemes would have aliased."""

    def __repr__(self):
        return repr(Null(1))

    def __eq__(self, other):
        return isinstance(other, _ReprImpostor)

    def __hash__(self):
        return 0


class TestAttributeValues:
    """Values are drawn from Str (Section 3.2): a string or a null."""

    def test_other_values_raise_type_error(self):
        tree = XMLTree("r")
        with pytest.raises(TypeError, match="@a"):
            tree.set_attribute(tree.root, "a", 7)
        with pytest.raises(TypeError, match="@b"):
            tree.add_child(tree.root, "c", {"b": 7})
        assert len(tree) == 1  # the refused child was never added
        with pytest.raises(TypeError):
            XMLTree.build(("r", {"a": 7}))
        with pytest.raises(TypeError):
            XMLTree.build(("r", [("c", {"b": 7.5})]))

    def test_strings_and_nulls_are_accepted(self):
        tree = XMLTree.build(("r", {"a": "1"}, [("c", {"b": Null(2)})]))
        assert tree.attribute(tree.root, "a") == "1"


class TestTypeAwareValueIdentity:
    """Regression: dedup/fingerprint keys are type-aware — two distinct
    values with equal ``repr`` must never alias."""

    def test_digest_distinguishes_repr_collisions(self):
        genuine = XMLTree.build(("r", {"a": Null(1)}))
        # XMLTree refuses values outside Str, so the impostor's snapshot is
        # built directly: the digest must stay type-aware all the same.
        impostor = FrozenTree(
            ordered=True, labels=(0,), label_names=("r",),
            label_ids={"r": 0}, parents=(-1,), child_start=(0,),
            child_end=(0,), attr_names=("a",), attr_ids={"a": 0},
            attr_tables=({0: _ReprImpostor()},), orig_ids=(0,))
        assert repr(Null(1)) == repr(_ReprImpostor())
        assert not genuine.equals(impostor)
        assert not genuine.equals(impostor, respect_order=False)
        assert genuine.fingerprint() != impostor.fingerprint()

    def test_dedup_distinguishes_repr_collisions(self):
        from repro.patterns.evaluate import _dedup
        first = {"x": Null(1)}
        second = {"x": _ReprImpostor()}
        assert len(_dedup([first, second, dict(first)])) == 2

    def test_null_never_aliases_its_rendering(self):
        # repr(Null(1)) == "⊥1": a *constant* with that spelling is a
        # different value and must fingerprint differently.
        as_null = XMLTree.build(("r", {"a": Null(1)}))
        as_text = XMLTree.build(("r", {"a": "⊥1"}))
        assert as_null.fingerprint() != as_text.fingerprint()
