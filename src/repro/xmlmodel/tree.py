"""XML documents as node-labelled unranked trees (paper, Section 2).

An XML tree over ``(E, A)`` is a finite ordered directed tree
``(N, <child, <sib, root)`` with

* a labelling function ``λ : N → E`` assigning an element type to every node,
* a partial function ``ρ_@a : N → Str`` per attribute ``@a ∈ A``.

The paper also works with *unordered* XML trees (Section 5.2), obtained by
forgetting the sibling order.  We use a single :class:`XMLTree` class with an
``ordered`` flag; children of a node are always stored in a tuple, but for an
unordered tree the tuple order carries no meaning (conformance is checked
against the permutation language ``π(P(ℓ))`` instead of ``L(P(ℓ))``).

Nodes are identified by integer ids local to the tree, which keeps structural
operations (chase rewrites, subtree replacement, homomorphism search) cheap
and explicit.

Two representation choices matter for the hot path:

* child tuples are returned *by reference* from :meth:`XMLTree.children` —
  the read path never copies; all structural mutation goes through the
  tree's mutation methods, which rebuild the (small) sibling tuple;
* every traversal (:meth:`to_text`, :meth:`to_xml`, subtree copying) is
  iterative, so arbitrarily deep documents never hit the interpreter
  recursion limit.

:meth:`XMLTree.freeze` snapshots the tree into an immutable
:class:`~repro.xmlmodel.frozen.FrozenTree` — label-interned int arrays with
per-label indexes — and memoises it until the next mutation.  That one
snapshot is the tree's read view for every whole-tree read: the compiled
query-plan evaluator (:mod:`repro.patterns.plan`), the fingerprint,
:meth:`XMLTree.equals` and DTD conformance all run on it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .values import Null, Value, is_constant, is_null

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (frozen imports us)
    from .frozen import FrozenTree

__all__ = ["XMLNode", "XMLTree"]


def _check_value(name: str, value: object) -> None:
    """Attribute values are drawn from Str (Section 3.2): a constant
    (``str``) or a null; the wire codec draws the same line."""
    if not isinstance(value, (str, Null)):
        raise TypeError(f"attribute @{name} takes a string or a Null, got "
                        f"{type(value).__name__} {value!r:.40}")


class XMLNode:
    """A single node of an :class:`XMLTree`.

    Attributes
    ----------
    ident:
        Integer id, unique within the owning tree.
    label:
        The element type of the node (``λ(v)`` in the paper).
    attributes:
        Read-only mapping attribute-name -> value (``ρ_@a(v)``).  Attribute
        names are stored *without* the leading ``@``.  Mutation goes
        through the owning tree (:meth:`XMLTree.set_attribute`,
        :meth:`XMLTree.clear_attributes`), which drops the tree's
        memoised snapshot — the view raises on write.
    children:
        Child node ids, in sibling order (meaningful only if the tree is
        ordered).  Stored as a tuple: reads share it, mutation methods on
        the owning tree replace it wholesale.
    parent:
        Parent node id, or ``None`` for the root.
    """

    __slots__ = ("ident", "label", "_attributes", "children", "parent")

    def __init__(self, ident: int, label: str,
                 attributes: Optional[Dict[str, Value]] = None,
                 children: Tuple[int, ...] = (),
                 parent: Optional[int] = None) -> None:
        self.ident = ident
        self.label = label
        self._attributes: Dict[str, Value] = dict(attributes or {})
        self.children = children
        self.parent = parent

    @property
    def attributes(self) -> Mapping[str, Value]:
        """The attribute map, as a read-only view of the live storage."""
        return MappingProxyType(self._attributes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"XMLNode(ident={self.ident}, label={self.label!r}, "
                f"attributes={self._attributes!r}, "
                f"children={self.children!r}, parent={self.parent!r})")


class XMLTree:
    """A rooted, node-labelled unranked tree with attribute values.

    The class supports both the ordered trees of Section 2 and the unordered
    trees of Section 5.2; the ``ordered`` flag records which reading is
    intended.  Structural mutation is confined to a small set of methods used
    by the chase (:mod:`repro.exchange.chase`); mutating the node objects
    directly bypasses the memoised snapshot and is not supported.
    """

    def __init__(self, root_label: str, ordered: bool = True) -> None:
        self.ordered = ordered
        self._nodes: Dict[int, XMLNode] = {}
        self._next_id = 0
        #: The memoised :meth:`freeze` snapshot; dropped by every structural
        #: mutation (all of which funnel through the methods below).
        self._frozen: Optional["FrozenTree"] = None
        self.root = self._new_node(root_label, parent=None)

    def __getstate__(self) -> dict:
        # The snapshot is a cache: pickling it would ship every tree twice.
        state = self.__dict__.copy()
        del state["_frozen"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Trees pickled before the snapshot memo carry a fingerprint cache.
        state.pop("_fp_cache", None)
        self.__dict__.update(state)
        self._frozen = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _invalidate(self) -> None:
        self._frozen = None

    def _new_node(self, label: str, parent: Optional[int]) -> int:
        ident = self._next_id
        self._next_id += 1
        self._nodes[ident] = XMLNode(ident=ident, label=label, parent=parent)
        self._invalidate()
        return ident

    def add_child(self, parent: int, label: str,
                  attributes: Optional[Dict[str, Value]] = None,
                  position: Optional[int] = None) -> int:
        """Create a new node labelled ``label`` as a child of ``parent``.

        ``position`` inserts the child at a given index in the sibling order;
        by default the child is appended.
        Returns the new node's id.  Attribute values are checked as by
        :meth:`set_attribute`.
        """
        for name, value in (attributes or {}).items():
            _check_value(name, value)
        ident = self._new_node(label, parent=parent)
        if attributes:
            self._nodes[ident]._attributes.update(attributes)
        siblings = self._nodes[parent].children
        if position is None:
            self._nodes[parent].children = siblings + (ident,)
        else:
            self._nodes[parent].children = (siblings[:position] + (ident,)
                                            + siblings[position:])
        return ident

    def set_attribute(self, node: int, name: str, value: Value) -> None:
        """Set attribute ``@name`` of ``node`` to ``value``: a constant
        (``str``) or a :class:`~repro.xmlmodel.values.Null` — any other value
        is a ``TypeError``, since it would silently drop out of every
        certain answer."""
        _check_value(name, value)
        self._nodes[node]._attributes[name] = value
        self._invalidate()

    def clear_attributes(self, node: int) -> None:
        """Drop every attribute of ``node`` (the write-path counterpart of
        the read-only :meth:`attributes` view)."""
        self._nodes[node]._attributes.clear()
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def node(self, ident: int) -> XMLNode:
        """Return the node object with the given id."""
        return self._nodes[ident]

    def label(self, ident: int) -> str:
        """Return ``λ(v)``, the element type of node ``ident``."""
        return self._nodes[ident].label

    def attributes(self, ident: int) -> Mapping[str, Value]:
        """Return the attribute map of node ``ident`` (a read-only view —
        write through :meth:`set_attribute` / :meth:`clear_attributes`)."""
        return self._nodes[ident].attributes

    def attribute(self, ident: int, name: str) -> Optional[Value]:
        """Return ``ρ_@name(v)`` or ``None`` if undefined."""
        return self._nodes[ident]._attributes.get(name)

    def children(self, ident: int) -> Tuple[int, ...]:
        """Return the child ids of ``ident`` (in sibling order).

        The tuple is the node's own child storage, returned without copying
        — this sits in the innermost loop of pattern matching.  Mutation
        goes through the tree's methods, which replace the tuple instead of
        modifying it, so a returned tuple is stable forever.
        """
        return self._nodes[ident].children

    def parent(self, ident: int) -> Optional[int]:
        """Return the parent id of ``ident`` (``None`` for the root)."""
        return self._nodes[ident].parent

    def nodes(self) -> Iterator[int]:
        """Iterate over all node ids reachable from the root (pre-order)."""
        stack = [self.root]
        while stack:
            ident = stack.pop()
            yield ident
            stack.extend(reversed(self._nodes[ident].children))

    def __len__(self) -> int:
        return sum(1 for _ in self.nodes())

    def size(self) -> int:
        """Number of nodes plus number of attribute assignments (``‖T‖``)."""
        total = 0
        for ident in self.nodes():
            total += 1 + len(self._nodes[ident]._attributes)
        return total

    def depth(self) -> int:
        """Length (in edges) of the longest root-to-leaf path."""
        best = 0
        stack: List[Tuple[int, int]] = [(self.root, 0)]
        while stack:
            ident, d = stack.pop()
            best = max(best, d)
            for child in self._nodes[ident].children:
                stack.append((child, d + 1))
        return best

    def descendants(self, ident: int, include_self: bool = False) -> Iterator[int]:
        """Iterate over the (proper, by default) descendants of ``ident``."""
        if include_self:
            yield ident
        stack = list(self._nodes[ident].children)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(self._nodes[node].children)

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True iff ``ancestor`` is a proper ancestor of ``node``."""
        current = self._nodes[node].parent
        while current is not None:
            if current == ancestor:
                return True
            current = self._nodes[current].parent
        return False

    def children_labels(self, ident: int) -> List[str]:
        """Return the list of labels of ``ident``'s children in sibling order."""
        return [self._nodes[c].label for c in self._nodes[ident].children]

    def values(self) -> Iterator[Value]:
        """Iterate over every attribute value occurring in the tree."""
        for ident in self.nodes():
            yield from self._nodes[ident]._attributes.values()

    def constants(self) -> set:
        """Return the set of constant values occurring in the tree."""
        return {v for v in self.values() if is_constant(v)}

    def nulls(self) -> set:
        """Return the set of nulls occurring in the tree."""
        return {v for v in self.values() if is_null(v)}

    # ------------------------------------------------------------------ #
    # Mutation used by the chase
    # ------------------------------------------------------------------ #

    def remove_subtree(self, ident: int) -> None:
        """Delete node ``ident`` and its whole subtree from the tree."""
        if ident == self.root:
            raise ValueError("cannot remove the root of the tree")
        parent = self._nodes[ident].parent
        if parent is not None:
            siblings = self._nodes[parent].children
            self._nodes[parent].children = tuple(c for c in siblings
                                                 if c != ident)
        doomed = [ident] + list(self.descendants(ident))
        for node in doomed:
            self._nodes.pop(node, None)
        self._invalidate()

    def replace_subtree(self, target: int, source_tree: "XMLTree",
                        source_root: Optional[int] = None) -> int:
        """Replace the subtree rooted at ``target`` with a copy of another tree.

        Used by the path-shortening argument of Theorem 5.5 and by tests; the
        copied subtree keeps its labels and attribute values.  Returns the id
        of the new subtree root in ``self``.
        """
        if target == self.root:
            raise ValueError("cannot replace the root subtree")
        parent = self._nodes[target].parent
        assert parent is not None
        position = self._nodes[parent].children.index(target)
        self.remove_subtree(target)
        src_root = source_root if source_root is not None else source_tree.root
        new_root = self.add_child(parent, source_tree.label(src_root),
                                  dict(source_tree.attributes(src_root)),
                                  position=position)
        self._copy_children(source_tree, src_root, new_root)
        return new_root

    def _copy_children(self, source_tree: "XMLTree", src: int, dst: int) -> None:
        stack = [(src, dst)]
        while stack:
            src_node, dst_node = stack.pop()
            for child in source_tree.children(src_node):
                new_child = self.add_child(dst_node, source_tree.label(child),
                                           dict(source_tree.attributes(child)))
                stack.append((child, new_child))

    def graft_subtree(self, parent: int, source_tree: "XMLTree",
                      source_root: Optional[int] = None) -> int:
        """Copy a subtree of another tree as a new child of ``parent``."""
        src_root = source_root if source_root is not None else source_tree.root
        new_root = self.add_child(parent, source_tree.label(src_root),
                                  dict(source_tree.attributes(src_root)))
        self._copy_children(source_tree, src_root, new_root)
        return new_root

    def merge_children(self, parent: int, victims: Sequence[int]) -> int:
        """Merge several children of ``parent`` into a single fresh node.

        This implements the node-merging step of ``ChangeReg`` (Figure 7): the
        merged node receives the union of the victims' children; attribute
        merging is handled by the caller, which must have checked for clashes.
        The merged node takes the sibling position of the first victim.
        Returns the id of the merged node.
        """
        if not victims:
            raise ValueError("need at least one node to merge")
        # Same precondition the pre-tuple code enforced via .index():
        # every victim must actually be a child of ``parent``, otherwise
        # the rebuild below would silently drop the merged node.
        siblings = set(self._nodes[parent].children)
        strangers = [victim for victim in victims if victim not in siblings]
        if strangers:
            raise ValueError(
                f"cannot merge node(s) {strangers}: not children of "
                f"node {parent}")
        label = self._nodes[victims[0]].label
        merged = self._new_node(label, parent=parent)
        merged_children: List[int] = []
        victim_set = set(victims)
        for victim in victims:
            for child in self._nodes[victim].children:
                self._nodes[child].parent = merged
                merged_children.append(child)
            self._nodes[victim].children = ()
        self._nodes[merged].children = tuple(merged_children)
        siblings = self._nodes[parent].children
        reordered: List[int] = []
        for child in siblings:
            if child == victims[0]:
                reordered.append(merged)
            elif child not in victim_set:
                reordered.append(child)
        self._nodes[parent].children = tuple(reordered)
        for victim in victims:
            self._nodes.pop(victim)
        self._invalidate()
        return merged

    def reorder_children(self, ident: int, new_order: Sequence[int]) -> None:
        """Replace the sibling order of ``ident``'s children.

        ``new_order`` must be a permutation of the current children (used by
        :func:`repro.exchange.ordering.order_tree` to realise a conforming
        sibling order).
        """
        node = self._nodes[ident]
        if sorted(new_order) != sorted(node.children):
            raise ValueError(
                f"new order {list(new_order)!r} is not a permutation of the "
                f"children {list(node.children)!r} of node {ident}")
        node.children = tuple(new_order)
        self._invalidate()

    # ------------------------------------------------------------------ #
    # Copying / comparison / rendering
    # ------------------------------------------------------------------ #

    def copy(self) -> "XMLTree":
        """Return a deep copy of the tree (same node ids)."""
        clone = XMLTree(self.label(self.root), ordered=self.ordered)
        clone._nodes = {}
        clone._next_id = self._next_id
        for ident, node in self._nodes.items():
            clone._nodes[ident] = XMLNode(
                ident=ident,
                label=node.label,
                attributes=node._attributes,
                children=node.children,
                parent=node.parent,
            )
        clone.root = self.root
        clone._frozen = self._frozen  # same idents, so the same snapshot
        return clone

    def as_ordered(self) -> "XMLTree":
        """Return a copy of this tree flagged as ordered (keeping child lists)."""
        clone = self.copy()
        clone.ordered = True
        return clone

    def freeze(self) -> "FrozenTree":
        """The tree's immutable :class:`~repro.xmlmodel.frozen.FrozenTree`
        snapshot (label-interned arrays, per-label indexes, cached
        fingerprint) — the one read view behind :meth:`fingerprint`,
        :meth:`equals`, DTD conformance and the compiled plan evaluator.

        Memoised: repeated calls on a settled tree return the same
        snapshot; every mutation drops it, and so does a change of the
        ``ordered`` flag.  Later mutations of this tree do not affect a
        snapshot already handed out."""
        frozen = self._frozen
        if frozen is None or frozen.ordered != self.ordered:
            from .frozen import FrozenTree
            frozen = self._frozen = FrozenTree.from_tree(self)
        return frozen

    def fingerprint(self) -> str:
        """A content fingerprint of the tree: the hex SHA-256 of its Merkle
        digest plus the ordered flag (labels, attribute values and — for
        ordered trees — sibling order).  Two trees have the same
        fingerprint iff they are structurally equal, so the digest is a
        sound cache key for per-tree results (the engine's result cache
        keys on it).  Nulls are fingerprinted by identity (``⊥n``),
        type-aware via :func:`~repro.xmlmodel.values.value_key`.  Read
        off the memoised :meth:`freeze` snapshot, so repeated cache-key
        computations on a settled tree are free."""
        return self.freeze().fingerprint()

    def equals(self, other: "XMLTree", respect_order: Optional[bool] = None) -> bool:
        """Structural equality of two trees: isomorphic (respecting sibling
        order when asked; by default only when both trees are ordered) with
        identical labels and attribute values.  Compares the Merkle digests
        of the two snapshots, so arbitrarily deep documents compare without
        recursion."""
        if respect_order is None:
            respect_order = self.ordered and other.ordered
        return (self.freeze().digest(respect_order)
                == other.freeze().digest(respect_order))

    def to_text(self, ident: Optional[int] = None, indent: int = 0) -> str:
        """Human-readable indented rendering of the (sub)tree (iterative)."""
        if ident is None:
            ident = self.root
        parts: List[str] = []
        stack: List[Tuple[int, int]] = [(ident, indent)]
        while stack:
            node_id, level = stack.pop()
            node = self._nodes[node_id]
            attrs = " ".join(f"@{k}={v!r}"
                             for k, v in sorted(node._attributes.items()))
            parts.append("  " * level + node.label
                         + (f" [{attrs}]" if attrs else ""))
            stack.extend((child, level + 1)
                         for child in reversed(node.children))
        return "\n".join(parts)

    def to_xml(self, ident: Optional[int] = None) -> str:
        """Serialise the (sub)tree to an XML string (nulls rendered as
        ``⊥n``).  Iterative: deep documents never hit the recursion limit."""
        if ident is None:
            ident = self.root
        out: List[str] = []
        #: (node id, opened?): the False entry emits the opening tag and
        #: re-pushes itself as True to emit the closing tag after the
        #: children are done.
        stack: List[Tuple[int, bool]] = [(ident, False)]
        while stack:
            node_id, closing = stack.pop()
            node = self._nodes[node_id]
            if closing:
                out.append(f"</{node.label}>")
                continue
            attrs = "".join(
                f' {k}="{v}"'
                for k, v in sorted(node._attributes.items(),
                                   key=lambda kv: kv[0]))
            if not node.children:
                out.append(f"<{node.label}{attrs}/>")
                continue
            out.append(f"<{node.label}{attrs}>")
            stack.append((node_id, True))
            stack.extend((child, False) for child in reversed(node.children))
        return "".join(out)

    def __repr__(self) -> str:
        kind = "ordered" if self.ordered else "unordered"
        return f"<XMLTree {kind} root={self.label(self.root)!r} nodes={len(self)}>"

    # ------------------------------------------------------------------ #
    # Convenience builders
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, spec, ordered: bool = True) -> "XMLTree":
        """Build a tree from a nested-tuple specification.

        ``spec`` is ``(label, attrs_dict, [child_spec, ...])`` where the
        attribute dict and the children list may be omitted.  Example::

            XMLTree.build(("db", [("book", {"title": "CC"},
                                   [("author", {"name": "P", "aff": "UCB"})])]))
        """
        label, attrs, children = cls._normalise_spec(spec)
        tree = cls(label, ordered=ordered)
        for key, val in attrs.items():
            tree.set_attribute(tree.root, key, val)
        for child in children:
            cls._build_into(tree, tree.root, child)
        return tree

    @classmethod
    def _build_into(cls, tree: "XMLTree", parent: int, spec) -> None:
        label, attrs, children = cls._normalise_spec(spec)
        node = tree.add_child(parent, label, dict(attrs))
        for child in children:
            cls._build_into(tree, node, child)

    @staticmethod
    def _normalise_spec(spec) -> Tuple[str, Dict[str, Value], list]:
        if isinstance(spec, str):
            return spec, {}, []
        label = spec[0]
        attrs: Dict[str, Value] = {}
        children: list = []
        for part in spec[1:]:
            if isinstance(part, dict):
                attrs = part
            else:
                children = list(part)
        return label, attrs, children
