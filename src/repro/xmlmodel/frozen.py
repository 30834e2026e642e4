"""Immutable, label-interned tree snapshots: the plan evaluator's input.

A :class:`FrozenTree` is a read-only snapshot of an
:class:`~repro.xmlmodel.tree.XMLTree` laid out as flat integer arrays:

* nodes are renumbered ``0 .. n-1`` in **breadth-first order**, so the
  children of every node occupy one contiguous span — ``children(v)`` is a
  ``range``, not an allocation;
* labels and attribute names are **interned** to small integers per tree;
  a pattern's label test compiles to one ``int`` comparison and a missing
  label is detected once at bind time instead of per node;
* ``nodes_by_label[label_id]`` indexes all nodes carrying a label (built
  lazily on first use) — the candidate seed of every labelled node op in
  the plan evaluator of :mod:`repro.patterns.plan`;
* attribute values live in per-attribute tables ``{node: value}`` keyed by
  the interned attribute id — one dict lookup per attribute test;
* ``post_order`` is a bottom-up order (every node after all of its
  descendants), which the Merkle digest fold iterates;
* :meth:`pre_post` derives (and caches) the **pre/post interval plane** of
  the XPath-accelerator encoding — the single source of truth shared by
  the storage record encoder (:mod:`repro.storage.encoding`) and the plan
  evaluator, which reads a root ``//`` chain off it in pre order with the
  companion :meth:`depths` column;
* :meth:`digest` is the document's one Merkle fold, computed
  **iteratively**; :meth:`fingerprint` hashes it with the ordered flag and
  caches the result.  ``XMLTree.fingerprint()`` and ``XMLTree.equals()``
  read it off the tree's memoised snapshot, so frozen and mutable views of
  a document share cache identity by construction.

Freezing pays one O(n) pass; everything afterwards is allocation-free
reads.  A tree memoises its snapshot (:meth:`XMLTree.freeze`), so the
pre-solution, the chase's conformance check and query evaluation all
share one.  A source document is a snapshot end to end, decoded from
the wire or the store without an ``XMLTree``; :meth:`FrozenTree.freeze`
returns the snapshot itself, so a reader taking either form calls
``.freeze()``.  :meth:`thaw` rebuilds a mutable tree around a snapshot.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .values import Value, value_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .tree import XMLTree

__all__ = ["FrozenTree", "compute_pre_post"]


def _node_digest(label: str, attrs: tuple, child_digests: List[bytes],
                 respect_order: bool) -> bytes:
    """Merkle digest of one node: shallow payload plus child digests.

    ``attrs`` is the sorted tuple of ``(name, value_key(value))`` pairs.
    The payload rendered here is *shallow* (strings and flat tuples only)
    and child digests are fixed-length, so the scheme is unambiguous and —
    unlike rendering one nested structural key for the whole tree — never
    recurses, whatever the document depth.  Unordered trees sort the child
    digests, which canonicalises exactly up to sibling permutation.
    """
    hasher = hashlib.sha256()
    hasher.update(repr((label, attrs)).encode("utf-8"))
    hasher.update(b"|")
    if not respect_order:
        child_digests = sorted(child_digests)
    for digest in child_digests:
        hasher.update(digest)
    return hasher.digest()


def compute_pre_post(child_start: Sequence[int], child_end: Sequence[int],
                     n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Pre/post ranks of every BFS position (iterative DFS, O(n)).

    ``pre[v]`` / ``post[v]`` are the document-order and bottom-up ranks of
    node ``v``; ``v`` is an ancestor of ``w`` iff ``pre[v] < pre[w]`` and
    ``post[v] > post[w]`` (the XPath-accelerator plane).  Leaves carry
    ``child_start == child_end == 0`` in the frozen layout, which
    conveniently yields an empty child range.
    """
    pre = [0] * n
    post = [0] * n
    pre_rank = 0
    post_rank = 0
    stack: List[int] = [0] if n else []
    # Encoding: positive entry = enter node, ~entry = leave node.
    while stack:
        node = stack.pop()
        if node < 0:
            post[~node] = post_rank
            post_rank += 1
            continue
        pre[node] = pre_rank
        pre_rank += 1
        stack.append(~node)
        for child in range(child_end[node] - 1, child_start[node] - 1, -1):
            stack.append(child)
    return tuple(pre), tuple(post)


class FrozenTree:
    """An immutable array-backed snapshot of an XML tree.

    Build one with :meth:`XMLTree.freeze`, which memoises it on the tree,
    or decode one from the wire or the store.  All fields are read-only by
    convention; nothing in the pipeline mutates a frozen tree, and the
    fingerprint cache relies on that.
    """

    __slots__ = (
        "ordered", "n",
        "labels", "label_names", "label_ids",
        "parents", "child_start", "child_end",
        "attr_names", "attr_ids", "attr_tables",
        "orig_ids",
        "_by_label", "_fingerprint",
        "_pre_post", "_depths",
        # Weak-referenceable: compiled pattern plans key their per-tree
        # bind caches on the snapshot without pinning it alive.
        "__weakref__",
    )

    def __init__(self, *, ordered: bool, labels: Tuple[int, ...],
                 label_names: Tuple[str, ...], label_ids: Dict[str, int],
                 parents: Tuple[int, ...], child_start: Tuple[int, ...],
                 child_end: Tuple[int, ...],
                 attr_names: Tuple[str, ...], attr_ids: Dict[str, int],
                 attr_tables: Tuple[Dict[int, Value], ...],
                 orig_ids: Tuple[int, ...]) -> None:
        self.ordered = ordered
        self.n = len(labels)
        self.labels = labels
        self.label_names = label_names
        self.label_ids = label_ids
        self.parents = parents
        self.child_start = child_start
        self.child_end = child_end
        self.attr_names = attr_names
        self.attr_ids = attr_ids
        self.attr_tables = attr_tables
        self.orig_ids = orig_ids
        self._by_label: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._fingerprint: Optional[str] = None
        self._pre_post: Optional[Tuple[Tuple[int, ...],
                                       Tuple[int, ...]]] = None
        self._depths: Optional[Tuple[int, ...]] = None

    @property
    def post_order(self) -> range:
        """Positions descending: children carry larger BFS positions than
        their parent, so this visits every node after all of its
        descendants — a bottom-up order without a DFS pass."""
        return range(self.n - 1, -1, -1)

    @property
    def nodes_by_label(self) -> Tuple[Tuple[int, ...], ...]:
        """``nodes_by_label[label_id]``: every node position carrying the
        label, ascending.  Built lazily on first use and cached — the
        snapshot is immutable.  This is the candidate seed of the
        plan evaluator in :mod:`repro.patterns.plan` (a node op with a
        selective label scans these positions instead of every node)."""
        if self._by_label is None:
            index: List[List[int]] = [[] for _ in self.label_names]
            for pos, lid in enumerate(self.labels):
                index[lid].append(pos)
            self._by_label = tuple(tuple(ns) for ns in index)
        return self._by_label

    def pre_post(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The cached ``(pre, post)`` interval columns of this snapshot.

        Computed once per tree (:func:`compute_pre_post`) and shared by
        every consumer — the plan evaluator orders root ``//`` matches by
        them, and the storage encoder persists the very same columns, so
        freezing + ingesting a document never derives the plane twice.  The
        store's decoder seeds this cache from the record sections.
        """
        if self._pre_post is None:
            self._pre_post = compute_pre_post(self.child_start,
                                              self.child_end, self.n)
        return self._pre_post

    def depths(self) -> Tuple[int, ...]:
        """Root distance of every position (cached; one forward pass —
        parents always carry smaller BFS ids than their children)."""
        if self._depths is None:
            depths = [0] * self.n
            parents = self.parents
            for pos in range(1, self.n):
                depths[pos] = depths[parents[pos]] + 1
            self._depths = tuple(depths)
        return self._depths

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_tree(cls, tree: "XMLTree") -> "FrozenTree":
        """Snapshot ``tree`` (one breadth-first pass, O(n)); called by
        :meth:`XMLTree.freeze`, which memoises the result.

        Breadth-first renumbering makes every position arithmetic: a node's
        children are enqueued consecutively, so their span is
        ``[len(queue), len(queue) + k)`` the moment the parent is visited —
        no id→position table is ever needed.
        """
        label_ids: Dict[str, int] = {}
        label_names: List[str] = []
        attr_ids: Dict[str, int] = {}
        attr_names: List[str] = []
        attr_tables: List[Dict[int, Value]] = []

        labels: List[int] = []
        parents: List[int] = [-1]
        child_start: List[int] = []
        child_end: List[int] = []
        orig_ids: List[int] = []

        node_of = tree.node
        queue = [node_of(tree.root)]
        pos = 0
        while pos < len(queue):
            node = queue[pos]
            lid = label_ids.get(node.label)
            if lid is None:
                lid = len(label_names)
                label_ids[node.label] = lid
                label_names.append(node.label)
            labels.append(lid)
            kids = node.children
            first = len(queue)
            child_start.append(first if kids else 0)
            child_end.append(first + len(kids) if kids else 0)
            for child in kids:
                queue.append(node_of(child))
                parents.append(pos)
            orig_ids.append(node.ident)
            for name, value in node._attributes.items():
                aid = attr_ids.get(name)
                if aid is None:
                    aid = len(attr_names)
                    attr_ids[name] = aid
                    attr_names.append(name)
                    attr_tables.append({})
                attr_tables[aid][pos] = value
            pos += 1

        return cls(
            ordered=tree.ordered,
            labels=tuple(labels),
            label_names=tuple(label_names),
            label_ids=label_ids,
            parents=tuple(parents),
            child_start=tuple(child_start),
            child_end=tuple(child_end),
            attr_names=tuple(attr_names),
            attr_ids=attr_ids,
            attr_tables=tuple(attr_tables),
            orig_ids=tuple(orig_ids),
        )

    # ------------------------------------------------------------------ #
    # Accessors (mirroring the XMLTree read API on positions)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.n

    def freeze(self) -> "FrozenTree":
        """The snapshot itself — the read view :meth:`XMLTree.freeze`
        gives a tree, so a reader taking either form calls ``.freeze()``."""
        return self

    def label(self, pos: int) -> str:
        """The label string of the node at ``pos``."""
        return self.label_names[self.labels[pos]]

    def label_id(self, label: str) -> int:
        """The interned id of ``label``, or ``-1`` when no node carries it
        (a pattern bound against this tree then fails the label test once,
        at bind time)."""
        return self.label_ids.get(label, -1)

    def children(self, pos: int) -> range:
        """Child positions of ``pos`` in sibling order (a ``range`` — the
        BFS numbering keeps every sibling span contiguous)."""
        return range(self.child_start[pos], self.child_end[pos])

    def parent(self, pos: int) -> Optional[int]:
        parent = self.parents[pos]
        return None if parent < 0 else parent

    def attribute(self, pos: int, name: str) -> Optional[Value]:
        """``ρ_@name(v)`` or ``None`` (one interning + one dict lookup)."""
        aid = self.attr_ids.get(name)
        if aid is None:
            return None
        return self.attr_tables[aid].get(pos)

    def attributes(self, pos: int) -> Dict[str, Value]:
        """The attribute map of the node at ``pos`` (reconstructed — for
        inspection and tests, not the hot path)."""
        result: Dict[str, Value] = {}
        for aid, table in enumerate(self.attr_tables):
            value = table.get(pos)
            if value is not None:
                result[self.attr_names[aid]] = value
        return result

    # ------------------------------------------------------------------ #
    # Thawing
    # ------------------------------------------------------------------ #

    def thaw(self) -> "XMLTree":
        """Rebuild the mutable :class:`XMLTree` this snapshot was taken of:
        the same node idents (``orig_ids``), structure, labels and
        attributes, with this snapshot memoised as its :meth:`XMLTree.freeze`
        — so its fingerprint, conformance check and plans never re-freeze
        or re-hash it.

        The request path never thaws a source document; this serves
        callers that want a mutable tree (``tree_from_wire``).  One pass
        over the columns: a node's children are the contiguous slice
        ``orig_ids[child_start:child_end]`` of its BFS position.
        """
        from .tree import XMLNode, XMLTree
        ids = self.orig_ids
        parents = self.parents
        starts, ends = self.child_start, self.child_end
        names, labels = self.label_names, self.labels
        nodes: Dict[int, XMLNode] = {}
        for pos in range(self.n):
            parent = parents[pos]
            nodes[ids[pos]] = XMLNode(
                ids[pos], names[labels[pos]],
                children=ids[starts[pos]:ends[pos]],
                parent=None if parent < 0 else ids[parent])
        for aid, table in enumerate(self.attr_tables):
            name = self.attr_names[aid]
            for pos, value in table.items():
                nodes[ids[pos]]._attributes[name] = value
        tree = XMLTree(names[labels[0]], ordered=self.ordered)
        tree._nodes = nodes
        tree._next_id = max(ids) + 1
        tree.root = ids[0]
        tree._frozen = self
        return tree

    # ------------------------------------------------------------------ #
    # Merkle digest and fingerprint
    # ------------------------------------------------------------------ #

    def digest(self, respect_order: bool) -> bytes:
        """Merkle digest of the whole document, computed iteratively from
        the frozen arrays — node digests in ``post_order``, children
        first.  Two snapshots have the same digest iff their documents are
        isomorphic (respecting sibling order when asked) with identical
        labels and attribute values; values are keyed type-aware via
        :func:`~repro.xmlmodel.values.value_key`, nulls by identity."""
        attrs_of: Dict[int, List[Tuple[str, tuple]]] = {}
        for aid, table in enumerate(self.attr_tables):
            name = self.attr_names[aid]
            for pos, value in table.items():
                attrs_of.setdefault(pos, []).append((name, value_key(value)))
        digests: List[bytes] = [b""] * self.n
        for pos in self.post_order:  # children before parents
            digests[pos] = _node_digest(
                self.label(pos), tuple(sorted(attrs_of.get(pos, ()))),
                [digests[c] for c in self.children(pos)], respect_order)
        return digests[0]

    def fingerprint(self) -> str:
        """The document's content fingerprint: hex SHA-256 of the ordered
        flag plus :meth:`digest` under that flag.  Cached — a frozen tree is
        immutable, so the cache never invalidates; the store seeds it from
        the catalog key.  ``XMLTree.fingerprint()`` reads it off the tree's
        memoised snapshot."""
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(b"ordered" if self.ordered else b"unordered")
            hasher.update(self.digest(self.ordered))
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:
        kind = "ordered" if self.ordered else "unordered"
        return (f"<FrozenTree {kind} root={self.label(0)!r} nodes={self.n} "
                f"labels={len(self.label_names)}>")
