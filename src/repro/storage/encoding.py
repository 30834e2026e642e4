"""Columnar pre/post record encoding for frozen trees.

One store record is one self-describing binary blob laid out as a small
header plus a **section directory**: every column of the
:class:`~repro.xmlmodel.frozen.FrozenTree` snapshot (interned labels,
parents, contiguous child spans, per-label node index, attribute value
tables) is an independently addressable byte range, so a reader can slice
a single column out of the mmap without touching the rest of the record.

On top of the frozen columns the record carries the **pre/post interval
plane** of the XPath-accelerator encoding: ``pre[v]`` / ``post[v]`` are
the document-order and bottom-up ranks of node ``v``, and

    ``v`` is an ancestor of ``w``  iff  ``pre[v] < pre[w]`` and
    ``post[v] > post[w]``

— the column pair the structural-join evaluator ranges over.  The ranks
are **not** derived here: :meth:`FrozenTree.pre_post` is the single
source of truth (one iterative DFS, cached on the snapshot), the encoder
persists whatever the snapshot already computed — or forces it once — and
the decoder seeds the loaded snapshot's cache from the record sections,
so a stored document is join-ready without ever re-deriving the plane.

All multi-byte integers are little-endian regardless of host byte order;
fingerprints never enter the record (they are the catalog key).  Label
and attribute *names* plus attribute value tables are JSON sections —
attribute values are strings or nulls (``{"n": ident}``), mirroring the
wire codec's tagged form.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Dict, List, Sequence, Tuple

from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.values import Null, Value
from .errors import StoreError

__all__ = ["encode_document", "decode_document"]

_MAGIC = b"RPST"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIH")          # magic, version, flags, n, sections
_DIRENT = struct.Struct("<HQQ")             # tag, offset, length

# Section tags (u16).  Offsets in the directory are relative to the record
# start, so a record is relocatable — the catalog only stores where the
# whole record lives in the data file.
_SEC_LABEL_NAMES = 1     # JSON list[str]
_SEC_LABELS = 2          # i32[n]   interned label id per BFS position
_SEC_PARENTS = 3         # i32[n]   parent BFS position (-1 at the root)
_SEC_CHILD_START = 4     # i32[n]   first child position (0 for leaves)
_SEC_CHILD_END = 5       # i32[n]   one past the last child position
_SEC_PRE = 6             # i32[n]   pre-order (document-order) rank
_SEC_POST = 7            # i32[n]   post-order (bottom-up) rank
_SEC_BYLABEL_OFF = 8     # i32[L+1] CSR offsets into the positions column
_SEC_BYLABEL_POS = 9     # i32[n]   node positions grouped by label id
_SEC_ORIG_IDS = 10       # i64[n]   source-tree node idents
_SEC_ATTRS = 11          # JSON {"names": [...], "tables": [[pos...],[val...]]}


def _ints_to_bytes(values: Sequence[int], typecode: str = "i") -> bytes:
    arr = array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI
        arr.byteswap()
    return arr.tobytes()


def _ints_from_bytes(buf: bytes, typecode: str = "i") -> Tuple[int, ...]:
    arr = array(typecode)
    arr.frombytes(bytes(buf))
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI
        arr.byteswap()
    return tuple(arr)


def _value_to_record(value: Value) -> object:
    return {"n": value.ident} if isinstance(value, Null) else value


def _value_from_record(raw: object) -> Value:
    if isinstance(raw, dict):
        return Null(raw["n"])
    return raw  # type: ignore[return-value]


def _by_label_csr(labels: Sequence[int],
                  n_labels: int) -> Tuple[List[int], List[int]]:
    """The per-label node index in CSR form: ``positions[offsets[lid] :
    offsets[lid + 1]]`` lists every node carrying label ``lid``,
    ascending (the same index ``FrozenTree.nodes_by_label`` builds
    lazily — persisted, the loaded snapshot starts with it warm)."""
    buckets: List[List[int]] = [[] for _ in range(n_labels)]
    for pos, lid in enumerate(labels):
        buckets[lid].append(pos)
    offsets = [0]
    positions: List[int] = []
    for bucket in buckets:
        positions.extend(bucket)
        offsets.append(len(positions))
    return offsets, positions


def encode_document(frozen: FrozenTree) -> bytes:
    """Serialise ``frozen`` into one relocatable record blob."""
    n = frozen.n
    if n >= 2 ** 31:  # pragma: no cover - 2G-node documents
        raise StoreError(f"document too large for the record format: {n} nodes")
    pre, post = frozen.pre_post()
    offsets, positions = _by_label_csr(frozen.labels, len(frozen.label_names))
    attrs_json = {
        "names": list(frozen.attr_names),
        "tables": [
            [sorted(table), [_value_to_record(table[pos])
                             for pos in sorted(table)]]
            for table in frozen.attr_tables
        ],
    }
    sections: List[Tuple[int, bytes]] = [
        (_SEC_LABEL_NAMES,
         json.dumps(list(frozen.label_names),
                    ensure_ascii=False).encode("utf-8")),
        (_SEC_LABELS, _ints_to_bytes(frozen.labels)),
        (_SEC_PARENTS, _ints_to_bytes(frozen.parents)),
        (_SEC_CHILD_START, _ints_to_bytes(frozen.child_start)),
        (_SEC_CHILD_END, _ints_to_bytes(frozen.child_end)),
        (_SEC_PRE, _ints_to_bytes(pre)),
        (_SEC_POST, _ints_to_bytes(post)),
        (_SEC_BYLABEL_OFF, _ints_to_bytes(offsets)),
        (_SEC_BYLABEL_POS, _ints_to_bytes(positions)),
        (_SEC_ORIG_IDS, _ints_to_bytes(frozen.orig_ids, "q")),
        (_SEC_ATTRS,
         json.dumps(attrs_json, ensure_ascii=False).encode("utf-8")),
    ]
    header = _HEADER.pack(_MAGIC, _VERSION, 1 if frozen.ordered else 0,
                          n, len(sections))
    body_start = _HEADER.size + _DIRENT.size * len(sections)
    directory = bytearray()
    body = bytearray()
    cursor = body_start
    for tag, payload in sections:
        directory += _DIRENT.pack(tag, cursor, len(payload))
        body += payload
        cursor += len(payload)
    return header + bytes(directory) + bytes(body)


def _read_directory(record: memoryview) -> Tuple[bool, int, Dict[int, memoryview]]:
    if len(record) < _HEADER.size:
        raise StoreError("truncated record header")
    magic, version, flags, n, count = _HEADER.unpack_from(record, 0)
    if magic != _MAGIC:
        raise StoreError(f"bad record magic {magic!r}")
    if version != _VERSION:
        raise StoreError(f"unsupported record version {version}")
    sections: Dict[int, memoryview] = {}
    for index in range(count):
        tag, offset, length = _DIRENT.unpack_from(
            record, _HEADER.size + _DIRENT.size * index)
        if offset + length > len(record):
            raise StoreError(f"record section {tag} overruns the record")
        sections[tag] = record[offset:offset + length]
    return bool(flags & 1), n, sections


def decode_document(record: memoryview) -> FrozenTree:
    """Rebuild the :class:`FrozenTree` snapshot from one record blob.

    The per-label index arrives pre-built (``nodes_by_label`` is warm from
    the first access); the fingerprint cache is *not* filled here — the
    store seeds it from the catalog key, which owns that binding.
    """
    ordered, n, sections = _read_directory(record)
    label_names = tuple(json.loads(bytes(sections[_SEC_LABEL_NAMES])))
    labels = _ints_from_bytes(sections[_SEC_LABELS])
    if len(labels) != n:
        raise StoreError(f"label column holds {len(labels)} entries, "
                         f"header says {n}")
    attrs_json = json.loads(bytes(sections[_SEC_ATTRS]))
    attr_names = tuple(attrs_json["names"])
    attr_tables = tuple(
        dict(zip(positions, (_value_from_record(raw) for raw in values)))
        for positions, values in attrs_json["tables"])
    frozen = FrozenTree(
        ordered=ordered,
        labels=labels,
        label_names=label_names,
        label_ids={name: lid for lid, name in enumerate(label_names)},
        parents=_ints_from_bytes(sections[_SEC_PARENTS]),
        child_start=_ints_from_bytes(sections[_SEC_CHILD_START]),
        child_end=_ints_from_bytes(sections[_SEC_CHILD_END]),
        attr_names=attr_names,
        attr_ids={name: aid for aid, name in enumerate(attr_names)},
        attr_tables=attr_tables,
        orig_ids=_ints_from_bytes(sections[_SEC_ORIG_IDS], "q"),
    )
    offsets = _ints_from_bytes(sections[_SEC_BYLABEL_OFF])
    positions = _ints_from_bytes(sections[_SEC_BYLABEL_POS])
    frozen._by_label = tuple(
        positions[offsets[lid]:offsets[lid + 1]]
        for lid in range(len(label_names)))
    # The record carries the pre/post plane the encoder persisted; seed the
    # snapshot's cache so a loaded document is structural-join-ready
    # without re-deriving the intervals.
    frozen._pre_post = (_ints_from_bytes(sections[_SEC_PRE]),
                        _ints_from_bytes(sections[_SEC_POST]))
    return frozen
