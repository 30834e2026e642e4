"""The persistent corpus store: SQLite catalog + mmap'd record heap.

``CorpusStore`` is stdlib-first — no server, no third-party driver.  A
store is a directory holding exactly two files:

``catalog.db``
    A SQLite database mapping ``fingerprint -> (offset, length)`` into the
    record heap, plus pickled :class:`~repro.engine.compiled.CompiledSetting`
    blobs and the committed high-water mark of the heap (``data_end``).
``trees.bin``
    An append-only heap of the columnar records built by
    :mod:`repro.storage.encoding`, mmap'd for reads.

**Durability contract.**  Ingest appends record bytes at the committed
``data_end``, flushes and ``fsync``\\ s the heap, and only then commits one
SQLite transaction inserting the catalog rows and advancing ``data_end``.
The SQLite commit is the *only* commit point: a process killed at any
instant leaves either the old catalog (orphan heap bytes past ``data_end``,
reclaimed by the next writer) or the new one (whose rows point at fully
fsync'd bytes) — never a catalog row referencing torn data.  Bulk ingest
(:meth:`put_trees`) commits per chunk, so a kill loses at most the
in-flight chunk.

**Single writer, many readers.**  One process owns writes (the serving
supervisor); any number of handles — including in other processes, e.g.
shard-host workers — open the store with ``read_only=True`` and observe
committed ingests on their next catalog query (the mmap is grown lazily
when a record lands past the mapped size).

``CorpusStore(None)`` builds an ephemeral in-memory store with the same
API — what the server uses when booted without ``--store`` so that
``put_tree`` and fingerprint-addressed requests work out of the box.

Counters are :class:`~repro.engine.stats.CacheStats` all the way down
(RL004): ``store_hits`` / ``store_misses`` count fingerprint resolutions,
``store_bytes`` accumulates record bytes actually read off the heap (a
resolution served from an engine's snapshot cache moves ``store_hits``
but not ``store_bytes``).
"""

from __future__ import annotations

import io
import mmap
import os
import pickle
import sqlite3
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..engine.compiled import CompiledSetting, compile_setting
from ..engine.stats import CacheStats
from ..exchange.setting import DataExchangeSetting
from ..obs.trace import span as obs_span
from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.tree import XMLTree
from .encoding import decode_document, encode_document
from .errors import StoreError, StoreReadOnlyError, UnknownDocumentError

__all__ = ["CorpusStore", "StoredSetting"]

_FORMAT_VERSION = "1"
_CATALOG_NAME = "catalog.db"
_HEAP_NAME = "trees.bin"
#: Heap writes are flushed in slices of this size so a multi-gigabyte
#: ingest never materialises one contiguous Python buffer per write call.
_WRITE_SLICE = 1 << 20

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS documents (
    fingerprint TEXT PRIMARY KEY,
    ordered     INTEGER NOT NULL,
    nodes       INTEGER NOT NULL,
    offset      INTEGER NOT NULL,
    length      INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS settings (
    fingerprint TEXT PRIMARY KEY,
    prewarm     INTEGER NOT NULL,
    payload     BLOB NOT NULL
);
"""


@dataclass(frozen=True)
class StoredSetting:
    """One persisted compiled setting: ready to register, already warm."""

    fingerprint: str
    compiled: CompiledSetting
    prewarm: bool


class CorpusStore:
    """Fingerprint-addressed persistent corpus of frozen trees and
    compiled settings.

    ``path`` is a store directory (created on first writable open), or
    ``None`` for an ephemeral in-memory store.  ``read_only=True`` opens
    an existing on-disk store without write access — the mode shard-host
    workers use; writes then raise :class:`StoreReadOnlyError`.
    """

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None, *,
                 read_only: bool = False, chunk_docs: int = 64) -> None:
        if chunk_docs < 1:
            raise ValueError(f"chunk_docs must be >= 1, got {chunk_docs!r}")
        if path is None and read_only:
            raise ValueError("an in-memory store cannot be read-only")
        self.path = None if path is None else os.fspath(path)
        self.read_only = read_only
        self.chunk_docs = chunk_docs
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._mmap: Optional[mmap.mmap] = None
        self._mapped = 0
        self._closed = False
        if self.path is None:
            self._conn = sqlite3.connect(":memory:",
                                         check_same_thread=False)
            self._heap: Optional[io.BufferedRandom] = None
            self._membuf: Optional[bytearray] = bytearray()
        else:
            catalog = os.path.join(self.path, _CATALOG_NAME)
            heap = os.path.join(self.path, _HEAP_NAME)
            self._membuf = None
            if read_only:
                if not os.path.exists(catalog):
                    raise StoreError(f"no store at {self.path!r} "
                                     f"(missing {_CATALOG_NAME})")
                self._conn = sqlite3.connect(
                    f"file:{catalog}?mode=ro", uri=True,
                    check_same_thread=False, timeout=5.0)
                self._heap = open(heap, "rb") if os.path.exists(heap) else None
            else:
                os.makedirs(self.path, exist_ok=True)
                self._conn = sqlite3.connect(catalog,
                                             check_same_thread=False,
                                             timeout=5.0)
                if not os.path.exists(heap):
                    with open(heap, "wb"):
                        pass
                self._heap = open(heap, "r+b")
        self._init_catalog()

    # ------------------------------------------------------------------ #
    # Catalog bootstrap
    # ------------------------------------------------------------------ #

    def _init_catalog(self) -> None:
        with self._lock:
            self._conn.execute("PRAGMA busy_timeout = 5000")
            if self.read_only:
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'format'").fetchone()
                if row is None or row[0] != _FORMAT_VERSION:
                    raise StoreError(
                        f"store at {self.path!r} has format "
                        f"{row[0] if row else 'missing'!r}, "
                        f"expected {_FORMAT_VERSION!r}")
                return
            with self._conn:
                self._conn.executescript(_SCHEMA)
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('format', ?)",
                    (_FORMAT_VERSION,))
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('data_end', '0')")
            # Reclaim orphan heap bytes a killed ingest left past the
            # committed high-water mark (the durability contract's only
            # cleanup duty — catalog rows never reference them).
            if self._heap is not None:
                self._heap.seek(0, os.SEEK_END)
                if self._heap.tell() > self._data_end():
                    self._heap.truncate(self._data_end())

    def _data_end(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'data_end'").fetchone()
        if row is None:
            raise StoreError("store catalog has no data_end mark")
        return int(row[0])

    def _require_writable(self) -> None:
        if self._closed:
            raise StoreError("store is closed")
        if self.read_only:
            raise StoreReadOnlyError(
                "this store handle is read-only (workers read, the "
                "supervisor owns writes)")

    # ------------------------------------------------------------------ #
    # Document ingest
    # ------------------------------------------------------------------ #

    def put_tree(self, tree: Union[XMLTree, FrozenTree]) -> str:
        """Ingest one document; returns its fingerprint.  Idempotent —
        re-ingesting an already-stored fingerprint writes nothing."""
        return self.put_trees([tree])[0]

    def put_trees(self, trees: Iterable[Union[XMLTree, FrozenTree]]
                  ) -> List[str]:
        """Chunked bulk ingest (order-preserving fingerprints).

        Documents are appended to the heap and committed to the catalog in
        chunks of ``chunk_docs``; each chunk is fsync'd before its catalog
        transaction, so a kill at any point loses at most the in-flight
        chunk and never corrupts the store."""
        self._require_writable()
        fingerprints: List[str] = []
        chunk: List[Tuple[str, FrozenTree]] = []
        with obs_span("storage.put_trees"):
            with self._lock:
                for tree in trees:
                    frozen = tree.freeze()
                    fingerprint = frozen.fingerprint()
                    fingerprints.append(fingerprint)
                    if self._document_row(fingerprint) is not None or any(
                            fp == fingerprint for fp, _ in chunk):
                        continue
                    chunk.append((fingerprint, frozen))
                    if len(chunk) >= self.chunk_docs:
                        self._commit_chunk(chunk)
                        chunk = []
                if chunk:
                    self._commit_chunk(chunk)
        return fingerprints

    def _commit_chunk(self, chunk: Sequence[Tuple[str, FrozenTree]]) -> None:
        """Append every record of ``chunk``, fsync the heap, then commit
        one catalog transaction (the atomic commit point)."""
        offset = self._data_end()
        rows: List[Tuple[str, int, int, int, int]] = []
        cursor = offset
        for fingerprint, frozen in chunk:
            record = encode_document(frozen)
            self._append_bytes(cursor, record)
            rows.append((fingerprint, 1 if frozen.ordered else 0,
                         frozen.n, cursor, len(record)))
            cursor += len(record)
        self._sync_heap()
        with self._conn:
            self._conn.executemany(
                "INSERT INTO documents VALUES (?, ?, ?, ?, ?)", rows)
            self._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'data_end'",
                (str(cursor),))

    def _append_bytes(self, offset: int, record: bytes) -> None:
        if self._membuf is not None:
            del self._membuf[offset:]
            self._membuf += record
            return
        assert self._heap is not None
        self._heap.seek(offset)
        view = memoryview(record)
        for start in range(0, len(record), _WRITE_SLICE):
            self._heap.write(view[start:start + _WRITE_SLICE])

    def _sync_heap(self) -> None:
        if self._heap is not None:
            self._heap.flush()
            os.fsync(self._heap.fileno())

    # ------------------------------------------------------------------ #
    # Document reads
    # ------------------------------------------------------------------ #

    def _document_row(self, fingerprint: str
                      ) -> Optional[Tuple[int, int, int]]:
        row = self._conn.execute(
            "SELECT nodes, offset, length FROM documents "
            "WHERE fingerprint = ?", (fingerprint,)).fetchone()
        return None if row is None else (row[0], row[1], row[2])

    def _record_view(self, offset: int, length: int) -> memoryview:
        if self._membuf is not None:
            return memoryview(self._membuf)[offset:offset + length]
        if self._heap is None:
            raise StoreError("store heap file is missing")
        if self._mmap is None or offset + length > self._mapped:
            if self._mmap is not None:
                self._mmap.close()
            self._heap.seek(0, os.SEEK_END)
            size = self._heap.tell()
            if offset + length > size:
                raise StoreError(
                    f"catalog row points past the heap "
                    f"({offset + length} > {size} bytes)")
            self._mmap = mmap.mmap(self._heap.fileno(), size,
                                   access=mmap.ACCESS_READ)
            self._mapped = size
        return memoryview(self._mmap)[offset:offset + length]

    def has_tree(self, fingerprint: str) -> bool:
        with self._lock:
            return self._document_row(fingerprint) is not None

    def tree_fingerprints(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT fingerprint FROM documents ORDER BY offset").fetchall()
        return [row[0] for row in rows]

    def get_frozen(self, fingerprint: str) -> FrozenTree:
        """The stored :class:`FrozenTree` for ``fingerprint``, decoded from
        its record (per-label index and pre/post plane warm, fingerprint
        cache seeded from the catalog key, node idents those of the tree
        that was stored) — what the engine reads, never thawed.  Raises
        :class:`UnknownDocumentError` for absent fingerprints."""
        with obs_span("storage.get_tree", fingerprint=fingerprint[:12]):
            with self._lock:
                row = self._document_row(fingerprint)
                if row is None:
                    self.stats.miss("store")
                    raise UnknownDocumentError(fingerprint)
                _, offset, length = row
                view = self._record_view(offset, length)
                frozen = decode_document(view)
                self.stats.hit("store")
                self.stats.count("store_bytes", length)
            frozen._fingerprint = fingerprint
            return frozen

    # ------------------------------------------------------------------ #
    # Compiled settings
    # ------------------------------------------------------------------ #

    def put_setting(self, setting: Union[CompiledSetting,
                                         DataExchangeSetting], *,
                    prewarm: bool = False) -> str:
        """Persist a compiled setting (compiling a plain setting first);
        returns its fingerprint.  Re-putting a fingerprint replaces the
        pickle — the stored plan state is whatever the caller last saved."""
        self._require_writable()
        with obs_span("storage.put_setting"):
            compiled = (setting if isinstance(setting, CompiledSetting)
                        else compile_setting(setting))
            fingerprint = compiled.setting.fingerprint()
            payload = pickle.dumps(compiled, pickle.HIGHEST_PROTOCOL)
            with self._lock, self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO settings VALUES (?, ?, ?)",
                    (fingerprint, 1 if prewarm else 0,
                     sqlite3.Binary(payload)))
        return fingerprint

    def get_setting(self, fingerprint: str) -> StoredSetting:
        with self._lock:
            row = self._conn.execute(
                "SELECT prewarm, payload FROM settings WHERE fingerprint = ?",
                (fingerprint,)).fetchone()
        if row is None:
            raise UnknownDocumentError(fingerprint)
        return StoredSetting(fingerprint, pickle.loads(row[1]), bool(row[0]))

    def settings(self) -> List[StoredSetting]:
        """Every persisted setting, unpickled plan-warm — the boot-restore
        input for ``AsyncExchangeService.restore_settings``."""
        with obs_span("storage.load_settings"):
            with self._lock:
                rows = self._conn.execute(
                    "SELECT fingerprint, prewarm, payload FROM settings "
                    "ORDER BY fingerprint").fetchall()
            return [StoredSetting(fp, pickle.loads(payload), bool(pre))
                    for fp, pre, payload in rows]

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    def summary(self) -> dict:
        """Catalog totals plus the store's counter snapshot."""
        with self._lock:
            documents, nodes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nodes), 0) "
                "FROM documents").fetchone()
            settings = self._conn.execute(
                "SELECT COUNT(*) FROM settings").fetchone()[0]
            data_end = self._data_end()
        out = {"store_documents": documents, "store_nodes": nodes,
               "store_settings": settings, "store_data_bytes": data_end}
        out.update(self.stats.snapshot())
        return out

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._mmap is not None:
                self._mmap.close()
                self._mmap = None
            if self._heap is not None:
                self._heap.close()
            self._conn.close()

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        where = ":memory:" if self.path is None else self.path
        mode = "ro" if self.read_only else "rw"
        return f"<CorpusStore {where} mode={mode}>"
