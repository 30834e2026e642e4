"""Wire codec of the JSON-lines service protocol.

Everything the server and client exchange is one JSON object per
``\\n``-terminated line (UTF-8).  This module holds the pure codec — no
sockets — so the server, the client helper and the tests share one
definition of the wire format:

* **settings** travel structurally — root, ``{element: content-model}``
  rules and ``{element: [attribute, ...]}`` maps per DTD, plus the STDs as
  ``target :- source`` pattern-text pairs — and rebuild to a setting with
  the **same fingerprint**, so client-side and server-side routing keys
  agree;
* **trees** travel as a list of ``[label, {attr: value}, parent_row]``
  rows in breadth-first order, the root first with parent ``-1``; the
  server reads them straight into a
  :class:`~repro.xmlmodel.frozen.FrozenTree` (:func:`frozen_from_wire`),
  and the JSON nests a fixed few levels whatever the document's depth.
  Constants are plain strings and nulls (which occur in solution trees
  the server returns) are tagged ``{"null": n}``; any other value is a
  ``ValueError``;
* **queries** travel as tree-pattern text (:func:`repro.parse_pattern`
  syntax); the server wraps them with :func:`repro.pattern_query`;
* **answer sets** travel as a sorted list of value lists (``null`` for a
  no-solution outcome, mirroring ``CertainAnswers.answers``);
* **errors** travel as ``{"ok": false, "error": <class name>, "message": …}``
  and rebuild client-side into the exception the direct engine call would
  have raised (:func:`error_to_wire` / :func:`error_from_wire`) — typed
  failures like ``QuotaExceededError`` cross the wire losslessly enough
  for ``except`` clauses to behave identically on either side.
"""

from __future__ import annotations

import json
import re
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set, Tuple,
                    Union)

from ..exchange.errors import (ChaseError, ConsistencyUndecidedError,
                               ExchangeError, NoSolutionError)
from ..exchange.presolution import PreSolutionError
from ..exchange.setting import DataExchangeSetting
from ..exchange.std import std
from ..patterns.parse import PatternParseError, parse_pattern
from ..patterns.queries import Query, pattern_query
from ..regexlang.parikh import SemilinearSizeError
from ..regexlang.parse import RegexParseError
from ..xmlmodel.dtd import DTD
from ..xmlmodel.frozen import FrozenTree
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import Null, Value, is_null
from ..storage import StoreError, StoreReadOnlyError, UnknownDocumentError
from .host import WorkerCrashError
from .quota import QuotaExceededError
from .registry import UnknownSettingError

__all__ = ["encode_line", "decode_line", "value_to_wire", "value_from_wire",
           "tree_to_wire", "frozen_from_wire", "tree_from_wire",
           "dtd_to_wire", "dtd_from_wire",
           "setting_to_wire", "setting_from_wire", "query_from_wire",
           "answers_to_wire", "error_to_wire", "error_from_wire",
           "ServerError"]


def encode_line(message: Dict[str, Any]) -> bytes:
    """One protocol message as a ``\\n``-terminated UTF-8 JSON line."""
    return (json.dumps(message, ensure_ascii=False, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """One protocol message; ``ValueError`` unless the line is a UTF-8 JSON
    object (a line nested past the decoder's recursion limit included)."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise ValueError(f"undecodable protocol line: {error}") from None
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


# --------------------------------------------------------------------- #
# Values and trees
# --------------------------------------------------------------------- #

def value_to_wire(value: Value) -> Any:
    """A constant as itself, a null as ``{"null": ident}``."""
    if is_null(value):
        return {"null": value.ident}
    return value


def value_from_wire(wire: Any) -> Value:
    """A constant (a string) or a null (``{"null": <int>}``); anything
    else is a ``ValueError`` — values are drawn from Str (Section 3.2), and
    any other value would silently drop out of every certain answer."""
    if isinstance(wire, str):
        return wire
    if isinstance(wire, dict) and wire.keys() == {"null"}:
        ident = wire["null"]
        if type(ident) is int:
            return Null(ident)
    raise ValueError(f'values travel as strings or {{"null": <int>}}, '
                     f"got {wire!r:.60}")


def tree_to_wire(tree: Union[XMLTree, FrozenTree]) -> List[List[Any]]:
    """The document's wire rows ``[label, {attr: value}, parent_row]``,
    read off its snapshot in BFS order: the root first, with parent
    ``-1``.  Attributes are listed by name."""
    frozen = tree.freeze()
    rows = [[frozen.label(pos), {}, parent]
            for pos, parent in enumerate(frozen.parents)]
    for name, table in sorted(zip(frozen.attr_names, frozen.attr_tables),
                              key=lambda column: column[0]):
        for pos, value in table.items():
            rows[pos][1][name] = value_to_wire(value)
    return rows


def frozen_from_wire(wire: Any, ordered: bool = True) -> FrozenTree:
    """The snapshot of a wire document, filled in one pass over its rows
    (a node's BFS position and ``orig_ids`` entry is its row number).

    Raises ``ValueError`` unless the rows are a BFS layout: a non-empty
    list of ``[str, dict, int]`` rows, the root's parent ``-1`` and every
    other parent an earlier row, never decreasing — so each node's
    children are one contiguous run of rows, in sibling order."""
    if not isinstance(wire, list) or not wire:
        raise ValueError("a tree travels as a non-empty list of "
                         "[label, {attr: value}, parent_row] rows")
    n = len(wire)
    label_ids: Dict[str, int] = {}
    label_names: List[str] = []
    attr_ids: Dict[str, int] = {}
    attr_names: List[str] = []
    attr_tables: List[Dict[int, Value]] = []
    labels: List[int] = []
    parents: List[int] = []
    child_start = [0] * n
    child_end = [0] * n
    previous = 0
    for pos, row in enumerate(wire):
        if not (isinstance(row, list) and len(row) == 3
                and isinstance(row[0], str) and isinstance(row[1], dict)
                and type(row[2]) is int):
            raise ValueError(f"tree row {pos} is not a [label, "
                             f"{{attr: value}}, parent_row] triple")
        label, row_attrs, parent = row
        if pos == 0:
            if parent != -1:
                raise ValueError(f"the root row's parent is {parent}, "
                                 f"not -1")
        elif previous <= parent < pos:
            if child_end[parent] == 0:
                child_start[parent] = pos
            child_end[parent] = pos + 1
            previous = parent
        else:
            raise ValueError(f"tree row {pos} has parent {parent}: parents "
                             f"are earlier rows, in BFS order")
        parents.append(parent)
        lid = label_ids.get(label)
        if lid is None:
            lid = label_ids[label] = len(label_names)
            label_names.append(label)
        labels.append(lid)
        for name, value in row_attrs.items():
            aid = attr_ids.get(name)
            if aid is None:
                aid = attr_ids[name] = len(attr_names)
                attr_names.append(name)
                attr_tables.append({})
            attr_tables[aid][pos] = value_from_wire(value)
    return FrozenTree(
        ordered=ordered, labels=tuple(labels),
        label_names=tuple(label_names), label_ids=label_ids,
        parents=tuple(parents), child_start=tuple(child_start),
        child_end=tuple(child_end), attr_names=tuple(attr_names),
        attr_ids=attr_ids, attr_tables=tuple(attr_tables),
        orig_ids=tuple(range(n)))


def tree_from_wire(wire: Any, ordered: bool = True) -> XMLTree:
    """The wire document as a mutable tree: :func:`frozen_from_wire`,
    thawed."""
    return frozen_from_wire(wire, ordered).thaw()


# --------------------------------------------------------------------- #
# DTDs and settings
# --------------------------------------------------------------------- #

def dtd_to_wire(dtd: DTD) -> Dict[str, Any]:
    """Structural rendering that :class:`DTD` rebuilds verbatim."""
    elements = sorted(dtd.rules)
    return {
        "root": dtd.root,
        "rules": {element: str(dtd.content_model(element))
                  for element in elements},
        "attributes": {element: sorted(dtd.attributes_of(element))
                       for element in elements},
    }


def dtd_from_wire(wire: Any) -> DTD:
    """The DTD :func:`dtd_to_wire` rendered; ``ValueError`` for any other
    shape (content models raise their own parse errors)."""
    if isinstance(wire, dict):
        root = wire.get("root")
        rules = wire.get("rules", {})
        attributes = wire.get("attributes", {})
        if (isinstance(root, str)
                and isinstance(rules, dict) and _strings(rules.values())
                and isinstance(attributes, dict)
                and all(isinstance(names, list) and _strings(names)
                        for names in attributes.values())):
            return DTD(root, rules, attributes)
    raise ValueError('a DTD travels as {"root": str, "rules": {element: '
                     'content-model}, "attributes": {element: [attr]}}')


def _strings(values: Iterable[Any]) -> bool:
    return all(isinstance(value, str) for value in values)


def setting_to_wire(setting: DataExchangeSetting) -> Dict[str, Any]:
    """A setting as two structural DTDs plus pattern-text STDs.

    Rebuilding via :func:`setting_from_wire` yields a setting with the same
    ``fingerprint()``, so routing keys computed on either side agree.
    """
    return {
        "source_dtd": dtd_to_wire(setting.source_dtd),
        "target_dtd": dtd_to_wire(setting.target_dtd),
        "stds": [{"target": str(dependency.target),
                  "source": str(dependency.source)}
                 for dependency in setting.stds],
    }


def setting_from_wire(wire: Any) -> DataExchangeSetting:
    """The setting :func:`setting_to_wire` rendered; ``ValueError`` for any
    other shape (pattern texts raise their own parse errors)."""
    stds = wire.get("stds", []) if isinstance(wire, dict) else None
    if not (isinstance(stds, list)
            and all(isinstance(item, dict)
                    and _strings((item.get("target"), item.get("source")))
                    for item in stds)):
        raise ValueError('a setting travels as {"source_dtd": …, '
                         '"target_dtd": …, "stds": [{"target": str, '
                         '"source": str}]}')
    dependencies = [std(item["target"], item["source"]) for item in stds]
    return DataExchangeSetting(dtd_from_wire(wire.get("source_dtd")),
                               dtd_from_wire(wire.get("target_dtd")),
                               dependencies)


# --------------------------------------------------------------------- #
# Queries and answers
# --------------------------------------------------------------------- #

def query_from_wire(wire: Any) -> Query:
    """A query from its wire form: tree-pattern text."""
    if not isinstance(wire, str):
        raise ValueError("queries travel as tree-pattern text")
    return pattern_query(parse_pattern(wire))


def answers_to_wire(answers: Optional[Set[Tuple[Value, ...]]]
                    ) -> Optional[List[List[Any]]]:
    """A certain-answer set as a sorted list of value lists.

    Certain answers are all-constant tuples (strings), so the rendering is
    loss-free; ``None`` (no solution) stays ``None``.
    """
    if answers is None:
        return None
    return sorted([value_to_wire(value) for value in answer]
                  for answer in answers)


# --------------------------------------------------------------------- #
# Errors
# --------------------------------------------------------------------- #

class ServerError(RuntimeError):
    """A server-side failure with no local exception class to map onto."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error


def _rebuild_unknown_setting(message: str) -> UnknownSettingError:
    """Reconstruct with the fingerprint (prefix) the server's message names,
    not the whole sentence — ``.fingerprint`` must stay a routing key."""
    match = re.search(r"fingerprint ([0-9a-f]{8,})", message)
    return UnknownSettingError(match.group(1) if match else message)


def _rebuild_unknown_document(message: str) -> UnknownDocumentError:
    """Same recovery for document fingerprints: the typed miss on a
    fingerprint-addressed request keeps ``.fingerprint`` usable as a store
    key on the client side too."""
    match = re.search(r"fingerprint ([0-9a-f]{8,})", message)
    return UnknownDocumentError(match.group(1) if match else message)


#: Error names the server may send, mapped back to the exception the direct
#: engine (or registry) call would have raised: the repository's own request
#: errors, the builtins its precondition checks raise, and the
#: ``RecursionError`` of a pattern or content model nested past the
#: interpreter's recursion limit.
_ERROR_TYPES: Dict[str, Callable[[str], BaseException]] = {
    **{error.__name__: error for error in (
        ExchangeError, ChaseError, ConsistencyUndecidedError,
        NoSolutionError, QuotaExceededError, PreSolutionError,
        PatternParseError, RegexParseError, SemilinearSizeError, StoreError,
        StoreReadOnlyError, WorkerCrashError, ValueError, TypeError,
        KeyError, RecursionError)},
    "UnknownSettingError": _rebuild_unknown_setting,
    "UnknownDocumentError": _rebuild_unknown_document,
}


def error_to_wire(error: BaseException) -> Dict[str, Any]:
    """One failure as an error *response* (the connection stays open)."""
    return {"ok": False, "error": type(error).__name__,
            "message": str(error)}


def error_from_wire(name: str, message: str) -> BaseException:
    """The exception instance an error response stands for.

    Known names rebuild as their original class so ``except`` clauses match
    the direct-call behaviour; unknown names degrade to
    :class:`ServerError` (which keeps the server-side class name around).
    """
    factory = _ERROR_TYPES.get(name)
    if factory is None:
        return ServerError(name, message)
    return factory(message)
