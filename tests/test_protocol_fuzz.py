"""A seeded mutation fuzzer over the JSON-lines protocol.

In the spirit of Miller, Fredriksen and So (*An Empirical Study of the
Reliability of UNIX Utilities*, CACM 1990): a fixed count of mutated request
lines — truncated, not UTF-8, nested about 10⁵ deep, not JSON objects,
unknown ops, every field of every op replaced by a value of the wrong type
(or text nested past the recursion limit) or removed, malformed BFS rows,
bad query text and bad variable orders — goes to a live server holding the
library setting.  Every line must get exactly one reply whose ``ok`` is a
bool; an error reply must name a class that
:func:`~repro.service.protocol.error_from_wire` rebuilds as itself, never
as the catch-all ``ServerError``; and the connection must answer a ``ping``
afterwards.
"""

import copy
import json
import random
import socket

import pytest

from repro.service.protocol import (ServerError, encode_line,
                                    error_from_wire, setting_to_wire,
                                    tree_to_wire)
from repro.service.server import serve_in_background
from repro.workloads import library

#: The fixed fuzzing budget: lines sent, each followed by a ping.
LINES = 300
SEED = 2005

_HUGE = "9" * 5000  # past int-from-text's digit limit when decoded
#: Field replacements; ``_MISSING`` removes the field.
_MISSING = object()
_REPLACEMENTS = [None, 7, 2 ** 70, "HUGE", 1.5, "x", "(" * 600 + ")" * 600,
                 [1], {"a": 1}, True, _MISSING]
_BAD_ROWS = [[], {"r": 1}, [["r", {}, 0]], [["r", {}, -1], ["a", {}, 5]],
             [["r", {"a": 1}, -1]], [["r", {}, -1, 0]], [[1, {}, -1]],
             [["r", [], -1]], [["r", {}, "-1"]], ["r"]]
_BAD_QUERIES = ["bib[", "", "]]", "bib[writer(@name=)]", "//", "a(@=x)",
                "bib[writer(@name=w)", "_[_[_[", "bib[writer(@name='x]",
                "bib[" + "writer[" * 400 + "work" + "]" * 401]
_BAD_ORDERS = ["wt", "w", ["nope"], [1, 2], ["w", "w"], [], [None]]
#: Paths into a wire setting whose last step the fuzzer replaces.
_SETTING_FIELDS = [
    ("source_dtd",), ("target_dtd",), ("stds",), ("source_dtd", "root"),
    ("source_dtd", "rules"), ("source_dtd", "attributes"),
    ("target_dtd", "rules", "bib"), ("target_dtd", "attributes", "writer"),
    ("stds", 0), ("stds", 0, "target"), ("stds", 0, "source")]


def _valid_messages(setting_wire, fingerprint, rows, tree_fp):
    """One well-formed request per op (``shutdown`` excepted)."""
    query = "bib[writer(@name=w)[work(@title=t)]]"
    return [
        {"op": "register", "setting": setting_wire, "prewarm": False,
         "persist": False},
        {"op": "put_tree", "tree": rows},
        {"op": "prewarm", "fingerprint": fingerprint},
        {"op": "consistency", "fingerprint": fingerprint,
         "strategy": "auto"},
        {"op": "classify", "fingerprint": fingerprint},
        {"op": "solve", "fingerprint": fingerprint, "tree": rows},
        {"op": "solve", "fingerprint": fingerprint, "tree_fp": tree_fp},
        {"op": "certain_answers", "fingerprint": fingerprint, "tree": rows,
         "query": query, "variable_order": ["w", "t"]},
        {"op": "certain_answers", "fingerprint": fingerprint,
         "tree_fp": tree_fp, "query": query},
        {"op": "stats"},
        {"op": "trace_dump", "limit": 5},
        {"op": "ping"},
    ]


def _line(message) -> bytes:
    return encode_line(message).replace(b'"HUGE"', _HUGE.encode())


def _mutated_lines(rng, valid):
    """``LINES`` mutated request lines, reproducible from ``rng``."""
    for _ in range(LINES):
        message = dict(rng.choice(valid))
        kind = rng.randrange(10)
        if kind == 0:  # truncated
            line = _line(message)
            yield line[:rng.randrange(1, len(line) - 1)] + b"\n"
        elif kind == 1:  # not UTF-8
            line = _line(message)
            cut = rng.randrange(len(line) - 1)
            yield line[:cut] + b"\xff\xfe" + line[cut:]
        elif kind == 2:  # nested about 10^5 deep
            depth = 100_000
            yield rng.choice([b"[" * depth + b"]" * depth,
                              b'{"a":' * depth + b"1" + b"}" * depth]) + b"\n"
        elif kind == 3:  # JSON, but not an object
            yield rng.choice([b"[1, 2]", b"42", b'"ping"', b"null", b"true",
                              b"[]", b"1e999", b"NaN"]) + b"\n"
        elif kind == 4:  # unknown op
            message["op"] = rng.choice(["frobnicate", "PING", "", "ping "])
            yield _line(message)
        elif kind == 5 and "tree" in message:  # malformed BFS rows
            message["tree"] = rng.choice(_BAD_ROWS)
            yield _line(message)
        elif kind == 6 and "query" in message:  # bad query text
            message["query"] = rng.choice(_BAD_QUERIES)
            yield _line(message)
        elif kind == 7 and message["op"] == "certain_answers":
            message["variable_order"] = rng.choice(_BAD_ORDERS)
            yield _line(message)
        elif kind == 8 and "setting" in message:  # inside the setting
            message["setting"] = copy.deepcopy(message["setting"])
            *path, field = rng.choice(_SETTING_FIELDS)
            parent = message["setting"]
            for step in path:
                parent = parent[step]
            _replace(rng, parent, field)
            yield _line(message)
        else:  # one field replaced by a wrong type, or removed
            _replace(rng, message, rng.choice(sorted(message)))
            yield _line(message)


def _replace(rng, container, field):
    """Replace ``container[field]`` by a wrong-typed value, or remove it."""
    replacement = rng.choice(_REPLACEMENTS)
    if replacement is _MISSING:
        container.pop(field)
    else:
        container[field] = replacement


@pytest.fixture
def fuzz_server():
    port, _server, join = serve_in_background(executor="thread")
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        with sock.makefile("rb") as reader:
            def send(line: bytes):
                sock.sendall(line)
                return json.loads(reader.readline())

            yield send
            assert send(encode_line({"op": "shutdown"}))["bye"] is True
    join()


def test_every_mutated_line_gets_one_typed_reply(fuzz_server):
    send = fuzz_server
    setting = library.library_setting()
    setting_wire = setting_to_wire(setting)
    rows = tree_to_wire(library.generate_source(2, authors_per_book=1,
                                                seed=3))
    fingerprint = send(encode_line({"op": "register",
                                    "setting": setting_wire}))["fingerprint"]
    tree_fp = send(encode_line({"op": "put_tree",
                                "tree": rows}))["fingerprint"]
    valid = _valid_messages(setting_wire, fingerprint, rows, tree_fp)
    for message in valid:
        assert send(_line(message))["ok"] is True, message

    rng = random.Random(SEED)
    errors = set()
    for index, line in enumerate(_mutated_lines(rng, valid)):
        reply = send(line)
        assert isinstance(reply.get("ok"), bool), (index, line[:120], reply)
        if not reply["ok"]:
            rebuilt = error_from_wire(reply["error"], reply["message"])
            assert not isinstance(rebuilt, ServerError), \
                (index, line[:120], reply)
            assert type(rebuilt).__name__ == reply["error"], reply
            errors.add(reply["error"])
        # The next line on the wire is the ping's own reply: the mutated
        # line got exactly one.
        pong = send(encode_line({"op": "ping", "id": -index - 1}))
        assert pong == {"ok": True, "op": "ping", "pong": True,
                        "id": -index - 1}, (index, line[:120])
    assert {"ValueError", "PatternParseError"} <= errors, errors
