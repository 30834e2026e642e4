"""The JSON-lines server: wire codec, live round-trips, clean shutdown.

Boots ``python -m repro.service.server`` as a real subprocess on a free
port and drives it through the client helper — the same conversation the CI
smoke job runs — then asserts the process exits 0 after a ``shutdown``
request.  Codec tests below need no server.
"""

import asyncio
import json
import socket
import subprocess
import sys
import threading

import pytest

from repro import (ChaseError, DataExchangeSetting, DTD, ExchangeEngine, Null,
                   XMLTree, std)
from repro.generators import generate_scenario
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background
from repro.service.protocol import (answers_to_wire, decode_line, encode_line,
                                    frozen_from_wire, query_from_wire,
                                    setting_from_wire, setting_to_wire,
                                    tree_from_wire, tree_to_wire,
                                    value_from_wire, value_to_wire)
from repro.workloads import library


def _library_rows(name):
    """``library.generate_source(1, authors_per_book=1, seed=1)`` in wire
    rows, with ``name`` as the author's name."""
    return [["db", {}, -1], ["book", {"title": "Book-0"}, 0],
            ["author", {"aff": "University-1", "name": name}, 1]]


#: Trees the wire refuses, each with the complaint it gets: parents that
#: Python's negative indexing would resolve, a root row with a parent, a
#: numeric attribute value, the nested ``[label, attrs, children]`` triple
#: of the retired encoding, rows out of BFS order and malformed rows.
_MALFORMED_TREES = {
    "negative-parents": ([["r", {}, -1], ["a", {}, -1], ["b", {}, -2]],
                         "row 1 has parent -1"),
    "root-with-parent": ([["r", {}, 5], ["a", {}, 0]],
                         "root row's parent is 5"),
    "numeric-value": (_library_rows(7), "got 7"),
    "nested-triple": (["r", {}, []], "row 0 is not"),
    "not-bfs": ([["r", {}, -1], ["a", {}, 0], ["c", {}, 1], ["b", {}, 0]],
                "row 3 has parent 0"),
    "own-parent": ([["r", {}, -1], ["a", {}, 1]], "row 1 has parent 1"),
    "short-row": ([["r", {}, -1], ["a", {}]], "row 1 is not"),
    "string-parent": ([["r", {}, -1], ["a", {}, "0"]], "row 1 is not"),
    "bool-parent": ([["r", {}, -1], ["a", {}, True]], "row 1 is not"),
    "numeric-label": ([["r", {}, -1], [1, {}, 0]], "row 1 is not"),
    "list-attrs": ([["r", {}, -1], ["a", [], 0]], "row 1 is not"),
    "empty": ([], "non-empty list"),
    "object": ({"flat": [["r", {}, -1]]}, "non-empty list"),
}


class TestProtocolCodec:
    def test_tree_round_trip_with_nulls(self):
        tree = XMLTree.build(("r", [("a", {"x": "1", "y": Null(3)}),
                                    ("b", [("c", {"z": Null(3)})])]))
        again = tree_from_wire(tree_to_wire(tree))
        assert again.equals(tree)
        assert again.fingerprint() == tree.fingerprint()

    def test_value_round_trip(self):
        assert value_from_wire(value_to_wire("v")) == "v"
        assert value_from_wire(value_to_wire(Null(7))) == Null(7)

    def test_values_are_strings_or_tagged_nulls(self):
        for wire in (7, 1.5, True, None, [1], {"null": "3"},
                     {"null": True}, {"null": 3, "x": "1"}):
            with pytest.raises(ValueError):
                value_from_wire(wire)

    @pytest.mark.parametrize("name", sorted(_MALFORMED_TREES))
    def test_malformed_trees_raise_value_error(self, name):
        wire, complaint = _MALFORMED_TREES[name]
        with pytest.raises(ValueError, match=complaint):
            tree_from_wire(wire)
        with pytest.raises(ValueError, match=complaint):
            frozen_from_wire(wire)

    def test_numeric_value_is_refused_where_a_string_answers(
            self, library_setting):
        """A number would be neither a constant nor a null, so it would
        drop out of the certain answers without an error."""
        query = library.query_writer_of("Book-0")
        engine = ExchangeEngine(library_setting)
        tree = frozen_from_wire(_library_rows("Author-1"))
        assert engine.certain_answers(tree, query, ["w"]).payload == \
            {("Author-1",)}
        with pytest.raises(ValueError, match="got 7"):
            frozen_from_wire(_library_rows(7))

    def test_setting_round_trip_preserves_fingerprint(self, library_setting,
                                                      company_setting,
                                                      figure_6_setting):
        for setting in (library_setting, company_setting, figure_6_setting):
            again = setting_from_wire(setting_to_wire(setting))
            assert again.fingerprint() == setting.fingerprint()

    def test_answers_to_wire(self):
        assert answers_to_wire(None) is None
        assert answers_to_wire({("b", "2"), ("a", "1")}) == \
            [["a", "1"], ["b", "2"]]
        assert answers_to_wire(set()) == []


class TestRowWire:
    """One tree encoding: BFS rows, read straight into a snapshot."""

    WIDTH = 32_000

    def test_wide_root_decodes_without_add_child(self, monkeypatch):
        tree = XMLTree("r")
        for index in range(self.WIDTH):
            tree.add_child(tree.root, "c", {"i": str(index)})
        fingerprint = tree.fingerprint()
        wire = decode_line(encode_line({"tree": tree_to_wire(tree)}))["tree"]

        def refuse(*args, **kwargs):
            raise AssertionError("decoding a wire tree called add_child")

        monkeypatch.setattr(XMLTree, "add_child", refuse)
        assert frozen_from_wire(wire).fingerprint() == fingerprint
        thawed = tree_from_wire(wire)
        assert len(thawed.children(thawed.root)) == self.WIDTH
        assert thawed.fingerprint() == fingerprint

    def test_generated_documents_round_trip(self):
        """Source trees (ordered) and their canonical solutions
        (unordered, with nulls) keep their fingerprints through the rows,
        and a thawed tree encodes back to the same rows."""
        unordered = 0
        for seed in range(60):
            scenario = generate_scenario(seed)
            engine = ExchangeEngine(scenario.setting)
            trees = list(scenario.source_trees)
            trees += [result.payload for result in engine.solve_batch(trees)
                      if result.ok]
            for tree in trees:
                wire = json.loads(json.dumps(tree_to_wire(tree)))
                frozen = frozen_from_wire(wire, tree.ordered)
                assert frozen.fingerprint() == tree.fingerprint(), seed
                assert tree_to_wire(tree_from_wire(wire, tree.ordered)) == \
                    wire, seed
                unordered += not tree.ordered
        assert unordered > 0


@pytest.fixture(scope="module")
def live_server():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.server", "--port", "0",
         "--result-cache-maxsize", "32"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    banner = process.stdout.readline().strip()
    assert banner.startswith("listening on "), banner
    host, port = banner.split()[-1].rsplit(":", 1)
    yield host, int(port), process
    if process.poll() is None:  # tests normally shut it down themselves
        process.kill()
    process.wait()
    process.stdout.close()


class TestLiveServer:
    def test_bad_trees_get_typed_replies_and_the_connection_survives(
            self, live_server):
        # Runs before the conversation test below, which shuts the module's
        # server down.
        host, port, _ = live_server
        with ServiceClient(host, port) as client:
            fingerprint = client.register(library.library_setting())
        bad_trees = [
            ["r", {}, []],
            [["db", {}, -1], ["book", {"title": "Book-0"}, 0],
             ["author", {"aff": "U", "name": "A"}, 1],
             ["book", {"title": "Book-1"}, 0]],
            _library_rows(7),
        ]
        with socket.create_connection((host, port), timeout=30) as sock:
            with sock.makefile("rb") as reader:
                def exchange(message):
                    sock.sendall(encode_line(message))
                    return decode_line(reader.readline())

                for tree in bad_trees:
                    for message in (
                            {"op": "certain_answers",
                             "fingerprint": fingerprint, "tree": tree,
                             "query": "bib[writer(@name=w)]"},
                            {"op": "put_tree", "tree": tree}):
                        reply = exchange(message)
                        assert reply["ok"] is False, reply
                        assert reply["error"] == "ValueError", reply
                        assert exchange({"op": "ping"})["pong"] is True

    def test_variables_name_the_answer_columns(self, live_server):
        """The reply's ``variables`` is the request's ``variable_order``,
        else the query's free variables — inline and by ``tree_fp``."""
        host, port, _ = live_server
        query = "bib[writer(@name=w)[work(@title=t)]]"
        tree = library.generate_source(2, authors_per_book=2, seed=4)
        with ServiceClient(host, port) as client:
            fingerprint = client.register(library.library_setting())
            tree_fp = client.put_tree(tree)
            for source in ({"tree": tree_to_wire(tree)}, {"tree_fp": tree_fp}):
                message = dict({"op": "certain_answers",
                                "fingerprint": fingerprint,
                                "query": query}, **source)
                default = client.request(message)
                assert default["variables"] == \
                    query_from_wire(query).free_variables() == ["w", "t"]
                ordered = client.request(
                    dict(message, variable_order=["t", "w"]))
                assert ordered["variables"] == ["t", "w"]
                assert sorted(ordered["answers"]) == \
                    sorted([t, w] for w, t in default["answers"])

    def test_full_conversation_and_clean_shutdown(self, live_server):
        host, port, process = live_server
        setting = library.library_setting()
        tree = library.generate_source(4, authors_per_book=2, seed=1)

        with ServiceClient(host, port) as client:
            assert client.ping()
            fingerprint = client.register(setting)
            assert fingerprint == setting.fingerprint()
            assert client.check_consistency(fingerprint) is True
            assert client.classify(fingerprint) is True
            answers = client.certain_answers(
                fingerprint, tree,
                "bib[writer(@name=w)[work(@title='Book-0')]]")
            assert answers == {("Author-1",), ("Author-2",)}

            solution = client.solve(fingerprint, tree)
            assert solution is not None
            assert setting.is_unordered_solution(tree, solution)

            # Server-side engine errors come back as typed responses on a
            # live connection, not connection drops.
            bad_source = DTD("db", {"db": "rec*", "rec": ""}, {"rec": ["v"]})
            bad_target = DTD("r", {"r": "a a", "a": ""}, {"a": ["v"]})
            bad = DataExchangeSetting(
                bad_source, bad_target, [std("r[a(@v=x)]", "db[rec(@v=x)]")])
            bad_fp = client.register(bad)
            with pytest.raises(ChaseError, match="not univocal"):
                client.solve(bad_fp, XMLTree.build(
                    ("db", [("rec", {"v": "1"}), ("rec", {"v": "2"}),
                            ("rec", {"v": "3"})])))
            with pytest.raises(ValueError, match="unknown operation"):
                client.request({"op": "frobnicate"})

            # Repeat request: served by the shard's result cache.
            before = client.stats()["shards"][fingerprint]
            client.certain_answers(
                fingerprint, tree,
                "bib[writer(@name=w)[work(@title='Book-0')]]")
            after = client.stats()["shards"][fingerprint]
            assert after["result_cache_hits"] == \
                before["result_cache_hits"] + 1

            assert client.shutdown()

        assert process.wait(timeout=30) == 0
        assert "server shut down cleanly" in process.stdout.read()

    def test_no_solution_round_trips_as_none(self):
        # Fresh server: the module fixture's one may already be shut down.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.server", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            banner = process.stdout.readline().strip()
            host, port = banner.split()[-1].rsplit(":", 1)
            source = DTD("db", {"db": "book*", "book": ""},
                         {"book": ["title"]})
            target = DTD("lib", {"lib": "item", "item": ""}, {"item": ["t"]})
            clash = DataExchangeSetting(
                source, target, [std("lib[item(@t=x)]", "db[book(@title=x)]")])
            tree = XMLTree.build(("db", [("book", {"title": "A"}),
                                         ("book", {"title": "B"})]))
            with ServiceClient(host, int(port)) as client:
                fingerprint = client.register(clash)
                assert client.solve(fingerprint, tree) is None
                assert client.certain_answers(fingerprint, tree,
                                              "lib[item(@t=w)]") is None
                assert client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


class TestInProcessServer:
    """The same conversation against an in-process ``ExchangeServer`` (the
    server loop runs on a background thread; the sync client talks to it
    over a real socket)."""

    @pytest.fixture
    def server_thread(self):
        from repro.service import AsyncExchangeService
        from repro.service.server import ExchangeServer

        ready = threading.Event()
        holder = {}

        def run() -> None:
            async def serve() -> None:
                service = AsyncExchangeService(parallel=2,
                                               result_cache_maxsize=16)
                server = ExchangeServer(service, port=0)
                await server.start()
                holder["port"] = server.port
                holder["server"] = server
                ready.set()
                await server.serve_until_shutdown(announce=False)

            asyncio.run(serve())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=30), "server did not come up"
        yield holder["port"], holder["server"]
        thread.join(timeout=30)
        assert not thread.is_alive(), "server loop did not exit"

    def test_conversation_and_malformed_lines(self, server_thread):
        port, server = server_thread
        setting = library.library_setting()
        tree = library.generate_source(3, authors_per_book=2, seed=2)
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting)
            assert client.check_consistency(fingerprint) is True
            assert client.classify(fingerprint) is True
            answers = client.certain_answers(
                fingerprint, tree, "bib[writer(@name=w)]")
            assert answers and all(len(row) == 1 for row in answers)
            solution = client.solve(fingerprint, tree)
            assert solution is not None and \
                setting.is_unordered_solution(tree, solution)
            stats = client.stats()
            assert stats["registry"]["settings_registered"] == 1
            with pytest.raises(ValueError, match="unknown operation"):
                client.request({"op": "frobnicate"})

            # A malformed line gets an error *response*, not a hangup ...
            client._sock.sendall(b"this is not json\n")
            reply = client._reader.readline()
            assert b'"ok":false' in reply.replace(b" ", b"")
            # ... and the connection keeps serving afterwards.
            assert client.ping()

            # An unknown fingerprint re-raises client-side with the
            # fingerprint prefix as the key, not the server's prose.
            from repro.service import UnknownSettingError
            with pytest.raises(UnknownSettingError) as excinfo:
                client.check_consistency("ab" * 32)
            assert excinfo.value.fingerprint == ("ab" * 32)[:16]

            assert client.shutdown()
        assert server.requests >= 8

    def test_bad_variable_orders_get_typed_replies(self, server_thread):
        port, _ = server_thread
        setting = library.library_setting()
        tree = library.generate_source(2, authors_per_book=1, seed=2)
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting)
            message = {"op": "certain_answers", "fingerprint": fingerprint,
                       "tree": tree_to_wire(tree),
                       "query": "bib[writer(@name=w)[work(@title=t)]]"}
            for order in ("wt", ["nope"], [1, 2]):
                with pytest.raises(ValueError, match="variable_order"):
                    client.request(dict(message, variable_order=order))
                assert client.ping()
            reply = client.request(dict(message, variable_order=["t", "w"]))
            assert reply["variables"] == ["t", "w"]
            assert client.shutdown()

    def test_shutdown_completes_with_idle_connections_open(self,
                                                           server_thread):
        """Regression: wait_closed() (3.12.1+) waits for connection
        handlers, so shutdown must close idle connections itself — the
        fixture teardown asserts the server loop actually exited."""
        port, _ = server_thread
        idle = socket.create_connection(("127.0.0.1", port))
        try:
            with ServiceClient("127.0.0.1", port) as client:
                assert client.ping()
                assert client.shutdown()
        finally:
            idle.close()


class TestTypedErrorReplies:
    """Request errors cross the wire as their own classes, never as the
    catch-all ``ServerError``, on a connection that keeps serving."""

    @pytest.fixture
    def client(self, request):
        """A connection to a fresh server; ``thread`` executor unless
        parametrized with ``host`` (one worker, no store)."""
        executor = getattr(request, "param", "thread")
        port, _server, join = serve_in_background(
            executor=executor, **({"workers": 1} if executor == "host"
                                  else {}))
        with ServiceClient("127.0.0.1", port) as connected:
            yield connected
            assert connected.shutdown()
        join()

    def test_client_sends_a_str_variable_order_unsplit(self, client):
        """``"wt"`` is not a list of variable names: the server refuses it
        instead of answering for the order ``["w", "t"]``."""
        fingerprint = client.register(library.library_setting())
        tree = library.generate_source(2, authors_per_book=1, seed=2)
        query = "bib[writer(@name=w)[work(@title=t)]]"
        with pytest.raises(ValueError, match="variable_order"):
            client.certain_answers(fingerprint, tree, query,
                                   variable_order="wt")
        assert client.ping()
        assert client.certain_answers(fingerprint, tree, query,
                                      variable_order=("t", "w"))

    @pytest.mark.parametrize("line, error", [
        (b"\xff\xfe{}\n", "not UTF-8"),
        (b'{"op": "ping"\n', "truncated"),
        (b"[" * 100_000 + b"]" * 100_000 + b"\n", "nested"),
    ], ids=["not-utf8", "truncated", "nested"])
    def test_undecodable_lines_are_value_errors(self, client, line, error):
        client._sock.sendall(line)
        reply = decode_line(client._reader.readline())
        assert (reply["ok"], reply["error"]) == (False, "ValueError"), error
        assert client.ping()

    @pytest.mark.parametrize("fields", [
        {"op": "register", "setting": "library"},
        {"op": "register", "setting": {"source_dtd": 7}},
        {"op": "consistency", "strategy": 1},
        {"op": "certain_answers", "tree": _library_rows("Author-1"),
         "query": {"pattern": "bib[writer(@name=w)]"}},
    ], ids=["setting-not-an-object", "dtd-not-an-object", "strategy-int",
            "query-not-text"])
    def test_malformed_fields_are_value_errors(self, client, fields):
        fingerprint = client.register(library.library_setting())
        with pytest.raises(ValueError) as excinfo:
            client.request(dict({"fingerprint": fingerprint}, **fields))
        assert type(excinfo.value) is ValueError
        assert client.ping()

    def test_repository_errors_keep_their_classes(self, client):
        from repro.exchange.presolution import PreSolutionError
        from repro.patterns.parse import PatternParseError

        fingerprint = client.register(library.library_setting())
        tree = library.generate_source(2, authors_per_book=1, seed=2)
        with pytest.raises(PatternParseError):
            client.certain_answers(fingerprint, tree, "bib[")
        # ``r[//b]`` is not fully specified: cps is undefined.
        loose = client.register(DataExchangeSetting(
            DTD("r", {"r": "A", "A": ""}), DTD("r", {"r": "b*", "b": ""}),
            [std("r[//b]", "r[A]")]))
        with pytest.raises(PreSolutionError, match="not fully specified"):
            client.solve(loose, XMLTree.build(("r", [("A", [])])))
        assert client.ping()

    def test_deeply_nested_texts_keep_their_class(self, client):
        """A query or content model nested past the recursion limit raises
        ``RecursionError`` in a direct call, and so on the client."""
        fingerprint = client.register(library.library_setting())
        tree = library.generate_source(1, seed=1)
        with pytest.raises(RecursionError):
            client.certain_answers(fingerprint, tree, "bib[" + "writer["
                                   * 400 + "work" + "]" * 401)
        with pytest.raises(RecursionError):
            client.request({"op": "register", "setting": {
                "source_dtd": {"root": "r",
                               "rules": {"r": "(" * 600 + "a" + ")" * 600}},
                "target_dtd": {"root": "t"}, "stds": []}})
        assert client.ping()

    @pytest.mark.parametrize("client", ["host"], indirect=True)
    def test_host_put_tree_without_a_store_is_a_store_error(self, client):
        from repro.storage import StoreError

        with pytest.raises(StoreError, match="no corpus store"):
            client.put_tree(library.generate_source(1, seed=1))
        assert client.ping()


#: The server-module codec functions a big line of each op runs.
_BIG_LINE_CODEC_STEPS = {
    "register": ("decode_line", "setting_from_wire"),
    "put_tree": ("decode_line", "frozen_from_wire"),
    "solve": ("decode_line", "frozen_from_wire", "tree_to_wire"),
    "certain_answers": ("decode_line", "query_from_wire", "frozen_from_wire",
                        "answers_to_wire"),
}


def test_big_line_decodes_the_query_off_loop(monkeypatch):
    """Regression: a big ``certain_answers`` line offloaded its tree decode
    and answer encode but parsed the *query* on the event loop.  Every
    codec step of a big line — the line decode, the tree, setting and
    query decodes, and the rendering of a solution or an answer set —
    must run on the service pool."""
    from repro.service import server as server_module
    from repro.service.server import ExchangeServer, serve_in_background

    current = []  # the op whose big line is in flight
    seen = {}

    def recording(name, real):
        def record(*args, **kwargs):
            if current:
                seen.setdefault(current[0], []).append(
                    (name, threading.current_thread().name))
            return real(*args, **kwargs)
        return record

    for name in {name for steps in _BIG_LINE_CODEC_STEPS.values()
                 for name in steps}:
        monkeypatch.setattr(server_module, name,
                            recording(name, getattr(server_module, name)))
    port, server, join = serve_in_background(executor="thread", parallel=2)
    setting = library.library_setting()
    tree = tree_to_wire(library.generate_source(2, authors_per_book=1, seed=3))
    # Padding pushes each line over OFFLOAD_CODEC_BYTES without needing a
    # multi-megabyte tree; unknown keys are ignored by dispatch.
    pad = "x" * (ExchangeServer.OFFLOAD_CODEC_BYTES + 1024)
    with ServiceClient("127.0.0.1", port) as client:
        fingerprint = client.register(setting)
        bodies = {
            "register": {"setting": setting_to_wire(setting)},
            "put_tree": {"tree": tree},
            "solve": {"fingerprint": fingerprint, "tree": tree},
            "certain_answers": {"fingerprint": fingerprint, "tree": tree,
                                "query": "bib[writer(@name=w)]"},
        }
        for op, body in bodies.items():
            current[:] = [op]
            reply = client.request(dict(body, op=op, pad=pad))
            current.clear()
            assert reply["ok"], reply
        assert client.shutdown()
    join()
    for op, steps in _BIG_LINE_CODEC_STEPS.items():
        assert sorted({name for name, _ in seen[op]}) == sorted(steps), op
    threads = {thread for calls in seen.values() for _, thread in calls}
    assert all(name.startswith("exchange-service") for name in threads), \
        f"big-line codec steps ran on thread(s) {threads!r}, not the pool"


def test_smoke_entry_point_passes():
    """The exact command CI runs: client --smoke boots its own server."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.service.client", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr + completed.stdout
    assert "SMOKE PASS" in completed.stdout


def test_host_executor_smoke_entry_points_pass():
    """The host legs CI runs: both smoke conversations against a server
    whose requests execute in ShardHost worker processes."""
    for mode, banner in (("--smoke", "SMOKE PASS"),
                         ("--smoke-restart", "RESTART SMOKE PASS")):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.service.client", mode,
             "--executor", "host"],
            capture_output=True, text=True, timeout=180)
        assert completed.returncode == 0, \
            completed.stderr + completed.stdout
        assert banner in completed.stdout


class TestWireStore:
    """The fingerprint-first wire surface: ``put_tree``, ``tree_fp`` in
    place of inline trees and the typed ``UnknownDocumentError``
    response."""

    def test_put_tree_and_fp_round_trip(self):
        from repro.service.server import serve_in_background
        from repro.storage import UnknownDocumentError

        port, _server, join = serve_in_background(parallel=2)
        setting = library.library_setting()
        tree = library.generate_source(3, authors_per_book=2, seed=2)
        query = "bib[writer(@name=w)]"
        with ServiceClient("127.0.0.1", port) as client:
            fingerprint = client.register(setting)
            tree_fp = client.put_tree(tree)
            assert tree_fp == tree.fingerprint()
            assert client.certain_answers(fingerprint, tree_fp, query) == \
                client.certain_answers(fingerprint, tree, query)
            solution = client.solve(fingerprint, tree_fp)
            assert solution is not None
            assert setting.is_unordered_solution(tree, solution)

            # An unknown document fingerprint is a typed error *response*
            # carrying the fingerprint, never a connection drop.
            with pytest.raises(UnknownDocumentError) as info:
                client.solve(fingerprint, "ab" * 32)
            assert info.value.fingerprint == "ab" * 32
            assert client.ping()  # connection survived
            assert client.shutdown()
        join()

    def test_restart_smoke_entry_point_passes(self):
        """The persistence leg CI runs: --smoke-restart persists into a
        --store, restarts the server on it and asserts the first request
        of the new process is answered plan-warm."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro.service.client", "--smoke-restart"],
            capture_output=True, text=True, timeout=180)
        assert completed.returncode == 0, completed.stderr + completed.stdout
        assert "RESTART SMOKE PASS" in completed.stdout
