"""Synchronous client helper for the JSON-lines exchange server.

:class:`ServiceClient` speaks the :mod:`repro.service.protocol` wire format
over one TCP connection and gives callers back native objects — settings go
in as :class:`~repro.DataExchangeSetting`, solutions come back as
:class:`~repro.XMLTree`, answers as sets of tuples — and server-side
failures re-raise as their original exception classes.

Replies are matched to requests **by id**, not by arrival order, so the
client interoperates with pipelined servers (which reply in completion
order) and with old arrival-order servers alike:

* :meth:`request` — send one message and block for *its* reply (lock-step;
  any other replies that arrive first are parked for their own waiters);
* :meth:`submit` / :meth:`collect` — fire a request without waiting, pick
  its reply up later by id;
* :meth:`collect_any` — the next reply in completion order (how a pipelined
  consumer observes fast requests overtaking slow ones);
* :meth:`pipeline` — send a whole batch back-to-back down the socket, then
  collect every reply, returned in submission order.

Also runnable as the end-to-end smoke check CI uses::

    python -m repro.service.client --smoke

which boots a server subprocess on a free port, round-trips a register +
consistency + certain-answers + solve conversation (plus a pipelined batch),
checks that a setting outside C_U is refused with a typed ``ChaseError`` and
an unprovable "inconsistent" with a typed ``ConsistencyUndecidedError``, on
a connection that keeps serving, asks the server to shut down and asserts
the process exits cleanly.
"""

from __future__ import annotations

import argparse
import socket
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..exchange.setting import DataExchangeSetting
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import Value
from .protocol import (ServerError, decode_line, encode_line,
                       error_from_wire, setting_to_wire, tree_from_wire,
                       tree_to_wire, value_from_wire)

__all__ = ["ServiceClient", "ServerError", "main"]


class ServiceClient:
    """One JSON-lines connection to an exchange server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8421,
                 timeout: Optional[float] = 30.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0
        #: Replies that arrived while a different id was being awaited,
        #: parked here for their own :meth:`collect` call.
        self._parked: Dict[int, Dict[str, Any]] = {}
        self._outstanding: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def submit(self, message: Dict[str, Any]) -> int:
        """Send one message without waiting; returns the assigned id.

        Pair with :meth:`collect` (by id) or :meth:`collect_any`
        (completion order) — the wire is now pipelined until collected.
        """
        self._next_id += 1
        request_id = self._next_id
        self._sock.sendall(encode_line(dict(message, id=request_id)))
        self._outstanding.add(request_id)
        return request_id

    def collect(self, request_id: int,
                raise_errors: bool = True) -> Dict[str, Any]:
        """Block for the reply to ``request_id``, in whatever order the
        server completes requests; raises the typed server error by default.
        """
        reply = self._parked.pop(request_id, None)
        if reply is None and request_id not in self._outstanding:
            # Fail fast instead of parking every future reply while
            # blocking on a reply that can never arrive.
            raise RuntimeError(f"request id {request_id!r} is not "
                               f"outstanding (already collected, or never "
                               f"submitted on this connection)")
        while reply is None:
            arrived_id, arrived = self._read_reply()
            if arrived_id == request_id:
                reply = arrived
            else:
                self._parked[arrived_id] = arrived
        self._outstanding.discard(request_id)
        if raise_errors and not reply.get("ok"):
            raise self._as_error(reply)
        return reply

    def pending(self) -> int:
        """How many submitted requests have not been collected yet."""
        return len(self._outstanding)

    def collect_any(self) -> Tuple[int, Dict[str, Any]]:
        """The next outstanding reply in **completion order** (parked
        replies first); never raises for error replies — inspect ``ok``.

        This is the pipelined consumer's view: after a burst of
        :meth:`submit` calls, fast requests come back here before slow ones
        submitted ahead of them.
        """
        if not self._outstanding:
            raise RuntimeError("no outstanding requests to collect")
        if self._parked:
            request_id = next(iter(self._parked))
            reply = self._parked.pop(request_id)
        else:
            request_id, reply = self._read_reply()
        self._outstanding.discard(request_id)
        return request_id, reply

    def pipeline(self, messages: Sequence[Dict[str, Any]],
                 return_exceptions: bool = False
                 ) -> List[Union[Dict[str, Any], BaseException]]:
        """Send a batch back-to-back, then collect all replies.

        Every message is on the wire before the first reply is read, so the
        server works on the whole batch at once; the returned list is in
        submission order regardless of completion order.  Error replies
        never poison their neighbours: with ``return_exceptions=True`` they
        come back as exception instances in their own slot, otherwise the
        first error is raised after every reply has been drained.
        """
        ids = [self.submit(message) for message in messages]
        replies = [self.collect(request_id, raise_errors=False)
                   for request_id in ids]
        slots: List[Union[Dict[str, Any], BaseException]] = [
            reply if reply.get("ok") else self._as_error(reply)
            for reply in replies]
        if not return_exceptions:
            for slot in slots:
                if isinstance(slot, BaseException):
                    raise slot
        return slots

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, await its reply, raise server errors."""
        return self.collect(self.submit(message))

    def _read_reply(self) -> Tuple[int, Dict[str, Any]]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = decode_line(line)
        reply_id = reply.get("id")
        if not isinstance(reply_id, int):
            raise ConnectionError(
                f"reply carries no usable id (got {reply_id!r}); "
                f"cannot demultiplex")
        return reply_id, reply

    @staticmethod
    def _as_error(reply: Dict[str, Any]) -> BaseException:
        return error_from_wire(str(reply.get("error", "ServerError")),
                               str(reply.get("message", "")))

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def register(self, setting: DataExchangeSetting, *,
                 prewarm: bool = False, persist: bool = False) -> str:
        """Register a setting; returns its fingerprint (the routing key).

        Takes the consolidated keyword set shared with every ``register``
        surface (:class:`~repro.service.registry.SettingRegistry`, the
        async service, the shard host): ``prewarm=True`` asks the server to
        compile the setting in the background immediately, so the first
        real request finds a warm shard (``prewarm_*`` counters in
        :meth:`stats`); ``persist=True`` makes the server compile *before
        replying* and pickle the compiled setting into its corpus store,
        so a restarted server restores it plan-warm.
        """
        message: Dict[str, Any] = {"op": "register",
                                   "setting": setting_to_wire(setting)}
        if prewarm:
            message["prewarm"] = True
        if persist:
            message["persist"] = True
        return self.request(message)["fingerprint"]

    def put_tree(self, tree: XMLTree) -> str:
        """Upload a source document into the server's corpus store; returns
        its fingerprint.  Pass the fingerprint anywhere :meth:`solve` /
        :meth:`certain_answers` take a tree and nothing tree-sized travels
        with those requests again."""
        return self.request({"op": "put_tree",
                             "tree": tree_to_wire(tree)})["fingerprint"]

    def prewarm(self, fingerprint: str) -> bool:
        """Schedule a background compile of a registered setting."""
        return bool(self.request({"op": "prewarm",
                                  "fingerprint": fingerprint})["scheduled"])

    def check_consistency(self, fingerprint: str,
                          strategy: str = "auto") -> bool:
        """The setting's proven consistency verdict; a check that cannot
        prove "inconsistent" raises ``ConsistencyUndecidedError``."""
        reply = self.request({"op": "consistency", "fingerprint": fingerprint,
                              "strategy": strategy})
        return bool(reply["consistent"])

    def classify(self, fingerprint: str) -> bool:
        """Is the setting in the tractable class (Theorem 6.2)?"""
        return bool(self.request({"op": "classify",
                                  "fingerprint": fingerprint})["tractable"])

    @staticmethod
    def _source_field(tree: Union[XMLTree, str]) -> Dict[str, Any]:
        """``{"tree": …}`` for an inline document, ``{"tree_fp": …}`` for a
        stored-document fingerprint (see :meth:`put_tree`)."""
        if isinstance(tree, str):
            return {"tree_fp": tree}
        return {"tree": tree_to_wire(tree)}

    def solve(self, fingerprint: str,
              tree: Union[XMLTree, str]) -> Optional[XMLTree]:
        """The canonical solution, or ``None`` when no solution exists;
        ``tree`` is the document or its stored fingerprint."""
        reply = self.request(dict({"op": "solve",
                                   "fingerprint": fingerprint},
                                  **self._source_field(tree)))
        if not reply["result_ok"] or reply["solution"] is None:
            return None
        return tree_from_wire(reply["solution"], ordered=False)

    def certain_answers(self, fingerprint: str, tree: Union[XMLTree, str],
                        query_pattern: str,
                        variable_order: Optional[Sequence[str]] = None
                        ) -> Optional[Set[Tuple[Value, ...]]]:
        """``certain(Q, T)`` for a pattern-text query; ``None`` = no solution.
        ``tree`` is the document or its stored fingerprint."""
        message: Dict[str, Any] = dict(
            {"op": "certain_answers", "fingerprint": fingerprint,
             "query": query_pattern}, **self._source_field(tree))
        if variable_order is not None:
            # A str travels as is, for the server to refuse: list("wt")
            # would split it into the variables "w" and "t".
            message["variable_order"] = (
                variable_order if isinstance(variable_order, str)
                else list(variable_order))
        reply = self.request(message)
        if reply["answers"] is None:
            return None
        return {tuple(value_from_wire(value) for value in answer)
                for answer in reply["answers"]}

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})["stats"]

    def trace_dump(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The server's span ring buffer: ``{"enabled": bool, "spans":
        [...]}``, newest spans last (``limit`` keeps only the newest N).
        Feed the spans to :func:`repro.obs.trace.format_trace` or dump
        them for ``python -m repro.obs.report``."""
        message: Dict[str, Any] = {"op": "trace_dump"}
        if limit is not None:
            message["limit"] = limit
        reply = self.request(message)
        return {"enabled": reply.get("enabled", False),
                "spans": reply.get("spans", [])}

    def shutdown(self) -> bool:
        """Ask the server to exit; returns its acknowledgement."""
        return bool(self.request({"op": "shutdown"}).get("bye"))


# --------------------------------------------------------------------- #
# Smoke mode (used by CI)
# --------------------------------------------------------------------- #

def run_smoke(executor: str = "thread", verbose: bool = True) -> int:
    """Boot a server subprocess, round-trip the core conversation, check
    the refusals outside C_U and of an unproven "inconsistent", assert a
    clean shutdown.  Returns a process-style exit code."""
    from ..exchange.errors import ChaseError, ConsistencyUndecidedError
    from ..exchange.std import std
    from ..workloads import library
    from ..xmlmodel.dtd import DTD

    def say(text: str) -> None:
        if verbose:
            print(text, flush=True)

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.server", "--port", "0",
         "--executor", executor, "--result-cache-maxsize", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = process.stdout.readline().strip()
        if not banner.startswith("listening on "):
            raise AssertionError(f"unexpected server banner: {banner!r}")
        host, port = banner.split()[-1].rsplit(":", 1)
        say(f"server up on {host}:{port}")

        setting = library.library_setting()
        tree = library.generate_source(4, authors_per_book=2, seed=1)
        with ServiceClient(host, int(port)) as client:
            assert client.ping()
            fingerprint = client.register(setting)
            assert fingerprint == setting.fingerprint(), \
                "client- and server-side fingerprints disagree"
            say(f"registered setting {fingerprint[:16]}…")
            assert client.check_consistency(fingerprint) is True
            say("consistency round-trip ok")
            answers = client.certain_answers(
                fingerprint, tree, "bib[writer(@name=w)[work(@title='Book-0')]]")
            assert answers == {("Author-1",), ("Author-2",)}, answers
            say(f"certain-answers round-trip ok ({len(answers)} tuples)")
            solution = client.solve(fingerprint, tree)
            assert solution is not None and len(solution) > 1
            say(f"solve round-trip ok ({len(solution)} solution nodes)")
            pipelined = client.pipeline([
                {"op": "ping"},
                {"op": "consistency", "fingerprint": fingerprint},
                {"op": "ping"},
            ])
            assert [reply["op"] for reply in pipelined] == \
                ["ping", "consistency", "ping"]
            say("pipelined batch round-trip ok (3 replies demuxed by id)")
            stats = client.stats()
            assert stats["registry"]["settings_registered"] == 1
            # Target r → a | b is not univocal: r[a] and r[b] are both
            # solutions, so the chase has no canonical one to answer from.
            either_fp = client.register(DataExchangeSetting(
                DTD("r", {"r": "A*", "A": ""}, {"A": ["a"]}),
                DTD("r", {"r": "a | b", "a": "", "b": ""}),
                [std("r", "r")]))
            either_tree = XMLTree.build(("r", [("A", {"a": "1"})]))
            for refused in (
                    lambda: client.certain_answers(either_fp, either_tree,
                                                   "r[a]"),
                    lambda: client.solve(either_fp, either_tree)):
                try:
                    refused()
                except ChaseError as error:
                    assert "not univocal" in str(error), error
                else:
                    raise AssertionError("a setting outside C_U was answered")
            assert client.ping()
            say("refusal outside C_U ok (typed ChaseError, connection alive)")
            # The STD fires only where @x = @y, outside Section 4's
            # distinct-variable proviso: the attribute-erased test would
            # say "inconsistent", yet r[A(@x=1, @y=2)] has the solution r.
            repeated_fp = client.register(DataExchangeSetting(
                DTD("r", {"r": "A", "A": ""}, {"A": ["x", "y"]}),
                DTD("r", {"r": "", "b": ""}),
                [std("r[b]", "r[A(@x=v, @y=v)]")]))
            try:
                client.check_consistency(repeated_fp)
            except ConsistencyUndecidedError:
                pass
            else:
                raise AssertionError("an unproven 'inconsistent' was answered")
            assert client.ping()
            say("undecided consistency refused ok (typed "
                "ConsistencyUndecidedError, connection alive)")
            assert client.shutdown()
        if process.wait(timeout=30) != 0:
            raise AssertionError(f"server exited with {process.returncode}")
        tail = process.stdout.read()
        assert "server shut down cleanly" in tail, tail
        say("clean shutdown confirmed")
        say("SMOKE PASS")
        return 0
    except BaseException as error:
        process.kill()
        process.wait()
        print(f"SMOKE FAIL: {error}", file=sys.stderr, flush=True)
        return 1
    finally:
        process.stdout.close()


def _boot_store_server(store: str, executor: str):
    """Boot a ``--store`` server subprocess; returns ``(process, host,
    port, restored)`` once the listening banner is out (``restored`` is the
    count from the plan-warm boot banner)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.server", "--port", "0",
         "--executor", executor, "--store", store],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    restored: Optional[int] = None
    while True:
        line = process.stdout.readline()
        if not line:
            process.communicate()  # reaps the server, closes its pipe
            raise AssertionError(
                f"server exited ({process.returncode}) before the "
                f"listening banner")
        line = line.strip()
        if line.startswith("restored "):
            restored = int(line.split()[1])
        elif line.startswith("listening on "):
            host, port = line.split()[-1].rsplit(":", 1)
            return process, host, int(port), restored


def run_restart_smoke(executor: str = "thread", verbose: bool = True) -> int:
    """The persistence smoke check CI runs: boot a server on a fresh
    ``--store``, persist a setting and upload a document, shut down; boot a
    *second* server on the same store and assert its very first request is
    answered plan-warm — ``prewarm_hits >= 1``, ``compiled_misses == 0`` —
    against the fingerprint-addressed document, with no re-register and no
    re-upload.  Returns a process-style exit code."""
    import tempfile

    from ..workloads import library

    def say(text: str) -> None:
        if verbose:
            print(text, flush=True)

    setting = library.library_setting()
    tree = library.generate_source(4, authors_per_book=2, seed=1)
    query = "bib[writer(@name=w)[work(@title='Book-0')]]"
    expected = {("Author-1",), ("Author-2",)}
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store:
        process, host, port, restored = _boot_store_server(store, executor)
        try:
            assert restored == 0, f"fresh store restored {restored}"
            with ServiceClient(host, port) as client:
                fingerprint = client.register(setting, persist=True)
                tree_fp = client.put_tree(tree)
                answers = client.certain_answers(fingerprint, tree_fp, query)
                assert answers == expected, answers
                say(f"leg 1: persisted setting {fingerprint[:16]}… and "
                    f"document {tree_fp[:16]}…, fp-addressed request ok")
                assert client.shutdown()
            if process.wait(timeout=30) != 0:
                raise AssertionError(
                    f"server exited with {process.returncode}")
        except BaseException as error:
            process.kill()
            process.wait()
            print(f"RESTART SMOKE FAIL: {error}", file=sys.stderr,
                  flush=True)
            return 1
        finally:
            process.stdout.close()
        process, host, port, restored = _boot_store_server(store, executor)
        try:
            assert restored == 1, f"expected 1 restored setting, " \
                                  f"got {restored}"
            with ServiceClient(host, port) as client:
                # The very first request of the new process: no register,
                # no upload — the store supplies both halves.
                answers = client.certain_answers(fingerprint, tree_fp, query)
                assert answers == expected, answers
                registry = client.stats()["registry"]
                assert registry["compiled_misses"] == 0, registry
                assert registry["prewarm_hits"] >= 1, registry
                assert registry["store_hits"] >= 1, registry
                say(f"leg 2: restored boot answered its first request "
                    f"plan-warm (prewarm_hits="
                    f"{registry['prewarm_hits']}, compiled_misses=0, "
                    f"store_hits={registry['store_hits']})")
                assert client.shutdown()
            if process.wait(timeout=30) != 0:
                raise AssertionError(
                    f"server exited with {process.returncode}")
            say("RESTART SMOKE PASS")
            return 0
        except BaseException as error:
            process.kill()
            process.wait()
            print(f"RESTART SMOKE FAIL: {error}", file=sys.stderr,
                  flush=True)
            return 1
        finally:
            process.stdout.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="boot a server subprocess and round-trip the "
                             "core conversation (CI smoke check)")
    parser.add_argument("--smoke-restart", action="store_true",
                        help="persistence smoke check: persist into a "
                             "--store, restart the server on it, assert "
                             "the first request is answered plan-warm")
    parser.add_argument("--executor", default="thread",
                        help="server executor for --smoke/--smoke-restart")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args.executor)
    if args.smoke_restart:
        return run_restart_smoke(args.executor)
    parser.error("nothing to do: pass --smoke or --smoke-restart (or use "
                 "ServiceClient programmatically)")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
