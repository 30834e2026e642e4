"""A stdlib-only JSON-lines TCP server over :class:`AsyncExchangeService`.

The demonstration workload of the serving layer: one asyncio server process
holding one :class:`~repro.service.AsyncExchangeService`, speaking
newline-delimited JSON (see :mod:`repro.service.protocol`).  Run it with::

    python -m repro.service.server [--host 127.0.0.1] [--port 8421]
        [--executor thread] [--parallel 4] [--workers N]
        [--max-compiled N] [--result-cache-maxsize N]
        [--max-in-flight N] [--max-registered N] [--store PATH]

**Persistence**: ``--store PATH`` opens (creating if needed) an on-disk
:class:`~repro.storage.CorpusStore` at ``PATH``.  Documents uploaded with
the ``put_tree`` op land there and become addressable by fingerprint
(``"tree_fp"``) on every per-tree request; settings registered with
``"persist": true`` have their *compiled* form pickled into the store, and
on boot the server restores every persisted setting plan-warm — the first
request after a restart is a ``compiled_hit``, never a compile.  Without
``--store`` the server still accepts ``put_tree`` into an ephemeral
in-memory store (host mode excepted — worker processes can only share an
on-disk store).

``--port 0`` picks a free port; the server always announces
``listening on HOST:PORT`` on stdout once it accepts connections, which is
what the client helper's ``--smoke`` mode (and CI) wait for.

**Executors**: ``--executor`` is ``serial`` (inline on the event loop),
``thread`` (the default) or ``host``.  ``--workers N`` selects the
``host`` executor — ``N`` long-lived worker processes (default
``os.cpu_count()`` with ``--executor host`` alone), each owning the
compiled settings, plan caches and result caches of the fingerprints
routed to it by ``DataExchangeSetting.fingerprint()``.  Workers stay warm
across requests (nothing per-setting is re-pickled per call), escape the
GIL on multi-core machines, and are restarted and re-registered
transparently if they crash (``worker_restarts`` under
``stats()["host"]``).  The host is the one multi-process shape;
``--executor thread`` remains the single-process default, and the only
executor that overlaps slow and fast requests for the same setting.

**Connections are pipelined**: every request line starts its own asyncio
task the moment it is read, and replies are written as the requests
*complete* — matched to their request by the echoed ``id``, not by arrival
order.  A slow ``solve`` never delays a fast ``ping`` sent after it on the
same connection.  Clients that want the old lock-step behaviour simply wait
for each reply before sending the next request (which is exactly what
:meth:`repro.service.client.ServiceClient.request` does); pipelining
clients use ``submit()``/``collect()`` or ``pipeline()`` and demultiplex
by ``id``.  Requests sent *without* an ``id`` are answered too, but their
replies carry nothing to match on — pipeline only with ids.

Protocol (one JSON object per line, ``id`` echoed back when present):

===================  ====================================================
request ``op``       reply (all carry ``"ok"``; errors add ``error``/
                     ``message`` and keep the connection open)
===================  ====================================================
``register``         ``{"fingerprint": …}`` — body: ``{"setting": …}``;
                     optional ``"prewarm": true`` schedules a background
                     compile so the first request finds the shard warm;
                     ``"persist": true`` compiles off-loop and pickles the
                     compiled setting into the store before replying
``put_tree``         ``{"fingerprint": …}`` — body: ``{"tree": …}``; the
                     stored fingerprint is accepted as ``"tree_fp"`` in
                     place of an inline ``"tree"`` on ``solve`` /
                     ``certain_answers`` (an unknown one is a typed
                     ``UnknownDocumentError`` response)
``consistency``      ``{"consistent": bool, "strategy": …, "elapsed": …}``
                     — a proven verdict; a check that cannot prove
                     "inconsistent" is a ``ConsistencyUndecidedError``
                     error reply
``classify``         ``{"tractable": bool, "detail": …}``
``solve``            ``{"result_ok": bool, "solution": tree|null, …}``
``certain_answers``  ``{"result_ok": bool, "answers": […]|null,``
                     ``"variables": […], …}``
``stats``            ``{"stats": {…}, "obs": {…}}`` — registry + per-shard
                     counters, plus the metrics-registry snapshot
``trace_dump``       ``{"enabled": bool, "spans": […]}`` — the span ring
                     buffer (optional ``"limit"`` keeps the newest N)
``ping``             ``{"pong": true}``
``shutdown``         ``{"bye": true}``, then the server exits cleanly
                     (in-flight requests on the connection reply first)
===================  ====================================================

**Source documents are snapshots**: an inline ``"tree"`` is read straight
into a ``FrozenTree`` (:func:`~repro.service.protocol.frozen_from_wire`),
which ``put_tree`` stores and ``solve`` / ``certain_answers`` hand to the
shard (or a host frame); no ``XMLTree`` is built for it.

Engine failures (``ChaseError``, ``ConsistencyUndecidedError``,
precondition ``ValueError``\\ s, unknown fingerprints, quota rejections)
and undecodable lines are *responses*, never connection drops: the error
class name travels in ``error`` so clients can re-raise faithfully — see
:func:`repro.service.protocol.error_to_wire`.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Set, TypeVar

from ..obs.metrics import loop_lag_probe
from ..obs.metrics import registry as obs_metrics
from ..obs.trace import configure as obs_configure
from ..obs.trace import enabled as obs_enabled
from ..obs.trace import records as obs_records
from ..obs.trace import span as obs_span
from .protocol import (answers_to_wire, decode_line, encode_line,
                       error_to_wire, frozen_from_wire, query_from_wire,
                       setting_from_wire, tree_to_wire)
from .quota import QuotaPolicy
from .service import SERVICE_EXECUTORS, AsyncExchangeService

_T = TypeVar("_T")

__all__ = ["ExchangeServer", "serve_in_background", "main"]


class ExchangeServer:
    """The asyncio JSON-lines front end of one :class:`AsyncExchangeService`."""

    #: Per-line buffer bound: big solve requests (large source trees)
    #: easily exceed asyncio's 64 KiB default.
    LINE_LIMIT = 32 * 1024 * 1024

    def __init__(self, service: AsyncExchangeService,
                 host: str = "127.0.0.1", port: int = 8421) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._writers: set = set()
        #: Background prewarm tasks spawned by ``register`` + ``prewarm``.
        self._warm_tasks: Set[asyncio.Task] = set()
        #: Live connection-handler tasks, so aclose() can drain them
        #: instead of letting loop teardown cancel them mid-EOF.
        self._conn_tasks: Set[asyncio.Task] = set()
        self.connections = 0
        self.requests = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve_connection,
                                                  self.host, self.port,
                                                  limit=self.LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self, announce: bool = True) -> None:
        """Serve until a ``shutdown`` request arrives, then close cleanly."""
        if self._server is None:
            await self.start()
        if announce:
            # repro-lint: disable=RL001 -- startup banner: the CI smoke test
            # and example clients block on this exact line to learn the port
            print(f"listening on {self.host}:{self.port}", flush=True)
        probe: Optional[asyncio.Task] = None
        if obs_enabled():
            # The event-loop lag probe only runs when observability is on:
            # it feeds the ``loop.lag`` gauge the extended ``stats`` op
            # reports, surfacing loop stalls (big codec work that escaped
            # the offload threshold, GC pauses) as a number.
            probe = asyncio.create_task(loop_lag_probe())
        try:
            await self._shutdown.wait()
        finally:
            if probe is not None:
                probe.cancel()
            await self.aclose()

    async def aclose(self) -> None:
        for task in list(self._warm_tasks):
            task.cancel()
        if self._server is not None:
            self._server.close()
            # Close every live connection first: a handler parked in
            # readline() sees EOF and exits, otherwise wait_closed() (which
            # since 3.12.1 waits for all connection handlers, not just the
            # listening socket) would hang on any idle client.
            for writer in list(self._writers):
                writer.close()
            # ... and give the handlers a chance to actually process that
            # EOF: the service shutdown below blocks the loop, and a
            # handler still parked in readline() at loop teardown would be
            # cancelled noisily instead of exiting cleanly.
            if self._conn_tasks:
                await asyncio.wait(list(self._conn_tasks), timeout=5)
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One connection, **pipelined**: each request line becomes its own
        task; replies are written (under a per-connection lock) as requests
        complete, in completion order, matched by the echoed ``id``."""
        self.connections += 1
        self._writers.add(writer)
        handler = asyncio.current_task()
        if handler is not None:
            self._conn_tasks.add(handler)
            handler.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        in_flight: Set[asyncio.Task] = set()
        closing = asyncio.Event()
        try:
            while not (self._shutdown.is_set() or closing.is_set()):
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._serve_line(
                    line, writer, write_lock, in_flight, closing))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
            # EOF (or shutdown): let in-flight requests finish replying
            # before the connection is torn down.
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
        except (ConnectionResetError, asyncio.IncompleteReadError,
                ValueError):
            # ValueError: a request line overran LINE_LIMIT — the stream is
            # no longer parseable, so the connection must drop.
            pass
        finally:
            for task in list(in_flight):
                task.cancel()
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock,
                          in_flight: Set[asyncio.Task],
                          closing: asyncio.Event) -> None:
        """Serve one request line to completion and write its reply."""
        reply = await self._handle_line(line)
        bye = bool(reply.get("bye"))
        first_bye = False
        if bye:
            # Only the FIRST shutdown on a connection waits for the other
            # in-flight requests — a second pipelined shutdown must not
            # gather the first (they would deadlock awaiting each other).
            first_bye = not closing.is_set()
            closing.set()
        try:
            if first_bye:
                # Graceful shutdown: every other in-flight request on this
                # connection replies before the "bye" goes out and the
                # server starts closing connections.
                current = asyncio.current_task()
                others = [task for task in in_flight if task is not current]
                if others:
                    await asyncio.gather(*others, return_exceptions=True)
            async with write_lock:
                try:
                    writer.write(encode_line(reply))
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    pass
        finally:
            # Only the FIRST bye triggers the server shutdown: it has
            # awaited every other in-flight task (later byes included), so
            # all replies are on the wire before connections start closing.
            # Set even when the client vanished before reading the reply —
            # the shutdown it requested must still happen.
            if first_bye:
                self._shutdown.set()

    #: Payloads above this many bytes are decoded/encoded off the event
    #: loop: a multi-megabyte solve tree must not stall the loop that every
    #: other connection's replies are written from.
    OFFLOAD_CODEC_BYTES = 64 * 1024

    async def _codec(self, big: bool, kind: str, work: Callable[[], _T]) -> _T:
        """One codec step of a request: ``work()`` on the loop, or — when
        the request line was ``big`` — off it, on the service pool, inside
        a ``server.codec`` span of this ``kind``."""
        if not big:
            return work()
        with obs_span("server.codec", kind=kind):
            return await self.service.offload(work)

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        big = len(line) > self.OFFLOAD_CODEC_BYTES
        # server.request is the outermost span of a request's trace: every
        # codec, service and (host-mode) worker span parents under it.
        with obs_span("server.request", bytes=len(line)) as root:
            try:
                message = await self._codec(big, "decode",
                                            lambda: decode_line(line))
                request_id = message.get("id")
                root.annotate(op=message.get("op"))
                reply = await self._dispatch(message, big)
            except Exception as error:
                reply = error_to_wire(error)
        if request_id is not None:
            reply["id"] = request_id
        return reply

    async def _dispatch(self, message: Dict[str, Any],
                        big: bool = False) -> Dict[str, Any]:
        op = message.get("op")
        self.requests += 1

        async def wire_tree(wire: Any):
            """The request tree's snapshot, read straight from its rows —
            off-loop when the request line was big, so a huge source tree
            cannot stall the loop."""
            return await self._codec(big, "tree",
                                     lambda: frozen_from_wire(wire))

        async def wire_source(msg: Dict[str, Any]):
            """The per-tree request's source: a stored-document fingerprint
            (``tree_fp``, nothing tree-sized on the wire) or the inline
            ``tree``'s snapshot."""
            if msg.get("tree_fp") is not None:
                return str(msg["tree_fp"])
            return await wire_tree(msg["tree"])

        if op == "ping":
            return {"ok": True, "op": op, "pong": True}
        if op == "stats":
            return {"ok": True, "op": op, "stats": self.service.stats(),
                    "server": {"connections": self.connections,
                               "requests": self.requests},
                    "obs": {"tracing": obs_enabled(),
                            "metrics": obs_metrics.snapshot()}}
        if op == "trace_dump":
            # The live tracing surface: the ring buffer of finished spans,
            # newest last (``limit`` keeps only the most recent N).
            return {"ok": True, "op": op, "enabled": obs_enabled(),
                    "spans": obs_records(message.get("limit"))}
        if op == "shutdown":
            # The shutdown event is set by _serve_line *after* the "bye"
            # reply is on the wire (and after the connection's other
            # in-flight requests have replied) — setting it here would race
            # aclose() against our own reply.
            return {"ok": True, "op": op, "bye": True}
        if op == "register":
            # A big register line means a big setting: rebuild it off-loop
            # like trees, so DTD parsing cannot stall other connections.
            setting = await self._codec(
                big, "setting", lambda: setting_from_wire(message["setting"]))
            if message.get("persist"):
                # persist compiles (under prewarm accounting) and writes
                # the store — blocking work, so it runs off the loop; the
                # reply only goes out once the pickle is durable.
                service = self.service
                fingerprint = await service.offload(
                    lambda: service.register(setting, persist=True))
                return {"ok": True, "op": op, "fingerprint": fingerprint,
                        "persisted": True}
            fingerprint = self.service.register(setting)
            if message.get("prewarm"):
                self._spawn_prewarm(fingerprint)
            return {"ok": True, "op": op, "fingerprint": fingerprint}
        if op == "put_tree":
            tree = await wire_tree(message["tree"])
            fingerprint = await self.service.put_tree(tree)
            return {"ok": True, "op": op, "fingerprint": fingerprint}
        if op == "prewarm":
            self._spawn_prewarm(message["fingerprint"])
            return {"ok": True, "op": op, "scheduled": True}
        if op == "consistency":
            result = await self.service.check_consistency(
                message["fingerprint"], message.get("strategy", "auto"))
            return {"ok": True, "op": op, "consistent": bool(result.payload),
                    "strategy": result.strategy, "elapsed": result.elapsed}
        if op == "classify":
            result = await self.service.classify(message["fingerprint"])
            return {"ok": True, "op": op,
                    "tractable": bool(result.payload.tractable),
                    "detail": result.detail, "elapsed": result.elapsed}
        if op == "solve":
            result = await self.service.solve(
                message["fingerprint"], await wire_source(message))
            if result.ok and result.payload is not None:
                payload = result.payload
                # Solutions are at least source-sized: render big ones
                # off-loop too.
                solution = await self._codec(big, "solution",
                                             lambda: tree_to_wire(payload))
            else:
                solution = None
            return {"ok": True, "op": op, "result_ok": result.ok,
                    "solution": solution, "detail": result.detail,
                    "elapsed": result.elapsed}
        if op == "certain_answers":
            order = message.get("variable_order")
            # The query parse rides the same rule as the tree: a big
            # request line must not decode any of its payload on the loop.
            query = await self._codec(
                big, "query", lambda: query_from_wire(message["query"]))
            result = await self.service.certain_answers(
                message["fingerprint"], await wire_source(message),
                query, order)
            payload = result.payload
            # Answer sets scale with the (big) source tree: render off-loop.
            answers = await self._codec(big, "answers",
                                        lambda: answers_to_wire(payload))
            # The order the answer tuples follow: the request's, else the
            # query's free variables (repro.exchange.certain_answers'
            # default).
            variables = (list(order) if order is not None
                         else query.free_variables())
            return {"ok": True, "op": op, "result_ok": result.ok,
                    "answers": answers, "variables": variables,
                    "detail": result.detail, "elapsed": result.elapsed}
        raise ValueError(f"unknown operation {op!r}")

    def _spawn_prewarm(self, fingerprint: str) -> None:
        """Compile-ahead in the background: the register/prewarm reply goes
        out immediately while the compile runs on the service executor, so
        the setting's first real request finds a warm shard."""
        task = asyncio.create_task(self._prewarm(fingerprint))
        self._warm_tasks.add(task)
        task.add_done_callback(self._warm_tasks.discard)

    async def _prewarm(self, fingerprint: str) -> None:
        try:
            await self.service.prewarm(fingerprint)
        except asyncio.CancelledError:  # pragma: no cover - shutdown race
            raise
        except Exception:
            # Best-effort warm-up: a failing compile surfaces (typed) on
            # the first real request, exactly as without prewarming.
            pass


# --------------------------------------------------------------------- #
# Embedded server
# --------------------------------------------------------------------- #

def serve_in_background(**service_kwargs: Any):
    """Boot an :class:`ExchangeServer` on a daemon thread with its own
    event loop; block until it accepts connections.

    The embedded-server helper the in-process tests and benchmarks share
    (an alternative to the ``python -m repro.service.server`` subprocess):
    returns ``(port, server, join)`` where ``join()`` waits for the server
    loop to exit after a ``shutdown`` request and raises if it does not.
    ``service_kwargs`` go to :class:`AsyncExchangeService` verbatim.
    """
    ready = threading.Event()
    holder: Dict[str, Any] = {}

    def run() -> None:
        async def serve() -> None:
            service = AsyncExchangeService(**service_kwargs)
            server = ExchangeServer(service, port=0)
            await server.start()
            holder["port"] = server.port
            holder["server"] = server
            ready.set()
            await server.serve_until_shutdown(announce=False)

        try:
            asyncio.run(serve())
        except BaseException as error:  # surfaced to the caller below
            holder["error"] = error
            ready.set()

    thread = threading.Thread(target=run, daemon=True,
                              name="exchange-server")
    thread.start()
    if not ready.wait(timeout=60):
        raise RuntimeError("embedded exchange server did not come up")
    if "error" in holder and "port" not in holder:
        raise RuntimeError("embedded exchange server failed to start") \
            from holder["error"]

    def join(timeout: float = 60) -> None:
        thread.join(timeout=timeout)
        if thread.is_alive():
            raise RuntimeError("embedded exchange server did not shut down")
        if "error" in holder:
            raise RuntimeError("embedded exchange server crashed") \
                from holder["error"]

    return holder["port"], holder["server"], join


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.server", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--executor", default=None,
                        choices=SERVICE_EXECUTORS,
                        help="request executor (default: thread, or host "
                             "when --workers is given)")
    parser.add_argument("--parallel", type=int, default=4)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the host executor "
                             "(implies --executor host; --executor host "
                             "alone defaults to os.cpu_count())")
    parser.add_argument("--max-compiled", type=int, default=None,
                        help="LRU bound on concurrently compiled settings")
    parser.add_argument("--result-cache-maxsize", type=int, default=None,
                        help="per-setting LRU bound on cached results")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        help="per-setting quota on admitted-but-unfinished "
                             "requests (over-quota work is rejected with "
                             "QuotaExceededError, not queued)")
    parser.add_argument("--max-registered", type=int, default=None,
                        help="quota on distinct registered settings")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="open (creating if needed) an on-disk corpus "
                             "store at PATH: put_tree documents and "
                             "persist-registered settings survive restarts, "
                             "and every persisted setting is restored "
                             "plan-warm on boot")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="enable tracing and append every finished "
                             "span to PATH as JSON lines (render with "
                             "python -m repro.obs.report PATH)")
    parser.add_argument("--slow-ms", type=float, default=None,
                        help="enable tracing and log the full span tree "
                             "of any request slower than this many "
                             "milliseconds to stderr")
    args = parser.parse_args(argv)

    if args.workers is not None and args.executor not in (None, "host"):
        parser.error(f"--workers selects the host executor; it cannot be "
                     f"combined with --executor {args.executor}")
    executor = args.executor or ("host" if args.workers is not None
                                 else "thread")

    quota: Optional[QuotaPolicy] = None
    if args.max_in_flight is not None or args.max_registered is not None:
        quota = QuotaPolicy(max_in_flight=args.max_in_flight,
                            max_registered=args.max_registered)

    if args.trace is not None or args.slow_ms is not None:
        obs_configure(trace_path=args.trace,
                      slow_threshold=(args.slow_ms / 1000.0
                                      if args.slow_ms is not None else None))

    async def run() -> None:
        service = AsyncExchangeService(
            executor=executor, parallel=args.parallel,
            workers=args.workers,
            max_compiled=args.max_compiled,
            result_cache_maxsize=args.result_cache_maxsize,
            quota=quota, store=args.store)
        if args.store is not None:
            # Plan-warm boot: every setting persisted in the store is
            # re-admitted compiled before the listening banner, so the
            # first request a client can possibly send never compiles.
            restored = await service.offload(service.restore_settings)
            # repro-lint: disable=RL001 -- startup banner (pre-listen), the
            # restart smoke test blocks on this exact line
            print(f"restored {len(restored)} setting(s) from "
                  f"{args.store}", flush=True)
        server = ExchangeServer(service, args.host, args.port)
        await server.serve_until_shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    print("server shut down cleanly", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
