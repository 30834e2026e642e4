"""Multi-process serving: one long-lived shard worker per core.

A :class:`ShardHost` promotes the :class:`~repro.service.shard.Shard`
boundary from a thread to a **process** boundary; it is the serving
layer's one multi-process mechanism.  It spawns ``workers`` long-lived
worker processes (default ``os.cpu_count()``), each owning a full
:class:`~repro.service.registry.SettingRegistry` slice: compiled settings,
plan caches and result caches live *in the worker* and stay warm across
requests — nothing per-setting is ever re-shipped per call.

Routing is by ``DataExchangeSetting.fingerprint()``: the first 16 hex
digits of the (SHA-256) fingerprint, taken modulo the worker count — a
stable, cross-process hash, so every request for a setting lands on the
same worker and the shared-nothing caches it warmed.  ``register`` and
``prewarm`` are forwarded to the owning worker; :meth:`stats` fans out to
every worker and aggregates.

Transport is stdlib only: one duplex :func:`multiprocessing.Pipe` per
worker carrying **pickle frames**, one message each.  The pipe already
length-prefixes every message, and a message cut short by a dying peer
raises ``OSError`` on receipt, which the reader treats as the worker's
exit.  Frames are ``(request_id, op, payload, span_context)`` tuples and
replies ``(request_id, ok, outcome, spans)`` tuples — one shape each,
control frames included; each worker serves its pipe serially
(shared-nothing, one process per core) while the supervisor demultiplexes
replies to concurrent callers by ``request_id``.

**Call handles**: :meth:`ShardHost.submit` writes a request's frame and
returns at once with its pending call, whose ``result()`` blocks for the
reply and re-raises what the worker raised; :meth:`ShardHost.execute` is
``submit(request).result()`` under a ``host.pipe`` span.  Submitting several
requests before collecting any pipelines them down the owning worker's
pipe, which is how ``AsyncExchangeService.batch`` runs a host group.

**Crash containment**: a worker that segfaults, gets OOM-killed or is
fault-injected (:meth:`inject_crash`) is detected by its reader thread
(pipe EOF), restarted, and re-registered from the supervisor's
authoritative setting map — prewarming again whatever was prewarmed.  The
event is counted as ``worker_restarts`` in :meth:`stats`.  Requests that
were in flight on the dead worker are resubmitted once to its replacement
(exchange requests are pure compute, so the retry is safe and no reply is
lost); a request whose *retry* also dies fails with
:class:`WorkerCrashError` rather than crash-looping the worker.  A crash
therefore degrades one shard slice's cache warmth — never the service.

**Exit and supervisor death**: a host still open at interpreter exit is
closed by a finalizer that multiprocessing's exit handler runs before it
terminates daemonic children; otherwise the host would take those exits
for crashes and the handler would wait forever on the replacements.  A
forked child closes every supervisor pipe end it inherited as it starts,
so the supervisor process is their only holder: when it dies (even by
``SIGKILL``) each worker reads EOF and exits.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import pickle
import signal
import threading
from typing import Any, Dict, List, Optional, Union

from ..engine import CacheStats, EngineResult, merge_counts
from ..engine.compiled import CompiledSetting, compile_setting
from ..exchange.setting import DataExchangeSetting
from ..obs.metrics import registry as obs_metrics
from ..obs.trace import (activate, capture, current_context, ingest,
                         span as obs_span)
from ..storage import CorpusStore, StoreError
from .registry import SettingRegistry, UnknownSettingError
from .requests import ExchangeRequest

__all__ = ["ShardHost", "WorkerCrashError"]

#: Seconds a worker gets to finish its current request at close (and a
#: crashed worker to be reaped) before it is terminated.
SHUTDOWN_TIMEOUT = 10.0


class WorkerCrashError(RuntimeError):
    """A request was lost to a crashing worker twice (original + retry)."""


# --------------------------------------------------------------------- #
# Pipe frames
# --------------------------------------------------------------------- #

def _encode_frame(obj: Any) -> bytes:
    """``obj`` as one pipe message: its pickle (the one encode seam)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# --------------------------------------------------------------------- #
# The worker process
# --------------------------------------------------------------------- #

def _worker_main(conn, registry_config: Dict[str, Any]) -> None:
    """One worker: a private registry slice served serially off one pipe.

    Runs until the supervisor sends ``shutdown`` or closes the pipe.  Every
    failure is a *reply*, never a worker exit: exceptions (``ChaseError``,
    ``UnknownSettingError``, …) travel back pickled and re-raise in the
    supervisor, exactly like the in-process executors.
    """
    # The supervisor owns lifecycle; a terminal Ctrl-C goes to it, and this
    # worker exits on pipe EOF rather than on a racing KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    registry = SettingRegistry(**registry_config)
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            break  # supervisor gone: exit quietly
        try:
            request_id, op, payload, context = pickle.loads(frame)
        except Exception:
            break  # unframeable garbage: the pipe is beyond recovery
        if op == "shutdown":
            try:
                conn.send_bytes(_encode_frame((request_id, True, True, ())))
            except (OSError, ValueError):
                pass
            break
        if op == "crash":
            # Fault injection for lifecycle tests and chaos drills: die
            # exactly as a segfault would — mid-stream, without replying.
            os._exit(int(payload or 2))
        captured: List[Dict[str, Any]] = []
        try:
            if context is not None:
                # The supervisor shipped a span context: run under it and
                # capture whatever spans the op opens, so the reply carries
                # them home and the request's trace stays one rooted tree
                # across the process boundary.  perf_counter values are not
                # comparable across processes — reconstruction leans on the
                # parent ids and durations only, never on the clocks.
                with capture() as captured, activate(tuple(context)):
                    with obs_span("host.worker", op=op, pid=os.getpid()):
                        outcome: Any = _serve_worker_op(registry, op, payload)
            else:
                outcome = _serve_worker_op(registry, op, payload)
            reply = (request_id, True, outcome, tuple(captured))
        except BaseException as error:
            reply = (request_id, False, error, tuple(captured))
        try:
            conn.send_bytes(_encode_frame(reply))
        except (OSError, ValueError):
            if not reply[1]:
                break  # cannot even report the failure: exit, get restarted
            # The outcome itself would not pickle/send: report that instead
            # of dying with the request unanswered.
            fallback = (request_id, False, RuntimeError(
                f"worker could not ship the {op!r} outcome back: "
                f"{type(reply[2]).__name__} did not serialize"),
                tuple(captured))
            try:
                conn.send_bytes(_encode_frame(fallback))
            except (OSError, ValueError):
                break
    registry.close()
    conn.close()


def _serve_worker_op(registry: SettingRegistry, op: str, payload: Any) -> Any:
    if op == "request":
        return registry.shard(payload.fingerprint).execute(payload)
    if op == "register":
        setting, prewarm = payload
        return registry.register(setting, prewarm=prewarm)
    if op == "prewarm":
        return registry.prewarm(payload)
    if op == "stats":
        return {"pid": os.getpid(), "registry": registry.stats(),
                "shards": registry.shard_stats()}
    if op == "ping":
        return True
    raise ValueError(f"unknown shard-host worker operation {op!r}")


# --------------------------------------------------------------------- #
# Supervisor-side plumbing
# --------------------------------------------------------------------- #

class _PendingCall:
    """One in-flight frame: what to resend on a crash, where to wait for
    the reply (:meth:`result`)."""

    __slots__ = ("op", "payload", "ctx", "event", "ok", "outcome", "retries")

    def __init__(self, op: str, payload: Any) -> None:
        self.op = op
        self.payload = payload
        #: Span context captured at submission time, shipped in the frame so
        #: worker spans parent under the supervisor's request span.  A retry
        #: after a crash reuses it — the retried work still belongs to the
        #: original request's trace.
        self.ctx = current_context()
        self.event = threading.Event()
        self.ok = False
        self.outcome: Any = None
        self.retries = 0

    def resolve(self, ok: bool, outcome: Any) -> None:
        self.ok = ok
        self.outcome = outcome
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.resolve(False, error)

    def result(self) -> Any:
        """Block for the reply; return it, or re-raise what the worker
        raised."""
        self.event.wait()
        if not self.ok:
            raise self.outcome
        return self.outcome


class _WorkerHandle:
    """One live worker process plus its pipe, pending map and reader."""

    def __init__(self, index: int, process, conn,
                 generation: int = 1) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: Monotonic per-slot spawn count: generation 1 is the original
        #: worker, each restart increments it.  Stats views are tagged with
        #: it so aggregation never mixes a dead worker's counters with its
        #: replacement's.
        self.generation = generation
        #: Guards ``pending``/``next_id``/``dead`` *and* serializes frame
        #: writes — concurrent senders must never interleave frame bytes.
        self.lock = threading.Lock()
        self.pending: Dict[int, _PendingCall] = {}
        self.next_id = 0
        self.dead = False
        self.reader: Optional[threading.Thread] = None
        self.in_flight = obs_metrics.gauge(f"host.worker{index}.in_flight")

    def submit(self, call: _PendingCall) -> bool:
        """Enqueue ``call`` on this worker; ``False`` if it is already dead
        (the caller re-routes to the replacement handle).

        The id is taken under the lock, but the frame is pickled once,
        outside it and *before* the pending map is touched: an unpicklable
        payload raises to the caller without leaking an entry (its id is
        simply never used).  A send that fails because the worker just
        died leaves the entry pending on purpose: the restart sweep
        resubmits it.
        """
        with self.lock:
            if self.dead:
                return False
            self.next_id += 1
            request_id = self.next_id
        frame = _encode_frame((request_id, call.op, call.payload, call.ctx))
        with self.lock:
            if self.dead:
                return False
            self.pending[request_id] = call
            self.in_flight.set(len(self.pending))
            try:
                self.conn.send_bytes(frame)
            except (OSError, ValueError):
                # Broken pipe: the reader thread is about to observe EOF
                # and restart this worker; the entry rides the resubmit.
                pass
        return True

    def send_raw(self, op: str, payload: Any = None) -> None:
        """Fire-and-forget control frame (``shutdown``/``crash``)."""
        with self.lock:
            self.dead = True
            try:
                self.conn.send_bytes(_encode_frame((0, op, payload, None)))
            except (OSError, ValueError):
                pass

    def take_pending(self) -> List[_PendingCall]:
        """Mark dead and drain the pending map (restart/close sweep)."""
        with self.lock:
            self.dead = True
            orphans = list(self.pending.values())
            self.pending.clear()
            self.in_flight.set(0)
        return orphans


class ShardHost:
    """Supervisor of one worker process per core (see module docs)."""

    def __init__(self, workers: Optional[int] = None,
                 max_compiled: Optional[int] = None,
                 result_cache: bool = True,
                 result_cache_maxsize: Optional[int] = None,
                 store: Optional[Union[CorpusStore, str,
                                       "os.PathLike"]] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        #: The corpus store, supervisor side.  The supervisor holds the
        #: *writable* handle (persist / ingest / crash-replay source);
        #: every worker opens the same directory read-only through its
        #: registry config, so fingerprint-addressed requests resolve
        #: in-worker and worker restarts come back warm from disk.  An
        #: in-memory store cannot cross the process boundary, hence the
        #: on-disk requirement.  A store opened here from a path is closed
        #: by :meth:`close`; a ``CorpusStore`` passed in stays the caller's.
        self._owns_store = store is not None and \
            not isinstance(store, CorpusStore)
        if self._owns_store:
            store = CorpusStore(store)
        if store is not None and store.path is None:
            raise ValueError(
                "a shard host needs an on-disk store (workers open it "
                "read-only in their own processes); an in-memory "
                "CorpusStore cannot be shared")
        self.store: Optional[CorpusStore] = store
        #: Every worker builds its registry slice from this exact config.
        self._registry_config: Dict[str, Any] = {
            "max_compiled": max_compiled,
            "result_cache": result_cache,
            "result_cache_maxsize": result_cache_maxsize,
        }
        if store is not None:
            self._registry_config["store"] = store.path
            self._registry_config["store_read_only"] = True
        #: Authoritative setting map: what `register` admitted (compiled
        #: settings kept compiled, so a restarted worker re-seeds
        #: plan-warm), replayed into a replacement worker on restart.
        self._settings: Dict[str, Union[DataExchangeSetting,
                                        CompiledSetting]] = {}
        self._prewarmed: set = set()
        self._stats = CacheStats()
        self._closing = False
        self._lock = threading.RLock()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None)
        #: Per-slot spawn counts; ``_spawn`` increments before starting the
        #: process, so the first worker in every slot is generation 1.
        self._generations: List[int] = [0] * workers
        self._handles: List[_WorkerHandle] = [
            self._spawn(index) for index in range(workers)]
        #: Closes the host at interpreter exit, before multiprocessing
        #: terminates daemonic children (finalizers of priority >= 0 run
        #: first); :meth:`close` cancels it.
        self._at_exit = multiprocessing.util.Finalize(None, self.close,
                                                      exitpriority=0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, index: int) -> _WorkerHandle:
        supervisor_end, worker_end = self._mp.Pipe(duplex=True)
        # Every child forked from now on (this worker included) closes its
        # copy of this end as it starts: while any copy stayed open, the
        # supervisor's death would not reach this worker as EOF.
        multiprocessing.util.register_after_fork(supervisor_end,
                                                 type(supervisor_end).close)
        process = self._mp.Process(
            target=_worker_main, args=(worker_end, self._registry_config),
            name=f"shard-host-worker-{index}", daemon=True)
        process.start()
        worker_end.close()  # the child's end lives in the child only
        self._generations[index] += 1
        handle = _WorkerHandle(index, process, supervisor_end,
                               generation=self._generations[index])
        handle.reader = threading.Thread(
            target=self._read_replies, args=(handle,),
            name=f"shard-host-reader-{index}", daemon=True)
        handle.reader.start()
        return handle

    def _read_replies(self, handle: _WorkerHandle) -> None:
        """Per-worker reader: demux replies by id; restart on pipe EOF."""
        while True:
            try:
                request_id, ok, outcome, spans = pickle.loads(
                    handle.conn.recv_bytes())
            except (EOFError, OSError, pickle.UnpicklingError, TypeError,
                    ValueError):
                break  # pipe closed or worker died mid-frame
            with handle.lock:
                call = handle.pending.pop(request_id, None)
                handle.in_flight.set(len(handle.pending))
            if call is not None:  # an unknown id is a stale duplicate: drop
                if spans:
                    ingest(spans)
                call.resolve(ok, outcome)
        if handle.dead or self._closing:
            return  # expected: shutdown or a restart already in progress
        self._restart(handle)

    def _restart(self, handle: _WorkerHandle) -> None:
        """Replace a crashed worker; re-register its slice; retry its
        in-flight requests once each."""
        with self._lock:
            orphans = handle.take_pending()
            if self._closing or self._handles[handle.index] is not handle:
                replacement = None  # closed, or another path restarted it
            else:
                handle.process.join(timeout=SHUTDOWN_TIMEOUT)
                self._stats.count("worker_restarts")
                replacement = self._spawn(handle.index)
                self._handles[handle.index] = replacement
                for fingerprint, setting in self._settings.items():
                    if self.worker_for(fingerprint) == handle.index:
                        replacement.submit(_PendingCall(
                            "register",
                            (setting, fingerprint in self._prewarmed)))
        for call in orphans:
            if replacement is None:
                call.fail(WorkerCrashError(
                    "shard-host worker died while the host was closing"))
            elif call.retries >= 1:
                call.fail(WorkerCrashError(
                    f"request {call.op!r} crashed shard-host worker "
                    f"{handle.index} twice (original + retry); not "
                    f"resubmitting a poison request"))
            else:
                call.retries += 1
                if not replacement.submit(call):
                    call.fail(WorkerCrashError(
                        f"shard-host worker {handle.index} died again "
                        f"before the retry could be submitted"))

    def close(self) -> None:
        """Shut every worker down (idempotent).  Workers get
        :data:`SHUTDOWN_TIMEOUT` seconds to finish their current request, then
        are terminated; still-pending calls fail with a closed-host error.
        A store the host opened from a path is closed too.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            handles = list(self._handles)
        self._at_exit.cancel()
        for handle in handles:
            handle.send_raw("shutdown")
        for handle in handles:
            handle.process.join(timeout=SHUTDOWN_TIMEOUT)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
                if handle.process.is_alive():  # pragma: no cover - stuck
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
            handle.conn.close()
            for call in handle.take_pending():
                call.fail(RuntimeError("shard host closed with the request "
                                       "still in flight"))
        for handle in handles:
            if handle.reader is not None:
                handle.reader.join(timeout=SHUTDOWN_TIMEOUT)
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "ShardHost":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def worker_for(self, fingerprint: str) -> int:
        """The worker index owning ``fingerprint``: a stable hash of the
        hex digest, identical across processes and ``PYTHONHASHSEED``\\ s."""
        return int(fingerprint[:16], 16) % self.workers

    def _submit(self, index: int, call: _PendingCall) -> None:
        """Enqueue ``call`` on worker ``index``.  A handle that died between
        routing and submission is re-read: the restart path has (or will
        have) swapped in a replacement — unless the host is closing, which
        raises instead of waiting for a replacement that never comes."""
        while True:
            with self._lock:
                if self._closing:
                    raise RuntimeError("shard host is closed")
                handle = self._handles[index]
            if handle.submit(call):
                return

    def _call(self, index: int, op: str, payload: Any = None) -> Any:
        """One frame to worker ``index``; blocks for (and returns) the
        reply, re-raising whatever the worker raised."""
        call = _PendingCall(op, payload)
        self._submit(index, call)
        return call.result()

    def _call_handle(self, handle: _WorkerHandle, op: str,
                     payload: Any = None) -> Any:
        """One frame to *this specific* handle — never its replacement.

        Used by :meth:`stats`, where answers must stay attributable to the
        exact process (pid, generation) they were snapshotted from; a dead
        handle raises :class:`WorkerCrashError` instead of silently asking
        whichever worker now occupies the slot.
        """
        call = _PendingCall(op, payload)
        if not handle.submit(call):
            raise WorkerCrashError(
                f"shard-host worker {handle.index} "
                f"(generation {handle.generation}) is dead")
        return call.result()

    # ------------------------------------------------------------------ #
    # Serving API (mirrors SettingRegistry / Router)
    # ------------------------------------------------------------------ #

    def register(self, setting: Union[DataExchangeSetting, CompiledSetting],
                 *, prewarm: bool = False, persist: bool = False) -> str:
        """Admit a setting on its owning worker; returns the fingerprint.

        Takes the consolidated keyword set shared with
        :meth:`SettingRegistry.register`.  The supervisor keeps the
        authoritative copy for crash recovery; a
        :class:`~repro.engine.compiled.CompiledSetting` is forwarded (and
        replayed on restart) compiled, so the worker arrives plan-warm.
        ``prewarm=True`` compiles in the worker before returning and is
        re-applied when a crashed worker is re-registered.
        ``persist=True`` compiles *in the supervisor* (workers never write
        the store), saves the pickle, and forwards the compiled setting —
        so the owning worker, every restart of it, and every future boot
        from this store all start plan-warm.
        """
        plain = setting.setting if isinstance(setting, CompiledSetting) \
            else setting
        if not isinstance(plain, DataExchangeSetting):
            raise TypeError(f"expected a DataExchangeSetting or "
                            f"CompiledSetting, got {type(setting).__name__}")
        if persist:
            if self.store is None:
                raise StoreError(
                    "register(persist=True) needs the shard host built "
                    "with an on-disk store (pass store=...)")
            if not isinstance(setting, CompiledSetting):
                setting = compile_setting(plain)
            self.store.put_setting(setting, prewarm=prewarm)
        fingerprint = plain.fingerprint()
        with self._lock:
            self._settings[fingerprint] = setting
            if prewarm or persist:
                self._prewarmed.add(fingerprint)
        return self._call(self.worker_for(fingerprint), "register",
                          (setting, prewarm or persist))

    def prewarm(self, fingerprint: str) -> bool:
        """Compile ``fingerprint`` in its owning worker ahead of traffic;
        restarts re-prewarm it.  ``True`` when this call did the compile."""
        with self._lock:
            if fingerprint not in self._settings:
                raise UnknownSettingError(fingerprint)
            self._prewarmed.add(fingerprint)
        return self._call(self.worker_for(fingerprint), "prewarm",
                          fingerprint)

    def submit(self, request: ExchangeRequest) -> _PendingCall:
        """Send one request to its owning worker without waiting for it.

        Returns the pending call; its ``result()`` blocks for the reply and
        re-raises what the worker raised.  An unknown fingerprint or a
        closed host raises here, before anything is sent.
        """
        with self._lock:
            if request.fingerprint not in self._settings:
                raise UnknownSettingError(request.fingerprint)
        call = _PendingCall("request", request)
        self._submit(self.worker_for(request.fingerprint), call)
        return call

    def execute(self, request: ExchangeRequest) -> EngineResult:
        """Serve one request on the owning worker; worker-side exceptions
        re-raise here unchanged (same contract as ``Router.execute``)."""
        # host.pipe is the supervisor's view of the round-trip; the gap
        # between it and the worker's host.worker span is pure transport
        # (pickling + pipe + the worker's queue).
        index = self.worker_for(request.fingerprint)
        with obs_span("host.pipe", worker=index):
            return self.submit(request).result()

    def ping(self) -> List[bool]:
        """Round-trip every worker's pipe (liveness probe)."""
        return [bool(self._call(index, "ping"))
                for index in range(self.workers)]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def fingerprints(self) -> List[str]:
        with self._lock:
            return list(self._settings)

    def worker_pids(self) -> List[Optional[int]]:
        """Current worker process ids (for lifecycle tests and ops)."""
        with self._lock:
            return [handle.process.pid for handle in self._handles]

    def inject_crash(self, index: int, exit_code: int = 2) -> None:
        """Fault injection: make worker ``index`` die mid-stream without
        replying, exactly as a segfault would.  The reader thread restarts
        it; use :meth:`stats`' ``worker_restarts`` to observe."""
        with self._lock:
            handle = self._handles[index]
        with handle.lock:
            try:
                handle.conn.send_bytes(_encode_frame((0, "crash",
                                                      exit_code, None)))
            except (OSError, ValueError):
                pass  # already dead — which is what was asked for

    def stats(self) -> Dict[str, Any]:
        """Supervisor counters plus every worker's registry aggregated.

        The handle list is snapshotted *once* under the supervisor's lock,
        and every per-worker view is tagged with the pid and generation of
        the exact handle it was fetched from.  A view is marked ``stale``
        — and excluded from the merged aggregates — when its worker died
        mid-snapshot, answered from a different pid (a replacement raced
        in), or was replaced in the handle table before the snapshot
        finished.  Aggregation therefore never mixes a dead worker's
        counters with its replacement's: restart-survivors show up in the
        *next* snapshot, attributed to their new generation.

        ``registry`` is :func:`~repro.engine.stats.merge_counts` over the
        fresh slices (so ``compiled_hits``/``plan_cache_*``/… read exactly
        like a single-process registry); ``shards`` merges the per-fingerprint
        shard views (disjoint by construction — each fingerprint lives on
        exactly one worker); ``per_worker`` keeps the unmerged, tagged
        slices, stale ones included.
        """
        with self._lock:
            handles = list(self._handles)
            restarts = self._stats.counts("worker_restarts")
            registered = len(self._settings)
        per_worker: List[Dict[str, Any]] = []
        for handle in handles:
            view: Dict[str, Any] = {"pid": handle.process.pid,
                                    "generation": handle.generation,
                                    "stale": False,
                                    "registry": {}, "shards": {}}
            try:
                reply = self._call_handle(handle, "stats")
            except (WorkerCrashError, RuntimeError):
                view["stale"] = True
            else:
                view["registry"] = reply.get("registry", {})
                view["shards"] = reply.get("shards", {})
                if reply.get("pid") != handle.process.pid:
                    # A replacement answered a resubmitted frame: counters
                    # belong to a different incarnation than the tag says.
                    view["stale"] = True
            with self._lock:
                if self._handles[handle.index] is not handle or handle.dead:
                    view["stale"] = True
            with handle.lock:
                view["in_flight"] = len(handle.pending)
            per_worker.append(view)
        fresh = [view for view in per_worker if not view["stale"]]
        merged = merge_counts(*(view["registry"] for view in fresh))
        merged["settings_registered"] = registered
        shards: Dict[str, Any] = {}
        for view in fresh:
            shards.update(view["shards"])
        return {"workers": self.workers,
                "worker_restarts": restarts,
                "registry": merged, "shards": shards,
                "per_worker": per_worker}

    def __repr__(self) -> str:
        return (f"<ShardHost workers={self.workers} "
                f"settings={len(self._settings)} "
                f"restarts={self._stats.counts('worker_restarts')}>")
