"""The serving layer: async, multi-setting exchange over sharded engines.

Where :mod:`repro.engine` serves one compiled setting for a batch-job
lifetime, this package serves **many settings at once** for a server
lifetime:

* :class:`SettingRegistry` — admits settings keyed by
  ``DataExchangeSetting.fingerprint()``, compiles them lazily and keeps at
  most ``max_compiled`` compiled (LRU), with per-setting bounded result
  caches so tenants cannot evict each other's entries;
* :class:`Router` — serves a request on the shard owning its fingerprint,
  with the shard host's call shape (``execute``, and ``submit`` returning
  a settled future);
* :class:`AsyncExchangeService` — the awaitable facade
  (``await consistency/solve/certain_answers/batch``) running work on a
  configurable serial/thread/host executor without blocking the event
  loop (serial excepted: it runs inline); a batch is grouped by
  fingerprint and each group runs through one runner that submits it to
  the router or the host and settles the handles in order;
* :class:`ShardHost` — the one multi-process shape, behind
  ``executor="host"``:
  one long-lived worker process per core, each owning a full registry
  slice (compiled settings, plan caches, result caches stay warm across
  requests), routed by fingerprint over pickle frames on one pipe each,
  with crashed workers restarted and re-registered transparently, and
  every worker ending with its supervisor;
* :class:`QuotaPolicy` — admission control: per-setting ``max_in_flight``
  and registry-wide ``max_registered`` ceilings; over-quota work is
  rejected immediately with a typed :class:`QuotaExceededError` (await-side
  and over the wire) instead of queueing without bound;
* prewarming — ``register(setting, prewarm=True)`` /
  ``await service.prewarm(fp)`` compile ahead of the first request
  (``prewarm_*`` counters in registry stats), so hot settings never pay
  first-request compile latency;
* persistence — with a :class:`~repro.storage.CorpusStore` attached
  (``store=`` on the registry/service/host, ``--store`` on the server),
  ``await service.put_tree(tree)`` stores documents addressable by
  fingerprint on every per-tree call (``tree_fp`` on the wire),
  ``register(setting, persist=True)`` pickles the *compiled* setting, and
  ``restore_settings()`` re-admits everything plan-warm after a restart —
  the first request of the new process is a ``compiled_hit``;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a stdlib-only
  JSON-lines TCP server (``python -m repro.service.server``) with
  **per-connection request pipelining** (replies in completion order,
  matched by id) and its client helper (lock-step ``request`` or pipelined
  ``submit``/``collect``/``pipeline``), the demonstration workload of the
  layer.

Quickstart::

    from repro.service import AsyncExchangeService, certain_answers_request

    async with AsyncExchangeService(max_compiled=64,
                                    result_cache_maxsize=1024) as service:
        fp = service.register(setting)              # routing key
        ok = (await service.check_consistency(fp)).payload
        answers = (await service.certain_answers(fp, tree, query)).payload
        slots = await service.batch([certain_answers_request(fp, t, query)
                                     for t in trees])
"""

from .host import ShardHost, WorkerCrashError
from .quota import QuotaExceededError, QuotaPolicy
from .registry import SettingRegistry, UnknownSettingError
from .requests import (OPERATIONS, ExchangeRequest, ServiceResult,
                       certain_answers_request, classify_request,
                       consistency_request, solve_request)
from .router import Router
from .service import SERVICE_EXECUTORS, AsyncExchangeService
from .shard import Shard

__all__ = [
    "AsyncExchangeService", "SERVICE_EXECUTORS",
    "SettingRegistry", "UnknownSettingError", "Router", "Shard",
    "ShardHost", "WorkerCrashError",
    "QuotaPolicy", "QuotaExceededError",
    "ExchangeRequest", "ServiceResult", "OPERATIONS",
    "consistency_request", "classify_request", "solve_request",
    "certain_answers_request",
]
