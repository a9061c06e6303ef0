"""Always-on BDD query service (daemon, protocol, client).

The batch experiment runner cold-starts a manager per invocation and
throws every computed-table entry away at exit.  This package is the
serving half of the ROADMAP north star: a long-lived daemon whose
per-family worker processes hold warm :class:`~repro.bdd.manager.BDD`
managers sharded by benchmark family, answering width-reduction /
decomposition / cascade-synthesis / PLA-reduce queries over a
newline-delimited JSON protocol (unix socket, optional local HTTP)
without rebuilding state per request.  Every query runs on its
family's worker process; the daemon itself runs no engine work.

Modules:

* :mod:`repro.service.protocol` — request/response schema, parsing,
  content-addressed query keys.
* :mod:`repro.service.shards` — the warm shard pool a worker process
  owns: per-family base-CF caches (LRU + snapshot-backed), per-shard
  counters (stats schema v8), query execution.
* :mod:`repro.service.admission` — cost-model-ordered admission queues
  (shortest-job-first, per family) and the per-tenant step ledger.
* :mod:`repro.service.workers` — per-family shard worker processes and
  the pipe RPC the daemon dispatches every query over.
* :mod:`repro.service.server` — the asyncio daemon: batching, the
  cross-request result cache, journal-backed durability, drain/resume.
* :mod:`repro.service.watchdog` — the memory watchdog's staged
  degradation ladder (housekeep, evict, shed).
* :mod:`repro.service.client` — small blocking client used by
  ``repro query`` and the tests.

The PR 9 resilience layer threads through all of them: bounded
admission with load shedding (``overloaded``), per-query
``deadline_ms`` deadlines (``deadline_exceeded``), per-family circuit
breakers (``circuit_open``), and the chaos hooks of
:mod:`repro._faults` armed at the worker and front-door sites.
"""

from repro.service.admission import Admission, QueuedQuery
from repro.service.client import SocketClient, http_query, raise_for_code
from repro.service.protocol import (
    PROTOCOL,
    PROTOCOL_VERSION,
    Request,
    encode,
    error_code,
    error_response,
    ok_response,
    parse_request,
    query_key,
)
from repro.service.server import ResultCache, Service
from repro.service.shards import Shard, ShardPool, default_max_alive, family_of
from repro.service.watchdog import MemoryWatchdog
from repro.service.workers import CircuitBreaker, ShardWorker, WorkerPool

__all__ = [
    "Admission",
    "CircuitBreaker",
    "MemoryWatchdog",
    "PROTOCOL",
    "PROTOCOL_VERSION",
    "QueuedQuery",
    "Request",
    "ResultCache",
    "Service",
    "Shard",
    "ShardPool",
    "ShardWorker",
    "SocketClient",
    "WorkerPool",
    "default_max_alive",
    "encode",
    "error_code",
    "error_response",
    "family_of",
    "http_query",
    "ok_response",
    "parse_request",
    "query_key",
    "raise_for_code",
]
