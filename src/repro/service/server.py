"""The always-on query daemon: sockets, batching, durability.

One :class:`Service` owns

* a :class:`~repro.service.workers.WorkerPool` of per-family shard
  worker processes, each holding that family's warm managers,
* an :class:`~repro.service.admission.Admission` queue (shortest-job
  first per family over the EWMA cost model, per-tenant step ledger),
* a request **batcher**: concurrent requests with the same
  content-addressed query key coalesce onto one computation — every
  waiter gets its own response, the engine runs once,
* an optional write-ahead :class:`~repro.parallel.journal.Journal`:
  each admitted query is journaled (attempt record embedding the
  request document) before it runs and journaled again (result record)
  when it finishes, so a SIGKILL'd daemon restarted with ``resume=True``
  re-executes exactly the in-flight work and serves identical results,
* an asyncio front door: a unix-domain socket speaking the
  newline-delimited JSON protocol of :mod:`repro.service.protocol`,
  plus an optional minimal local-HTTP listener (``POST /query`` with an
  NDJSON body, ``GET /stats``, ``GET /healthz``).

Concurrency model: the event loop does parsing, admission, batching,
caching, and journaling; every query runs on its family's worker
*process* (:mod:`repro.service.workers`), each owning a private
:class:`~repro.service.shards.ShardPool`.  Families execute
concurrently — a slow cascade build cannot head-of-line-block an RNS
lookup — and each worker serves one query at a time, because the
governor's budget stack and the stats registry are process-global.
``workers`` caps the live processes (``None``: one per shard family).
Worker death is a recoverable fault: the process is rebuilt and the
in-flight query re-journaled and re-executed (PR 4 pool-rebuild
semantics).  A ``drain`` runs through the same workers.

A **cross-request result cache** sits in front of the queue: repeated
identical queries (same content-addressed key) are answered from the
cache with zero engine passes.  Epoch-based
invalidation keeps it honest — a worker restart or an explicit
``invalidate`` op bumps the epoch, which orphans every older entry at
once.

PR 9 wraps the daemon in a **resilience layer**: bounded admission with
load shedding (``overloaded`` + retry-after, never an unbounded
queue), per-query ``deadline_ms`` deadlines enforced cooperatively via
governor budgets (``deadline_exceeded``, worker left reusable),
per-family circuit breakers that fail crash-looping families fast
(``circuit_open``), and a memory watchdog whose staged degradation —
housekeep, evict, shed — replaces the single fixed node ceiling.  The
chaos hooks of :mod:`repro._faults` are armed at the worker site
(``service:<family>``) and the front door (``frontend:<op>``), so every
recovery path here is exercised deterministically in CI.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import time
from collections import OrderedDict
from pathlib import Path

from repro import _faults
from repro.bdd import stats
from repro.errors import (
    CircuitOpenError,
    DeadlineError,
    FaultInjected,
    ProtocolError,
    ServiceError,
    WorkerDied,
)
from repro.parallel.costs import CostModel
from repro.parallel.journal import Journal
from repro.parallel.tasks import RowTask, TaskResult
from repro.service.admission import Admission, QueuedQuery
from repro.service.protocol import (
    PROTOCOL,
    PROTOCOL_VERSION,
    Request,
    encode,
    error_code,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.shards import FAMILIES
from repro.service.watchdog import MemoryWatchdog
from repro.service.workers import WorkerPool

__all__ = ["ResultCache", "Service"]

#: Attempts per query across worker deaths before the error surfaces.
MAX_WORKER_ATTEMPTS = 3

#: Default cross-request result-cache capacity (entries).
DEFAULT_RESULT_CACHE = 256


class ResultCache:
    """Cross-request result cache with epoch-based invalidation.

    Entries are keyed by the content-addressed ``query:<op>/<digest>``
    key, so a hit is *definitionally* the same computation.  What a
    key cannot capture is service-side state that changes answers or
    their warmth guarantees out from under it — a rebuilt (cold)
    worker, an operator who knows better.  Those bump :attr:`epoch`; entries
    remember the epoch they were stored under and a stale epoch is a
    miss, which retires the whole cache in O(1) without walking it.
    """

    def __init__(self, size: int = DEFAULT_RESULT_CACHE) -> None:
        self.size = int(size)
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: key -> (epoch, family, result); insertion order is LRU.
        self._entries: OrderedDict[str, tuple[int, str, dict]] = OrderedDict()

    def get(self, key: str) -> tuple[str, dict] | None:
        """A cached ``(family, result)`` or None; counts hit/miss."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != self.epoch:
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[1], entry[2]

    def put(self, key: str, family: str, result: dict) -> None:
        if self.size <= 0:
            return
        self._entries[key] = (self.epoch, family, result)
        self._entries.move_to_end(key)
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)

    def invalidate(self) -> int:
        """Bump the epoch; every cached entry becomes stale at once."""
        self.epoch += 1
        self.invalidations += 1
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def stats(self) -> dict:
        """The schema-v8 ``result_cache`` block."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "epoch": self.epoch,
            "entries": len(self._entries),
            "size_limit": self.size,
        }


def _row_task(req: Request) -> RowTask:
    """The journal's task identity for a query.

    ``RowTask("query", "<op>/<digest>").key`` equals the protocol's
    ``query:<op>/<digest>`` key, so journal records and cost-model
    entries share one namespace.  The full request document rides in
    ``options`` so ``config_hash`` pins the journaled computation to
    its exact parameters (same guarantee sweeps get from kind/name/
    options).
    """
    doc = json.dumps(req.doc(), sort_keys=True, separators=(",", ":"))
    return RowTask("query", req.key().split(":", 1)[1], (("doc", doc),))


class Service:
    """One daemon instance (create, then ``await serve()`` or ``drain()``)."""

    def __init__(
        self,
        *,
        socket_path: str | Path | None = None,
        http_host: str | None = None,
        http_port: int = 0,
        journal_path: str | Path | None = None,
        resume: bool = False,
        cost_path: str | Path | None = None,
        tenant_max_steps: int | None = None,
        max_alive: int | None = None,
        request_timeout: float | None = None,
        workers: int | None = None,
        snapshot_dir: str | Path | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
        max_queue_depth: int | None = None,
        tenant_max_inflight: int | None = None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        rss_limit_bytes: int | None = None,
        alive_limit: int | None = None,
        watchdog_interval_s: float = 5.0,
    ) -> None:
        self.socket_path = Path(socket_path) if socket_path else None
        self.http_host = http_host
        self.http_port = http_port
        self.request_timeout = request_timeout
        self.worker_pool = WorkerPool(
            len(FAMILIES) if workers is None else workers,
            max_alive=max_alive,
            snapshot_dir=snapshot_dir,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
        )
        self.result_cache = ResultCache(result_cache_size)
        costs = CostModel.load(cost_path) if cost_path else CostModel()
        self.admission = Admission(
            costs,
            tenant_max_steps=tenant_max_steps,
            max_queue_depth=max_queue_depth,
            tenant_max_inflight=tenant_max_inflight,
        )
        #: Always constructed — with no limits it is a pure sampler, so
        #: the v8 ``watchdog`` stats block is always present.
        self.watchdog = MemoryWatchdog(
            self,
            rss_limit_bytes=rss_limit_bytes,
            alive_limit=alive_limit,
            interval_s=watchdog_interval_s,
        )
        self.journal = (
            Journal(journal_path, resume=resume) if journal_path else None
        )
        #: query key -> list of ``(request id, future)`` waiters.  A key
        #: present here is queued or running; a matching arrival joins
        #: the list instead of re-queueing — that is the batcher.
        self._waiters: dict[str, list[tuple[str, asyncio.Future]]] = {}
        self._attempts: dict[str, int] = {}
        #: Families with a query currently running on their worker
        #: process (one query per worker).
        self._inflight: set[str] = set()
        self._work = asyncio.Event()
        self._stopping = False
        self._stopped = asyncio.Event()
        self.started_at = time.time()
        self.queries_total = 0
        self.batched_total = 0
        self.executed = 0
        self.replayed = 0
        self.deadline_exceeded_total = 0
        if self.journal is not None and resume:
            self._replay_pending()

    # -- durability ---------------------------------------------------

    def _replay_pending(self) -> None:
        """Re-queue journaled in-flight work (daemon was killed mid-run).

        Replayed queries have no connection waiting for them — their
        results go to the journal, where the original requester's retry
        (or the drain tooling) finds them.  No futures are created, so
        replay is safe to run before any event loop exists.
        """
        for record in self.journal.pending():
            doc = record.get("doc")
            if not doc:
                continue
            try:
                req = Request.from_doc(doc)
            except (KeyError, TypeError):
                continue
            key = req.key()
            try:
                # replay=True: a journaled request predates this boot's
                # overload limits and must never be shed by them.
                self.admission.submit(req, replay=True)
            except ServiceError:
                continue
            self._waiters.setdefault(key, [])
            self._attempts[key] = record.get("attempt", 1) + 1
            self.replayed += 1

    # -- admission + batching -----------------------------------------

    def _enqueue(self, req: Request) -> asyncio.Future:
        """Admit (or coalesce) one compute request; returns its future.

        Raises :class:`ServiceError` on refusal (exhausted tenant,
        overload shedding).  The attempt record is journaled *before*
        the queue learns about the query — write-ahead, so a kill
        between admission and execution loses nothing.
        """
        # Chaos hook for the asyncio front door itself.  ``parent`` is
        # this process, so ``crash`` degrades to a raise (answered as a
        # structured error) while ``abort`` still kills the daemon —
        # exactly what the SIGKILL-equivalence tests need.
        _faults.fire(f"frontend:{req.op}", parent=os.getpid())
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        key = req.key()
        self.queries_total += 1
        cached = self.result_cache.get(key)
        if cached is not None:
            # Cross-request cache hit: zero engine passes, no journal
            # write (nothing will run, so there is nothing to make
            # durable), answered before admission ever sees it.
            family, result = cached
            fut.set_result(
                ok_response(
                    req.id,
                    result,
                    key=key,
                    shard=family,
                    batched=False,
                    cached=True,
                    wall_s=0.0,
                )
            )
            return fut
        waiters = self._waiters.get(key)
        if waiters is not None:
            # The batcher: an identical queued/running query answers
            # this request too — one engine pass, many responses.
            waiters.append((req.id, fut))
            self.batched_total += 1
            return fut
        self.admission.submit(req)
        self._waiters[key] = [(req.id, fut)]
        self._attempts[key] = 1
        if self.journal is not None:
            self.journal.record_attempt(_row_task(req), 1, doc=req.doc())
        self._work.set()
        return fut

    # -- execution (worker processes) ---------------------------------

    def _effective_budget(
        self, budget: dict | None, remaining_s: float | None
    ) -> dict | None:
        """Fold the service timeout and the query deadline into a budget.

        The tightest of the request's own ``deadline_s``, the daemon's
        ``request_timeout``, and the ``deadline_ms`` remainder wins.
        ``remaining_s`` is what is left of the request's ``deadline_ms``
        after queueing: as a ``deadline_s`` extent the kernel's
        checkpoints abort the build cooperatively (manager stays
        usable) instead of wedging the worker.
        """
        out = dict(budget or {})
        deadlines = [
            d
            for d in (out.get("deadline_s"), self.request_timeout, remaining_s)
            if d is not None
        ]
        if deadlines:
            out["deadline_s"] = min(deadlines)
        return out or None

    def _expire(self, item: QueuedQuery) -> None:
        """Fail a queued query whose end-to-end deadline already passed.

        The engine never runs; the waiters get ``deadline_exceeded``
        immediately.  A journaled attempt without a result record stays
        *pending*, so a later ``--resume --drain-exit`` still computes
        it — deadlines bound the synchronous answer, not durability.
        """
        self._resolve(
            item.key,
            error=DeadlineError(
                f"query {item.key} spent its {item.request.deadline_ms} ms "
                "deadline queued; execution skipped"
            ),
        )

    async def _pump(self) -> None:
        """The dispatcher: drain the admission queue, cheapest first.

        Dispatches to one worker per family concurrently —
        shortest-job-first *within* each family, with at most one query
        in flight per worker.
        """
        pending: set[asyncio.Task] = set()
        while True:
            dispatched = False
            for family in self.admission.families():
                if family in self._inflight:
                    continue
                item = self.admission.pop(family)
                if item is None:
                    continue
                self._inflight.add(family)
                task = asyncio.ensure_future(self._dispatch(item))
                pending.add(task)
                task.add_done_callback(pending.discard)
                dispatched = True
            if dispatched:
                continue
            if self._stopping and not self._inflight and not len(self.admission):
                break
            self._work.clear()
            await self._work.wait()
        for task in list(pending):
            if not task.done():
                await task
        self._stopped.set()

    async def _dispatch(self, item: QueuedQuery) -> None:
        """Run one query on its family's worker process.

        A dead worker (crash, SIGKILL, wedge) is rebuilt and the query
        re-queued as a new journaled attempt, up to
        :data:`MAX_WORKER_ATTEMPTS`; engine errors inside a healthy
        worker are final answers.  Every reply from a live worker, ok
        or error, charges its steps to the tenant and its counters to
        the daemon totals; a dead worker's attempt charges nothing.
        """
        loop = asyncio.get_running_loop()
        req: Request = item.request
        key, family = item.key, item.family
        if item.expired():
            self._inflight.discard(family)
            self._expire(item)
            self._work.set()
            return
        breaker = self.worker_pool.breaker(family)
        if not breaker.allow():
            # Fail fast: the family is crash-looping and its breaker is
            # open — do not spend a process spawn on a doomed attempt.
            self._inflight.discard(family)
            self._resolve(
                key,
                error=CircuitOpenError(
                    f"family {family!r} circuit breaker is open after "
                    f"{breaker.failures} consecutive worker failures",
                    retry_after=breaker.retry_after(),
                ),
            )
            self._work.set()
            return
        worker = self.worker_pool.get(
            family, busy=frozenset(self._inflight - {family})
        )
        remaining = item.remaining_s()
        doc = {
            "op": req.op,
            "params": req.params,
            "budget": self._effective_budget(req.budget, remaining),
            "tenant_remaining": self.admission.tenant_remaining(req.tenant),
        }
        # The pipe timeout backstops the cooperative deadline: the
        # governor should abort the build first; the grace margin only
        # fires when the worker is truly wedged (a hang, not a build).
        timeouts = [
            t + 5.0
            for t in (self.request_timeout, remaining)
            if t is not None
        ]
        timeout = min(timeouts) if timeouts else None
        try:
            reply = await loop.run_in_executor(
                worker.executor,
                functools.partial(worker.call, doc, timeout=timeout),
            )
        except WorkerDied:
            breaker.record_failure()
            self._worker_died(item)
            return
        except Exception as exc:
            # A live worker answered with an engine error: that is an
            # *answer*, not infrastructure failure — the breaker resets
            # and the work it did is charged like any answer's.
            breaker.record_success()
            self._charge(req.tenant, getattr(exc, "stats_delta", {}))
            self.executed += 1
            self._resolve(key, error=exc)
            return
        finally:
            self._inflight.discard(family)
            self._work.set()
        breaker.record_success()
        self._charge(req.tenant, reply.get("stats_delta", {}))
        family = reply.get("family", family)
        result = reply.get("result", {})
        wall = float(reply.get("wall_s", 0.0))
        self.executed += 1
        self.admission.observe(key, wall)
        if self.journal is not None:
            self.journal.record_result(
                _row_task(req),
                TaskResult(
                    key=key, result=result, wall_s=wall, pid=os.getpid()
                ),
            )
        self.result_cache.put(key, family, result)
        self._resolve(key, result=result, family=family, wall=wall)

    def _charge(self, tenant: str, delta: dict) -> None:
        """Fold one worker reply's counter delta into the daemon's books."""
        stats.merge_worker_totals(delta)
        self.admission.charge(tenant, int(delta.get("kernel_steps", 0)))

    def _worker_died(self, item: QueuedQuery) -> None:
        """PR 4 pool-rebuild semantics for a dead worker process."""
        key = item.key
        self.result_cache.invalidate()  # its warm state is gone
        self.worker_pool.restart(item.family)
        attempt = self._attempts.get(key, 1)
        if attempt < MAX_WORKER_ATTEMPTS:
            self._attempts[key] = attempt + 1
            if self.journal is not None:
                self.journal.record_attempt(
                    _row_task(item.request), attempt + 1, doc=item.request.doc()
                )
            self.admission.requeue(item)
        else:
            self.executed += 1
            self._resolve(
                key,
                error=ServiceError(
                    f"query {key} failed {attempt} times across worker "
                    "restarts; giving up"
                ),
            )

    def _resolve(
        self,
        key: str,
        *,
        result: dict | None = None,
        family: str | None = None,
        wall: float = 0.0,
        error: Exception | None = None,
    ) -> None:
        """Answer every waiter batched onto ``key``."""
        waiters = self._waiters.pop(key, [])
        self._attempts.pop(key, None)
        self.admission.release(key)
        if error is not None and error_code(error) == "deadline_exceeded":
            self.deadline_exceeded_total += 1
        batched = len(waiters) > 1
        for rid, fut in waiters:
            if fut.cancelled():
                continue
            if error is not None:
                fut.set_result(
                    error_response(
                        rid, error, type_=getattr(error, "type_name", None)
                    )
                )
            else:
                fut.set_result(
                    ok_response(
                        rid,
                        result,
                        key=key,
                        shard=family,
                        batched=batched,
                        wall_s=round(wall, 6),
                    )
                )

    # -- request dispatch (event loop) --------------------------------

    def _control(self, req: Request) -> dict:
        if req.op == "ping":
            return ok_response(
                req.id,
                {
                    "protocol": PROTOCOL,
                    "version": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                },
            )
        if req.op == "stats":
            return ok_response(req.id, self.stats())
        if req.op == "invalidate":
            dropped = self.result_cache.invalidate()
            return ok_response(
                req.id,
                {"invalidated": dropped, "epoch": self.result_cache.epoch},
            )
        # shutdown: acknowledge, then stop once the queue drains.
        self._stopping = True
        self._work.set()
        return ok_response(req.id, {"stopping": True})

    async def handle_request(self, req: Request) -> dict:
        """One request -> one response document (any transport)."""
        if req.is_control:
            return self._control(req)
        if self._stopping:
            return error_response(
                req.id, ServiceError("service is shutting down")
            )
        try:
            fut = self._enqueue(req)
        except (ServiceError, FaultInjected, MemoryError) as exc:
            # ServiceError covers refusals (tenant budget, overload,
            # shutdown); FaultInjected/MemoryError come from the
            # front-end chaos site and must answer, not kill the loop.
            return error_response(req.id, exc)
        return await fut

    # -- unix-socket transport ----------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def respond(req: Request) -> None:
            doc = await self.handle_request(req)
            async with lock:
                writer.write(encode(doc))
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    req = parse_request(line)
                except ProtocolError as exc:
                    async with lock:
                        writer.write(encode(error_response(None, exc)))
                        await writer.drain()
                    continue
                # Per-request task: responses go out as they finish, so
                # one connection pipelining many queries still benefits
                # from shortest-job-first ordering (ids disambiguate).
                task = asyncio.ensure_future(respond(req))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown after shutdown cancels handlers parked in
            # readline(); close the connection quietly instead of
            # letting the stream protocol log the cancellation.
            pass
        finally:
            for task in pending:
                if not task.done():
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            writer.close()

    # -- minimal local HTTP transport ---------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        def http(status: str, body: bytes, ctype: str) -> bytes:
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            return head.encode("ascii") + body

        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                writer.close()
                return
            method, path = parts[0], parts[1]
            length: int | None = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    # HTTP allows only ASCII digits here; int() would
                    # also take signs, spaces and underscores.
                    length = (
                        int(value) if value.isascii() and value.isdigit() else None
                    )
            if length is None:
                body = encode(
                    error_response(
                        None, "Content-Length must be a non-negative integer"
                    )
                )
                writer.write(http("400 Bad Request", body, "application/json"))
            elif method == "GET" and path == "/healthz":
                body = encode({"ok": True, "protocol": PROTOCOL})
                writer.write(http("200 OK", body, "application/json"))
            elif method == "GET" and path == "/stats":
                body = encode(ok_response("stats", self.stats()))
                writer.write(http("200 OK", body, "application/json"))
            elif method == "POST" and path == "/invalidate":
                dropped = self.result_cache.invalidate()
                body = encode(
                    ok_response(
                        "invalidate",
                        {
                            "invalidated": dropped,
                            "epoch": self.result_cache.epoch,
                        },
                    )
                )
                writer.write(http("200 OK", body, "application/json"))
            elif method == "POST" and path == "/query":
                raw = await reader.readexactly(length) if length else b""
                docs = []
                for line in raw.splitlines():
                    if not line.strip():
                        continue
                    try:
                        req = parse_request(line)
                    except ProtocolError as exc:
                        docs.append(error_response(None, exc))
                        continue
                    docs.append(await self.handle_request(req))
                body = b"".join(encode(doc) for doc in docs)
                writer.write(http("200 OK", body, "application/x-ndjson"))
            else:
                body = encode(
                    error_response(None, f"no such endpoint: {method} {path}")
                )
                writer.write(http("404 Not Found", body, "application/json"))
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            writer.close()

    # -- lifecycle ----------------------------------------------------

    async def serve(self, *, ready=None) -> None:
        """Listen and serve until a ``shutdown`` op drains the queue.

        ``ready`` (a zero-argument callable) is invoked once every
        listener is bound — by then an ephemeral ``http_port=0`` has
        been replaced with the assigned port.
        """
        servers = []
        if self.socket_path is not None:
            # A stale socket file from a SIGKILL'd predecessor would
            # make bind() fail; the journal, not the socket, is the
            # durable state.
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            servers.append(
                await asyncio.start_unix_server(
                    self._handle_conn, path=str(self.socket_path)
                )
            )
        if self.http_host is not None:
            server = await asyncio.start_server(
                self._handle_http, host=self.http_host, port=self.http_port
            )
            self.http_port = server.sockets[0].getsockname()[1]
            servers.append(server)
        if not servers:
            raise ServiceError("service has neither a socket path nor an HTTP address")
        if ready is not None:
            ready()
        pump = asyncio.ensure_future(self._pump())
        sampler = asyncio.ensure_future(self.watchdog.run())
        try:
            await self._stopped.wait()
        finally:
            self._stopping = True
            self._work.set()
            sampler.cancel()
            await pump
            for server in servers:
                server.close()
                await server.wait_closed()
            self.close()

    async def drain(self) -> int:
        """Execute everything queued (e.g. journal-replayed), then stop.

        Returns the number of queries executed.  Used by
        ``repro serve --drain-exit`` to finish a killed daemon's
        in-flight work without opening any listener; the queries run on
        shard workers exactly as served ones do.
        """
        before = self.executed
        self._stopping = True
        self._work.set()
        await self._pump()
        self.close()
        return self.executed - before

    def close(self) -> None:
        self.worker_pool.stop_all()
        if self.journal is not None:
            self.journal.close()
        if self.admission.costs.path is not None:
            self.admission.costs.save()
        if self.socket_path is not None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    # -- stats --------------------------------------------------------

    def stats(self) -> dict:
        """The daemon's stats document (schema ``stats.SCHEMA``).

        The ``shards`` map is assembled from each worker's most recent
        reply (warm state lives in the workers); the ``workers`` block
        carries per-process pids, query counts, restart counts, and
        circuit-breaker states.  v8 added the resilience counters:
        ``shed_total``, ``deadline_exceeded_total`` and the ``watchdog``
        sampling block.
        """
        shards: dict = {}
        for worker in self.worker_pool.workers.values():
            shards.update(worker.last_shards)
        return {
            "schema": stats.SCHEMA,
            "schema_version": stats.SCHEMA_VERSION,
            "protocol": PROTOCOL,
            "uptime_s": round(time.time() - self.started_at, 3),
            "pid": os.getpid(),
            "queries_total": self.queries_total,
            "batched_total": self.batched_total,
            "executed": self.executed,
            "replayed": self.replayed,
            "queued": len(self.admission),
            "shed_total": self.admission.shed_total,
            "deadline_exceeded_total": self.deadline_exceeded_total,
            "watchdog": self.watchdog.stats(),
            "result_cache": self.result_cache.stats(),
            "shards": shards,
            "admission": self.admission.stats(),
            "workers": self.worker_pool.stats(),
        }
