"""Per-family shard worker processes: the service's scale-out layer.

The PR 7 daemon ran every query on one worker *thread*, so a slow
cascade build head-of-line-blocked a millisecond RNS lookup.  Here each
benchmark family gets its own worker **process** owning a private
:class:`~repro.service.shards.ShardPool`: the asyncio front-end keeps
the socket/HTTP/admission/journal roles and dispatches queries over a
pipe-based RPC, so families execute concurrently and a wedged or killed
worker takes down only its own family's warm state.

Wire format (multiprocessing :class:`~multiprocessing.connection.Pipe`,
pickled dicts — the same "picklable description" discipline as
:mod:`repro.parallel.tasks` row tasks):

request::

    {"op": ..., "params": {...}, "budget": ... | None,
     "tenant_remaining": int | None}

reply::

    {"ok": true, "family": ..., "result": {...}, "wall_s": ...,
     "stats_delta": {...}, "shards": {...}}
    {"ok": false, "error": {"type": ..., "message": ...},
     "wall_s": ..., "stats_delta": {...}, "shards": {...}}

``stats_delta`` is the worker-side :func:`repro.bdd.stats.counter_delta`
of the query; the parent folds it into its own process totals with
:func:`repro.bdd.stats.merge_worker_totals` (exactly the parallel
executor's cross-process aggregation) and charges the delta's
``kernel_steps`` to the tenant's cumulative ledger, which stays
parent-side.  ``tenant_remaining`` carries the tenant's remaining step
allowance *into* the worker as a plain per-query budget.

Failure model mirrors the PR 4 executor's pool rebuild: a dead or
wedged worker raises :class:`~repro.errors.WorkerDied`; the dispatcher
rebuilds the worker (fresh process, cold shards) and re-executes the
in-flight query as a new journaled attempt.  Engine errors inside a
worker are *answers*, not faults — they come back serialized and
re-raise in the parent as :class:`~repro.errors.RemoteQueryError` with
the original type name preserved for the client.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import _faults
from repro.errors import RemoteQueryError, WorkerDied

__all__ = ["CircuitBreaker", "ShardWorker", "WorkerPool"]

#: Sentinel asking a worker's loop to exit cleanly.
_STOP = "__stop__"

#: Seconds between liveness probes while waiting on a worker reply.
_POLL_S = 0.1


def _worker_main(
    family: str,
    conn,
    daemon_conn,
    max_alive: int | None,
    snapshot_dir: str | None,
    fault_parent: int | None = None,
) -> None:
    """The worker process body: serve queries for one family, forever.

    Runs a private :class:`ShardPool` (warm managers live here, not in
    the daemon) and answers one request at a time.  Every reply carries
    the query's engine-counter delta and the pool's shard stats so the
    parent can keep schema-v8 accounting without sharing memory.

    The chaos hook :func:`repro._faults.fire` runs once per request at
    the ``service:<family>`` site; ``fault_parent`` is the daemon's pid
    so the same spec drives both worker-process kills and in-process
    degradations, exactly like row tasks' ``fault_parent``.

    ``daemon_conn`` is the daemon's end of this worker's pipe, which
    the fork copied in.  It is closed first: while the worker holds it,
    ``conn.recv()`` never sees EOF, and a SIGKILLed daemon would leave
    the worker running forever.  A worker forked later also holds the
    daemon ends of its older siblings; it exits on EOF too, which
    releases them in turn.
    """
    daemon_conn.close()
    # Imports happen here (not module top) so a fork()ed child touches
    # the engine modules only after it owns them.
    from repro.bdd import stats
    from repro.bdd.governor import Budget
    from repro.service.shards import ShardPool

    pool = ShardPool(max_alive=max_alive, snapshot_dir=snapshot_dir)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg == _STOP:
            break
        before = stats.snapshot()
        t0 = time.perf_counter()
        reply: dict
        poison = None
        try:
            poison = _faults.fire(f"service:{family}", parent=fault_parent)
            budget = dict(msg.get("budget") or {})
            tenant_remaining = msg.get("tenant_remaining")
            tenant_budget = (
                Budget(max_steps=tenant_remaining)
                if tenant_remaining is not None
                else None
            )
            served_family, result = pool.execute(
                msg["op"],
                msg.get("params") or {},
                budget=budget or None,
                tenant_budget=tenant_budget,
            )
            reply = {"ok": True, "family": served_family, "result": result}
        except Exception as exc:  # noqa: BLE001 - serialized, not dropped
            reply = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        reply["wall_s"] = time.perf_counter() - t0
        reply["stats_delta"] = stats.counter_delta(before, stats.snapshot())
        reply["shards"] = pool.stats()
        if poison is not None:
            # ``pickle`` fault: shipping the reply must fail, like a row
            # task whose result cannot cross the process boundary.
            reply["poison"] = poison
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception:  # noqa: BLE001 - unpicklable reply: die like a crash
            break
    conn.close()


class CircuitBreaker:
    """Per-family fail-fast state machine for worker infrastructure faults.

    Counts *consecutive* :class:`~repro.errors.WorkerDied`-class
    failures (crashes, timeouts); after ``threshold`` of them the
    breaker **opens** and :meth:`allow` answers False, so the
    dispatcher fails the family's queries fast (``circuit_open``)
    instead of burning a process spawn per doomed attempt.  After
    ``reset_s`` the breaker **half-opens**: exactly one probe query is
    let through — success closes the circuit, failure re-opens it for
    another full ``reset_s``.

    Engine errors are answers, not infrastructure faults; they never
    trip the breaker (the dispatcher only records worker deaths).
    """

    def __init__(self, *, threshold: int = 3, reset_s: float = 30.0) -> None:
        self.threshold = max(1, int(threshold))
        self.reset_s = float(reset_s)
        self.state = "closed"
        self.failures = 0
        self.opens = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May a query be dispatched to this family right now?"""
        if self.state == "closed":
            return True
        now = time.monotonic()
        if self.state == "open" and now - self._opened_at >= self.reset_s:
            self.state = "half_open"  # this caller becomes the probe
            return True
        return False  # open, or half_open with the probe already in flight

    def record_failure(self) -> None:
        """A worker died/timed out serving this family."""
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.threshold:
            if self.state != "open":
                self.opens += 1
            self.state = "open"
            self._opened_at = time.monotonic()

    def record_success(self) -> None:
        """A query completed (ok or engine error) — the worker is healthy."""
        self.failures = 0
        self.state = "closed"

    def retry_after(self) -> float:
        """Seconds until the next half-open probe is due."""
        if self.state != "open":
            return 0.0
        return max(0.0, self.reset_s - (time.monotonic() - self._opened_at))

    def stats(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "opens": self.opens,
            "retry_after": round(self.retry_after(), 3),
        }


class ShardWorker:
    """One family's worker process plus its parent-side plumbing.

    The paired :class:`~concurrent.futures.ThreadPoolExecutor` (one
    thread) exists so the asyncio dispatcher can park the blocking pipe
    round-trip off the event loop; one thread per worker preserves the
    one-query-at-a-time discipline each worker's budget accounting
    assumes.
    """

    def __init__(
        self,
        family: str,
        *,
        max_alive: int | None = None,
        snapshot_dir: str | Path | None = None,
    ) -> None:
        self.family = family
        self.max_alive = max_alive
        self.snapshot_dir = str(snapshot_dir) if snapshot_dir else None
        self.queries = 0
        self.restarts = 0
        #: Shard stats from the worker's most recent reply — the
        #: parent's only view of warm state living in another process.
        self.last_shards: dict = {}
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-worker-{family}"
        )
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                self.family,
                child_conn,
                self._conn,
                self.max_alive,
                self.snapshot_dir,
                os.getpid(),  # fault_parent: the daemon's pid
            ),
            name=f"repro-shard-{self.family}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    # -- RPC ----------------------------------------------------------

    def call(self, doc: dict, *, timeout: float | None = None) -> dict:
        """One blocking request/reply round trip (executor thread only).

        Raises :class:`WorkerDied` when the process is gone or (with
        ``timeout``) wedged — in the wedged case the process is
        terminated first, so a retry on a fresh worker cannot race the
        zombie.  Engine errors reported by a *live* worker re-raise as
        :class:`RemoteQueryError`.
        """
        self.queries += 1
        try:
            self._conn.send(doc)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(
                f"worker {self.family!r} is gone (send failed: {exc})"
            ) from exc
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            try:
                if self._conn.poll(_POLL_S):
                    reply = self._conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise WorkerDied(
                    f"worker {self.family!r} died mid-query"
                ) from exc
            if not self.process.is_alive():
                raise WorkerDied(
                    f"worker {self.family!r} (pid {self.process.pid}) died "
                    "mid-query"
                )
            if deadline is not None and time.monotonic() >= deadline:
                self.process.terminate()
                raise WorkerDied(
                    f"worker {self.family!r} exceeded {timeout:.1f}s; "
                    "terminated"
                )
        self.last_shards = reply.get("shards", self.last_shards)
        if not reply.get("ok", False):
            err = reply.get("error") or {}
            raise RemoteQueryError(
                err.get("type", "ReproError"), err.get("message", "")
            )
        return reply

    # -- lifecycle ----------------------------------------------------

    def restart(self) -> None:
        """Replace a dead/wedged process with a fresh (cold) one."""
        self._teardown_process()
        self.restarts += 1
        self._spawn()

    def stop(self) -> None:
        """Ask the worker to exit, then reap it (idempotent)."""
        try:
            self._conn.send(_STOP)
        except (BrokenPipeError, OSError):
            pass
        self._teardown_process()
        self.executor.shutdown(wait=False)

    def _teardown_process(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)

    def stats(self) -> dict:
        """This worker's schema-v8 counter block."""
        return {
            "family": self.family,
            "pid": self.process.pid,
            "alive": self.process.is_alive(),
            "queries": self.queries,
            "restarts": self.restarts,
            "shards": self.last_shards,
        }


class WorkerPool:
    """All shard workers of one daemon, spawned lazily per family.

    ``max_workers`` is a soft cap on concurrently alive processes: when
    a new family would exceed it, the least-recently-used *idle* worker
    is stopped first (its warm state is rebuildable — from snapshots,
    cheaply).  Busy workers are never reaped.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        max_alive: int | None = None,
        snapshot_dir: str | Path | None = None,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.max_alive = max_alive
        self.snapshot_dir = snapshot_dir
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.workers: dict[str, ShardWorker] = {}
        #: Breakers live on the pool, not the worker, so the open/close
        #: history survives worker restarts (the whole point: restarts
        #: are what the breaker meters).
        self.breakers: dict[str, CircuitBreaker] = {}
        self._last_used: dict[str, float] = {}

    def breaker(self, family: str) -> CircuitBreaker:
        """The family's circuit breaker (created closed on first use)."""
        breaker = self.breakers.get(family)
        if breaker is None:
            breaker = self.breakers[family] = CircuitBreaker(
                threshold=self.breaker_threshold, reset_s=self.breaker_reset_s
            )
        return breaker

    def get(self, family: str, *, busy: tuple | frozenset = ()) -> ShardWorker:
        """The family's worker, spawning (and maybe evicting) as needed."""
        worker = self.workers.get(family)
        if worker is None:
            while len(self.workers) >= self.max_workers:
                idle = [f for f in self.workers if f not in busy]
                if not idle:
                    break  # every worker busy: exceed the soft cap
                victim = min(idle, key=lambda f: self._last_used.get(f, 0.0))
                self.workers.pop(victim).stop()
                self._last_used.pop(victim, None)
            worker = self.workers[family] = ShardWorker(
                family,
                max_alive=self.max_alive,
                snapshot_dir=self.snapshot_dir,
            )
        self._last_used[family] = time.monotonic()
        return worker

    def restart(self, family: str) -> ShardWorker | None:
        worker = self.workers.get(family)
        if worker is not None:
            worker.restart()
        return worker

    def stop_all(self) -> None:
        for worker in self.workers.values():
            worker.stop()
        self.workers.clear()
        self._last_used.clear()

    def stats(self) -> dict:
        """The schema-v8 ``workers`` map (parent pid for context)."""
        return {
            "parent_pid": os.getpid(),
            "max_workers": self.max_workers,
            "processes": {
                family: worker.stats()
                for family, worker in sorted(self.workers.items())
            },
            "breakers": {
                family: breaker.stats()
                for family, breaker in sorted(self.breakers.items())
            },
        }
