"""Per-family shard worker processes: where every query runs.

Each benchmark family gets its own worker **process** owning a private
:class:`~repro.service.shards.ShardPool`: the asyncio front-end keeps
the socket/HTTP/admission/journal roles and dispatches every query
over a pipe-based RPC, so families execute concurrently (a slow
cascade build cannot head-of-line-block a millisecond RNS lookup) and
a wedged or killed worker takes down only its own family's warm state.
The process plumbing (fork, pipe, liveness polls, deadline, restart)
is :class:`repro.parallel.worker.WorkerProcess`, the same class the
sweep pool runs its rows on.

Wire format (pickled dicts over the worker's pipe — the same
"picklable description" discipline as :mod:`repro.parallel.tasks` row
tasks):

request::

    {"op": ..., "params": {...}, "budget": ... | None,
     "tenant_remaining": int | None}

reply::

    {"ok": true, "family": ..., "result": {...}, "wall_s": ...,
     "stats_delta": {...}, "shards": {...}}
    {"ok": false, "error": {"type": ..., "message": ...},
     "wall_s": ..., "stats_delta": {...}, "shards": {...}}

``stats_delta`` is the worker-side :func:`repro.bdd.stats.counter_delta`
of the query; for every reply, ok or error, the parent folds it into
its own process totals with :func:`repro.bdd.stats.merge_worker_totals`
(exactly the sweep pool's cross-process aggregation) and charges the
delta's ``kernel_steps`` to the tenant's step ledger, which stays
parent-side.  ``tenant_remaining`` carries the tenant's remaining step
allowance *into* the worker as a plain per-query budget.

Failure model: a dead or wedged worker raises
:class:`~repro.errors.WorkerDied`; the dispatcher restarts that one
worker (fresh process, cold shards) and re-executes the in-flight
query as a new journaled attempt.  Engine errors inside a worker are
*answers*, not faults — they come back serialized and re-raise in the
parent as :class:`~repro.errors.RemoteQueryError` with the original
type name and the reply's ``stats_delta`` preserved.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro import _faults
from repro.errors import RemoteQueryError
from repro.parallel.worker import WorkerProcess

__all__ = ["CircuitBreaker", "ShardWorker", "WorkerPool"]


def _shard_handler(
    family: str,
    max_alive: int | None,
    snapshot_dir: str | None,
    fault_parent: int,
):
    """Build one family's query handler, once, inside its worker process.

    The handler runs a private :class:`ShardPool` (warm managers live
    here, not in the daemon).  Every reply carries the query's
    engine-counter delta and the pool's shard stats so the parent can
    keep schema-v8 accounting without sharing memory.

    The chaos hook :func:`repro._faults.fire` runs once per request at
    the ``service:<family>`` site; ``fault_parent`` is the daemon's pid
    so the same spec drives both worker-process kills and in-process
    degradations, exactly like row tasks' ``fault_parent``.
    """
    # Imports happen here (not module top) so a fork()ed child touches
    # the engine modules only after it owns them.
    from repro.bdd import stats
    from repro.bdd.governor import Budget
    from repro.service.shards import ShardPool

    pool = ShardPool(max_alive=max_alive, snapshot_dir=snapshot_dir)

    def handle(msg: dict) -> dict:
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
        return reply

    return handle


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


class ShardWorker(WorkerProcess):
    """One family's worker process, answering queries with a shard pool.

    The process plumbing is :class:`WorkerProcess`'s; this class adds
    the query count, the last reply's shard stats and the error
    translation.  Its one-thread ``executor`` lets the asyncio
    dispatcher park the blocking pipe round trip off the event loop,
    one query at a time per process, which the worker's budget
    accounting assumes.
    """

    def __init__(
        self,
        family: str,
        *,
        max_alive: int | None = None,
        snapshot_dir: str | Path | None = None,
        listeners: tuple = (),
    ) -> None:
        self.family = family
        self.queries = 0
        #: Shard stats from the worker's most recent reply — the
        #: parent's only view of warm state living in another process.
        self.last_shards: dict = {}
        snapshot = str(snapshot_dir) if snapshot_dir else None
        super().__init__(
            _shard_handler,
            (family, max_alive, snapshot, os.getpid()),  # fault_parent: this daemon
            name=f"repro-shard-{family}",
            listeners=listeners,
        )

    def call(self, doc: dict, *, timeout: float | None = None) -> dict:
        """One query round trip (executor thread only).

        Raises :class:`~repro.errors.WorkerDied` when the process is
        gone or wedged (see :meth:`WorkerProcess.call`).  Engine errors
        reported by a *live* worker re-raise as
        :class:`RemoteQueryError` carrying the reply's ``stats_delta``.
        """
        self.queries += 1
        reply = super().call(doc, timeout=timeout)
        self.last_shards = reply.get("shards", self.last_shards)
        if not reply.get("ok", False):
            err = reply.get("error") or {}
            raise RemoteQueryError(
                err.get("type", "ReproError"),
                err.get("message", ""),
                reply.get("stats_delta"),
            )
        return reply

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

    ``max_workers`` (at least 1) is a soft cap on concurrently alive
    processes: when a new family would exceed it, the
    least-recently-used *idle* worker is stopped first (its warm state
    is rebuildable — from snapshots, cheaply).  Busy workers are never
    reaped.
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
        if max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers
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
        #: The daemon's listening sockets, set once they are bound; every
        #: worker forked afterwards closes its copies (WorkerProcess).
        self.listeners: tuple = ()

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
                if self.stop_coldest(busy) is None:
                    break  # every worker busy: exceed the soft cap
            worker = self.workers[family] = ShardWorker(
                family,
                max_alive=self.max_alive,
                snapshot_dir=self.snapshot_dir,
                listeners=self.listeners,
            )
        self._last_used[family] = time.monotonic()
        return worker

    def stop_coldest(self, busy: tuple | frozenset | set = ()) -> str | None:
        """Stop the least-recently-used worker whose family is not in
        ``busy``; returns that family, or None when every worker is busy."""
        idle = [f for f in self.workers if f not in busy]
        if not idle:
            return None
        victim = min(idle, key=lambda f: self._last_used.get(f, 0.0))
        self.workers.pop(victim).stop()
        self._last_used.pop(victim, None)
        return victim

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
