"""Per-family shard worker processes: where every query runs.

Each benchmark family gets its own worker **process** holding that
family's :class:`~repro.service.shards.Shard`, whose
:meth:`~repro.service.shards.Shard.handle` answers every request: the
asyncio front-end keeps the socket/HTTP/admission/journal roles and
dispatches every query over a pipe-based RPC, so families execute
concurrently (a slow cascade build cannot head-of-line-block a
millisecond RNS lookup) and a wedged or killed worker takes down only
its own family's warm state.  The process plumbing (fork, pipe,
liveness polls, deadline, restart) is
:class:`repro.parallel.worker.WorkerProcess`, the same class the sweep
pool runs its rows on.

Wire format (pickled dicts over the worker's pipe — the same
"picklable description" discipline as :mod:`repro.parallel.tasks` row
tasks):

request::

    {"op": ..., "params": {...}, "budget": ... | None,
     "tenant_remaining": int | None}

reply::

    {"ok": true, "result": {...}, "wall_s": ...,
     "stats_delta": {...}, "shard": {...}}
    {"ok": false, "error": {"type": ..., "message": ...},
     "wall_s": ..., "stats_delta": {...}, "shard": {...}}

``stats_delta`` is the worker-side :func:`repro.bdd.stats.counter_delta`
of the query and ``shard`` the shard's stats block; for every reply,
ok or error, the parent folds the delta into its own process totals
with :func:`repro.bdd.stats.merge_worker_totals` (exactly the sweep
pool's cross-process aggregation) and charges the delta's
``kernel_steps`` to the tenant's step ledger, which stays parent-side.
``tenant_remaining`` carries the tenant's remaining step allowance
*into* the worker as a plain per-query budget.

Failure model: a dead or wedged worker raises
:class:`~repro.errors.WorkerDied`; the dispatcher restarts that one
worker (fresh process, cold shard) and re-executes the in-flight
query as a new journaled attempt.  Engine errors inside a worker are
*answers*, not faults — they come back serialized and re-raise in the
parent as :class:`~repro.errors.RemoteQueryError` with the original
type name and the reply's ``stats_delta`` preserved.
"""

from __future__ import annotations

import os
import time
from collections.abc import Collection
from pathlib import Path

from repro.errors import RemoteQueryError
from repro.parallel.worker import WorkerProcess
from repro.service.shards import DEFAULT_MAX_ALIVE, Shard

__all__ = ["CircuitBreaker", "ShardWorker", "WorkerPool"]


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
    """One family's worker process, answering queries with its shard.

    The process plumbing is :class:`WorkerProcess`'s; the child builds
    one :class:`Shard` and its :meth:`Shard.handle` answers every
    request.  This class adds the query count, the last reply's shard
    stats and the error translation.  Its one-thread ``executor`` lets
    the asyncio dispatcher park the blocking pipe round trip off the
    event loop, one query at a time per process, which the worker's
    budget accounting assumes.
    """

    def __init__(
        self,
        family: str,
        *,
        max_alive: int = DEFAULT_MAX_ALIVE,
        snapshot_dir: str | Path | None = None,
        inherited: Collection = (),
    ) -> None:
        self.family = family
        self.queries = 0
        #: Shard stats from the worker's most recent reply — the
        #: parent's only view of warm state living in another process.
        self.last_shard: dict = {}
        fault_parent = os.getpid()  # this daemon
        super().__init__(
            lambda: Shard(
                family,
                snapshot_dir=snapshot_dir,
                max_alive=max_alive,
                fault_parent=fault_parent,
            ).handle,
            name=f"repro-shard-{family}",
            inherited=inherited,
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
        self.last_shard = reply.get("shard", self.last_shard)
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
            "shards": {self.family: self.last_shard} if self.last_shard else {},
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
        max_alive: int = DEFAULT_MAX_ALIVE,
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
        #: The daemon's sockets a forked worker must not keep: its
        #: listening sockets, once bound, and the connections of its
        #: clients while they are open.  Every worker forked (or
        #: restarted) closes its copies of what the set holds then
        #: (WorkerProcess).
        self.inherited: set = set()

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
                inherited=self.inherited,
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
