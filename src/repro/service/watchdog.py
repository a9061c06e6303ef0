"""Memory watchdog: staged degradation instead of a fixed ceiling.

The shards' ``max_alive`` housekeeping threshold (PR 7) only meters
*engine nodes, per shard, after a query*.  A long-lived daemon also
accumulates result-cache entries, interpreter heaps and allocator slack
that no per-shard counter sees — and a single fixed threshold cannot
tell "one hot shard" from "the whole service is about to be
OOM-killed".  The watchdog samples the real signal on a timer: the
resident sets of the daemon and of every live shard worker process
(where every BDD lives), summed, plus the live-node total the workers
last reported for their shards.  Forked workers share unmodified pages
with the daemon, so the sum over-counts them.  Each consecutive
over-limit sample climbs one stage of a degradation ladder:

1. **housekeep** — drop the cross-request result cache (cheap,
   reversible: answers are recomputed on demand; the workers already
   collect their own shards' query scratch after every query);
2. **evict** — stop the coldest *idle* worker process (its warm state
   reloads from snapshots); with every worker busy nothing is evicted
   and the next over-limit sample sheds;
3. **shed** — flip :attr:`~repro.service.admission.Admission.shedding`:
   every new compute admission is refused with a structured
   ``overloaded`` error until pressure clears.

A healthy sample resets the ladder and lifts shedding.  All state
transitions happen in :meth:`sample`, which is synchronous and
deterministic — the asyncio loop (:meth:`run`) only provides the
timer — so tests drive the ladder directly with tiny limits.
"""

from __future__ import annotations

import asyncio
import os

__all__ = ["MemoryWatchdog", "rss_bytes"]

#: Stage names, index 0 = healthy.  The ladder escalates one stage per
#: consecutive over-limit sample and resets on the first healthy one.
STAGES = ("ok", "housekeep", "evict", "shed")


def rss_bytes(pid: int | None = None) -> int:
    """Resident set size in bytes of process ``pid``, this one by default.

    Reads ``/proc/<pid>/status`` ``VmRSS`` (current, not peak).  A
    process that has exited, or is unreadable, reads 0; for this
    process, systems without procfs fall back to ``resource.getrusage``
    peak RSS.
    """
    try:
        with open(f"/proc/{pid or 'self'}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    if pid is not None:
        return 0
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - resource always exists on posix
        return 0


class MemoryWatchdog:
    """Periodic RSS / alive-node sampler driving staged degradation.

    ``rss_limit_bytes`` bounds the resident sets of the daemon and its
    live shard workers, summed; ``alive_limit``
    bounds the live-node total summed across the workers'
    last-reported shard stats.  Either limit being exceeded
    makes a sample "over"; both ``None`` leaves the watchdog as a pure
    sampler whose readings still appear in the stats document.
    """

    def __init__(
        self,
        service,
        *,
        rss_limit_bytes: int | None = None,
        alive_limit: int | None = None,
        interval_s: float = 5.0,
    ) -> None:
        self.service = service
        self.rss_limit_bytes = rss_limit_bytes
        self.alive_limit = alive_limit
        self.interval_s = interval_s
        self.stage = 0
        self.samples = 0
        self.housekeeps = 0
        self.worker_evictions = 0
        self.sheds = 0
        self.last_rss = 0
        self.last_alive = 0

    # -- sampling ------------------------------------------------------

    def alive_nodes(self) -> int:
        """Live-node total across the shards the workers last reported."""
        return sum(
            int(worker.last_shard.get("alive_nodes", 0))
            for worker in self.service.worker_pool.workers.values()
        )

    def over_limit(self) -> bool:
        if self.rss_limit_bytes is not None and self.last_rss > self.rss_limit_bytes:
            return True
        return self.alive_limit is not None and self.last_alive > self.alive_limit

    def sample(self) -> str:
        """Take one sample and apply (at most) one degradation stage.

        Returns the stage name acted on (``"ok"`` when healthy).
        """
        self.samples += 1
        workers = list(self.service.worker_pool.workers.values())
        self.last_rss = rss_bytes() + sum(rss_bytes(w.process.pid) for w in workers)
        self.last_alive = self.alive_nodes()
        if not self.over_limit():
            if self.stage >= 3:
                self.service.admission.shedding = False
            self.stage = 0
            return STAGES[0]
        self.stage = min(self.stage + 1, 3)
        if self.stage == 1:
            self._housekeep()
        elif self.stage == 2:
            self._evict()
        else:
            self._shed()
        return STAGES[self.stage]

    # -- the degradation ladder ----------------------------------------

    def _housekeep(self) -> None:
        """Stage 1: drop the result cache."""
        self.housekeeps += 1
        self.service.result_cache.invalidate()

    def _evict(self) -> None:
        """Stage 2: stop the coldest worker whose family has no query in
        flight; its shard state reloads from RBCF snapshots."""
        service = self.service
        if service.worker_pool.stop_coldest(service._inflight) is None:
            return
        self.worker_evictions += 1
        service.result_cache.invalidate()

    def _shed(self) -> None:
        """Stage 3: refuse new compute admissions until pressure clears."""
        if not self.service.admission.shedding:
            self.sheds += 1
        self.service.admission.shedding = True

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> None:
        """The sampling timer; cancelled by the service on shutdown."""
        while True:
            await asyncio.sleep(self.interval_s)
            self.sample()

    def stats(self) -> dict:
        """The schema-v8 ``watchdog`` block."""
        return {
            "pid": os.getpid(),
            "interval_s": self.interval_s,
            "rss_limit_bytes": self.rss_limit_bytes,
            "alive_limit": self.alive_limit,
            "samples": self.samples,
            "last_rss_bytes": self.last_rss,
            "last_alive_nodes": self.last_alive,
            "stage": self.stage,
            "stage_name": STAGES[self.stage],
            "housekeeps": self.housekeeps,
            "worker_evictions": self.worker_evictions,
            "sheds": self.sheds,
        }
