"""Multi-process shard workers: RPC, failure model, pool, dispatcher.

The worker layer's contract has three parts worth pinning separately:

* :class:`ShardWorker` — one process, one family, pipe RPC.  Replies
  carry results, serialized engine errors, and the counter deltas the
  parent needs for schema-v8 accounting.
* :class:`WorkerPool` — lazy spawn per family with an LRU soft cap
  that never reaps a busy worker.
* ``Service`` — the asyncio dispatcher end to end, including the PR 4
  rebuild semantics: a SIGKILLed worker is replaced and its in-flight
  query transparently re-executed.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.errors import RemoteQueryError, WorkerDied
from repro.service.protocol import Request
from repro.service.server import Service
from repro.service.shards import Shard
from repro.service.workers import ShardWorker, WorkerPool

BENCH = "3-5 RNS"


def wr_doc(benchmark: str = BENCH, **over) -> dict:
    return {
        "op": "width_reduce",
        "params": {"benchmark": benchmark},
        "budget": None,
        "tenant_remaining": None,
        **over,
    }


def sigkill(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)
    # Reap promptly so is_alive() flips without waiting on the poll.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            if os.waitpid(pid, os.WNOHANG) != (0, 0):
                return
        except ChildProcessError:
            return
        time.sleep(0.01)


@pytest.fixture
def worker():
    w = ShardWorker("rns")
    yield w
    w.stop()


class TestShardWorker:
    def test_rpc_round_trip(self, worker):
        reply = worker.call(wr_doc())
        assert reply["ok"]
        assert "family" not in reply
        assert reply["result"]["benchmark"] == BENCH
        assert reply["result"]["fingerprint"]
        assert reply["wall_s"] > 0
        # Counter delta + shard stats ride along for parent accounting.
        assert reply["stats_delta"]["kernel_steps"] > 0
        assert reply["shard"]["family"] == "rns"
        assert reply["shard"]["queries"] == 1
        assert worker.last_shard == reply["shard"]
        assert worker.stats()["shards"] == {"rns": reply["shard"]}

    def test_engine_error_is_an_answer_not_a_fault(self, worker):
        """A worker that *reports* an error is healthy: the error
        re-raises as RemoteQueryError (type preserved for the client)
        and the same process keeps serving."""
        with pytest.raises(RemoteQueryError) as exc_info:
            worker.call(wr_doc("no such benchmark"))
        assert exc_info.value.type_name == "BenchmarkError"
        assert "no such benchmark" in str(exc_info.value)
        pid = worker.process.pid
        assert worker.call(wr_doc())["ok"]
        assert worker.process.pid == pid

    def test_sigkill_raises_workerdied_and_restart_recovers(self, worker):
        first = worker.call(wr_doc())
        old_pid = worker.process.pid
        sigkill(old_pid)
        with pytest.raises(WorkerDied):
            worker.call(wr_doc())
        worker.restart()
        assert worker.restarts == 1
        assert worker.process.pid != old_pid
        again = worker.call(wr_doc())
        assert again["ok"]
        assert again["result"]["fingerprint"] == first["result"]["fingerprint"]

    def test_wedged_worker_is_terminated_on_timeout(self, worker):
        # A cold decimal-multiplier build takes well over the timeout,
        # so from the parent's view the worker is wedged.
        with pytest.raises(WorkerDied, match="exceeded"):
            worker.call(wr_doc("2-digit decimal multiplier"), timeout=0.05)
        worker.restart()
        assert worker.call(wr_doc())["ok"]

    def test_tenant_remaining_enforced_inside_worker(self, worker):
        with pytest.raises(RemoteQueryError) as exc_info:
            worker.call(wr_doc(tenant_remaining=1))
        assert "step" in str(exc_info.value).lower()

    def test_stop_reaps_the_process(self):
        w = ShardWorker("rns")
        pid = w.process.pid
        w.stop()
        assert not w.process.is_alive()
        # Idempotent: a second stop on a dead worker is harmless.
        w.stop()
        assert w.stats()["alive"] is False
        assert w.stats()["pid"] == pid


class TestWorkerPool:
    def test_lazy_spawn_and_reuse(self):
        pool = WorkerPool(4)
        try:
            assert pool.workers == {}
            w1 = pool.get("rns")
            assert pool.get("rns") is w1
            assert set(pool.workers) == {"rns"}
        finally:
            pool.stop_all()

    def test_soft_cap_evicts_lru_idle_worker(self):
        pool = WorkerPool(1)
        try:
            first = pool.get("rns")
            pool.get("decimal")
            assert set(pool.workers) == {"decimal"}
            assert not first.process.is_alive()
        finally:
            pool.stop_all()

    def test_busy_workers_never_reaped_cap_exceeded_instead(self):
        pool = WorkerPool(1)
        try:
            busy = pool.get("rns")
            pool.get("decimal", busy=frozenset({"rns"}))
            assert set(pool.workers) == {"rns", "decimal"}
            assert busy.process.is_alive()
        finally:
            pool.stop_all()

    def test_stats_block(self):
        pool = WorkerPool(2)
        try:
            pool.get("rns")
            stats = pool.stats()
            assert stats["parent_pid"] == os.getpid()
            assert stats["max_workers"] == 2
            assert stats["processes"]["rns"]["alive"] is True
        finally:
            pool.stop_all()

    def test_stop_all_clears_everything(self):
        pool = WorkerPool(2)
        workers = [pool.get("rns"), pool.get("decimal")]
        pool.stop_all()
        assert pool.workers == {}
        assert all(not w.process.is_alive() for w in workers)


def wr_request(rid: str, benchmark: str = BENCH, **params) -> Request:
    return Request(
        id=rid, op="width_reduce", params={"benchmark": benchmark, **params}
    )


def run_service(coro_fn, **service_kwargs):
    """Run ``coro_fn(service)`` against a listener-less daemon."""

    async def main():
        service = Service(**service_kwargs)
        pump = asyncio.ensure_future(service._pump())
        try:
            return await coro_fn(service)
        finally:
            service._stopping = True
            service._work.set()
            await pump
            service.close()

    return asyncio.run(main())


class TestServiceWorkerMode:
    def test_two_families_answer_with_v7_stats(self):
        async def scenario(service):
            rns, dec = await asyncio.gather(
                service.handle_request(wr_request("q1")),
                service.handle_request(
                    wr_request("q2", "2-digit decimal adder")
                ),
            )
            return rns, dec, service.stats()

        rns, dec, stats = run_service(scenario, workers=2)
        assert rns["ok"] and dec["ok"]
        assert rns["meta"]["shard"] == "rns"
        assert dec["meta"]["shard"] == "decimal"
        assert stats["schema_version"] == 11
        procs = stats["workers"]["processes"]
        assert set(procs) == {"rns", "decimal"}
        assert all(p["pid"] != os.getpid() for p in procs.values())
        # Warm shard state (with its engine counters) is visible
        # through the workers' last replies, and the deltas merged into
        # the parent's cross-process totals.
        assert stats["shards"]["rns"]["queries"] == 1
        assert stats["shards"]["rns"]["counters"]["kernel_steps"] > 0
        from repro.bdd.stats import WORKER_TOTALS

        assert WORKER_TOTALS["kernel_steps"] > 0

    def test_worker_matches_in_process_fingerprint(self):
        """A worker's answer equals the same shard query run here."""

        async def scenario(service):
            return await service.handle_request(wr_request("q1"))

        via_worker = run_service(scenario, workers=1)
        assert via_worker["ok"]
        in_process = Shard("rns").execute("width_reduce", {"benchmark": BENCH})
        assert via_worker["result"]["fingerprint"] == in_process["fingerprint"]

    def test_sigkilled_worker_rebuilt_and_query_retried(self):
        """The durability criterion: SIGKILL of a single worker is
        invisible to the client — the dispatcher rebuilds the process
        and re-executes the in-flight query as a new attempt."""

        async def scenario(service):
            warm = await service.handle_request(wr_request("q1"))
            victim = service.worker_pool.get("rns")
            pid_before = victim.process.pid

            async def kill_soon():
                await asyncio.sleep(0.05)
                sigkill(victim.process.pid)

            killer = asyncio.ensure_future(kill_soon())
            # Different params than q1 so the result cache cannot
            # answer it; invalidation-on-death has its own assert.
            retried = await service.handle_request(
                wr_request("q2", sift=False)
            )
            await killer
            return warm, retried, victim, pid_before

        warm, retried, victim, pid_before = run_service(scenario, workers=2)
        assert warm["ok"]
        assert retried["ok"], retried
        if victim.restarts:  # the kill landed mid-query
            assert victim.process.pid != pid_before
            # Death invalidated the cross-request cache (warm state gone).
            assert victim.restarts == 1

    def test_worker_death_invalidate_then_final_error_after_retries(self):
        """A query that kills its worker every time gives up loudly
        after MAX_WORKER_ATTEMPTS instead of looping forever."""

        async def scenario(service):
            done = await service.handle_request(wr_request("q1"))
            real_get = service.worker_pool.get

            class DeadWorker:
                executor = real_get("rns").executor

                def call(self, doc, *, timeout=None):
                    raise WorkerDied("scripted death")

            service.worker_pool.get = lambda family, busy=(): DeadWorker()
            epoch_before = service.result_cache.epoch
            failing = await service.handle_request(wr_request("q2", sift=False))
            service.worker_pool.get = real_get
            return done, failing, epoch_before, service

        done, failing, epoch_before, service = run_service(scenario, workers=1)
        assert done["ok"]
        assert not failing["ok"]
        assert "giving up" in failing["error"]["message"]
        # Every death bumped the result-cache epoch.
        assert service.result_cache.epoch > epoch_before
        assert service.result_cache.invalidations > 0
