"""PR 9 resilience layer: shedding, deadlines, breakers, watchdog.

One ``asyncio.run`` per test, no daemon subprocess (queries still run
on forked shard workers): the admission limits, the ``deadline_ms``
path, the circuit-breaker state machine, and the memory watchdog's
degradation ladder are deterministic state transitions, so they are
pinned here without daemon-management flakiness.  The same behaviours
under *real* process faults live in ``test_chaos.py``.
"""

import asyncio

import pytest

from repro.errors import CircuitOpenError, DeadlineError, OverloadedError
from repro.service.client import raise_for_code
from repro.service.admission import Admission
from repro.service.protocol import Request
from repro.service.server import Service
from repro.service.watchdog import MemoryWatchdog, rss_bytes
from repro.service.workers import CircuitBreaker

BENCH = "3-5 RNS"
SLOW_BENCH = "5-7-11-13 RNS"  # ~1s cold build: deadlines can interrupt it


def wr_request(rid, benchmark=BENCH, **extra):
    return Request(
        id=rid, op="width_reduce", params={"benchmark": benchmark}, **extra
    )


def run_service(coro_fn, *, pump=True, **service_kwargs):
    """Run ``coro_fn(service)`` against a fresh listener-less daemon.

    ``pump=False`` leaves the dispatcher off so tests can saturate the
    admission queue without racing execution.
    """

    async def main():
        service = Service(**service_kwargs)
        task = asyncio.ensure_future(service._pump()) if pump else None
        try:
            return await coro_fn(service)
        finally:
            service._stopping = True
            service._work.set()
            if task is not None:
                await task
            service.close()

    return asyncio.run(main())


class TestOverloadShedding:
    def test_queue_depth_limit_sheds_with_retry_after(self):
        async def scenario(service):
            fut = service._enqueue(wr_request("q1"))
            doc = await service.handle_request(wr_request("q2", "3-7 RNS"))
            fut.cancel()
            return doc, service

        doc, service = run_service(
            scenario, pump=False, max_queue_depth=1, result_cache_size=0
        )
        assert doc["ok"] is False
        assert doc["error"]["code"] == "overloaded"
        assert doc["error"]["retry_after"] > 0
        assert "queue depth" in doc["error"]["message"]
        assert service.admission.shed_total == 1

    def test_shed_request_is_never_journaled(self, tmp_path):
        """Refusal happens before the write-ahead journal: a shed query
        leaves no attempt record, so a later drain cannot resurrect
        work the client was told to retry."""
        journal = tmp_path / "svc.journal"

        async def scenario(service):
            fut = service._enqueue(wr_request("q1"))
            doc = await service.handle_request(wr_request("q2", "3-7 RNS"))
            fut.cancel()
            return doc

        doc = run_service(
            scenario,
            pump=False,
            max_queue_depth=1,
            result_cache_size=0,
            journal_path=journal,
        )
        assert doc["error"]["code"] == "overloaded"
        text = journal.read_text()
        assert '"3-5 RNS"' in text  # the admitted query's attempt
        assert '"3-7 RNS"' not in text  # the shed query left no trace

    def test_batched_waiter_rides_through_a_full_queue(self):
        """Coalescing onto an admitted query is not a new admission —
        the batcher answers even when the queue is at its bound."""

        async def scenario(service):
            fut = service._enqueue(wr_request("q1"))
            fut2 = service._enqueue(wr_request("q1-too"))  # identical: batched
            fut.cancel()
            fut2.cancel()
            return service

        service = run_service(
            scenario, pump=False, max_queue_depth=1, result_cache_size=0
        )
        assert service.batched_total == 1
        assert service.admission.shed_total == 0

    def test_tenant_inflight_cap_is_per_tenant(self):
        async def scenario(service):
            fut = service._enqueue(wr_request("a1", tenant="alice"))
            shed = await service.handle_request(
                wr_request("a2", "3-7 RNS", tenant="alice")
            )
            other = service._enqueue(wr_request("b1", "3-7 RNS", tenant="bob"))
            fut.cancel()
            other.cancel()
            return shed

        shed = run_service(
            scenario, pump=False, tenant_max_inflight=1, result_cache_size=0
        )
        assert shed["error"]["code"] == "overloaded"
        assert "alice" in shed["error"]["message"]

    def test_client_surfaces_overloaded_as_typed_exception(self):
        doc = {
            "id": "x",
            "ok": False,
            "error": {
                "type": "OverloadedError",
                "code": "overloaded",
                "message": "admission refused: queue depth limit reached",
                "retry_after": 1.25,
            },
        }
        with pytest.raises(OverloadedError) as info:
            raise_for_code(doc)
        assert info.value.retry_after == 1.25

    def test_retry_after_clamped_to_sane_band(self):
        admission = Admission()
        assert 0.1 <= admission.retry_after() <= 60.0


class TestDeadlines:
    def test_expired_in_queue_answers_deadline_exceeded(self):
        """A query whose deadline lapses while queued never reaches the
        engine; the answer is immediate and the counters say so."""

        async def scenario(service):
            fut = service._enqueue(wr_request("q1", deadline_ms=1))
            await asyncio.sleep(0.05)  # let the 1ms deadline lapse
            pump = asyncio.ensure_future(service._pump())
            doc = await fut
            service._stopping = True
            service._work.set()
            await pump
            return doc, service

        doc, service = run_service(scenario, pump=False, result_cache_size=0)
        assert doc["ok"] is False
        assert doc["error"]["code"] == "deadline_exceeded"
        assert service.deadline_exceeded_total == 1
        assert service.executed == 0, "the engine never ran"

    def test_mid_build_deadline_leaves_service_reusable(self):
        """The cooperative path: the governor aborts a ~1s build at a
        checkpoint, the worker process survives, and the very next query
        on the same service succeeds."""

        async def scenario(service):
            cut = await service.handle_request(
                wr_request("slow", SLOW_BENCH, deadline_ms=200)
            )
            healthy = await service.handle_request(wr_request("ok"))
            return cut, healthy, service

        cut, healthy, service = run_service(scenario, result_cache_size=0)
        assert cut["ok"] is False
        assert cut["error"]["code"] == "deadline_exceeded"
        assert healthy["ok"], healthy
        assert service.deadline_exceeded_total == 1

    def test_deadline_ms_changes_the_query_key(self):
        """A deadline is part of the computation's identity: a
        deadlineless arrival must not coalesce onto an abortable
        attempt (and v2-era digests stay stable when unset)."""
        plain = wr_request("a").key()
        bounded = wr_request("b", deadline_ms=500).key()
        assert plain != bounded
        assert wr_request("c").key() == plain

    def test_expired_query_stays_pending_in_journal(self, tmp_path):
        """Deadlines bound the synchronous answer, not durability: the
        journaled attempt has no result record, so a drain still
        computes it."""
        journal = tmp_path / "svc.journal"

        async def scenario(service):
            fut = service._enqueue(wr_request("q1", deadline_ms=1))
            await asyncio.sleep(0.05)
            pump = asyncio.ensure_future(service._pump())
            doc = await fut
            service._stopping = True
            service._work.set()
            await pump
            return doc

        doc = run_service(
            scenario, pump=False, result_cache_size=0, journal_path=journal
        )
        assert doc["error"]["code"] == "deadline_exceeded"
        from repro.parallel.journal import Journal

        with Journal(journal, resume=True) as j:
            assert len(j.pending()) == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, reset_s=60.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow(), "under threshold: still closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1
        assert 0.0 < breaker.retry_after() <= 60.0

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed", "non-consecutive failures don't trip"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(threshold=1, reset_s=0.0)
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow(), "reset elapsed: this caller is the probe"
        assert breaker.state == "half_open"
        assert not breaker.allow(), "second caller waits on the probe"

    def test_probe_failure_reopens_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, reset_s=0.0)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()  # the probe died too
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.allow()  # reset_s=0: next probe is due immediately
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failures == 0

    def test_open_breaker_fails_queries_fast(self):
        """Dispatcher integration: an open breaker answers
        ``circuit_open`` without spawning a worker process."""

        async def scenario(service):
            breaker = service.worker_pool.breaker("rns")
            breaker.record_failure()  # threshold=1: opens
            doc = await service.handle_request(wr_request("q1"))
            return doc, service

        doc, service = run_service(
            scenario,
            workers=1,
            breaker_threshold=1,
            breaker_reset_s=60.0,
            result_cache_size=0,
        )
        assert doc["ok"] is False
        assert doc["error"]["code"] == "circuit_open"
        assert doc["error"]["retry_after"] > 0
        assert service.worker_pool.workers == {}, "no process was spawned"

    def test_client_surfaces_circuit_open_as_typed_exception(self):
        doc = {
            "id": "x",
            "ok": False,
            "error": {
                "type": "CircuitOpenError",
                "code": "circuit_open",
                "message": "family 'rns' circuit breaker is open",
                "retry_after": 29.9,
            },
        }
        with pytest.raises(CircuitOpenError) as info:
            raise_for_code(doc)
        assert info.value.retry_after == 29.9

    def test_deadline_code_raises_deadline_error(self):
        doc = {
            "id": "x",
            "ok": False,
            "error": {
                "type": "DeadlineError",
                "code": "deadline_exceeded",
                "message": "query spent its deadline queued",
            },
        }
        with pytest.raises(DeadlineError):
            raise_for_code(doc)


class TestMemoryWatchdog:
    def test_rss_bytes_reads_something(self):
        assert rss_bytes() > 0

    def test_ladder_escalates_then_resets(self):
        async def scenario(service):
            await service.handle_request(wr_request("warm"))
            dog = service.watchdog
            dog.alive_limit = 1  # any populated shard is "over"
            # The only worker counts as busy, so the evict stage finds
            # no idle victim, frees nothing, and pressure persists.
            service._inflight.add("rns")
            stages = [dog.sample() for _ in range(4)]
            service._inflight.discard("rns")
            shed = await service.handle_request(wr_request("q2", "3-7 RNS"))
            dog.alive_limit = None  # pressure cleared
            recovered = dog.sample()
            after = await service.handle_request(wr_request("q3", "3-7 RNS"))
            return stages, shed, recovered, after, service

        stages, shed, recovered, after, service = run_service(
            scenario, result_cache_size=4
        )
        assert stages == ["housekeep", "evict", "shed", "shed"]
        assert shed["ok"] is False
        assert shed["error"]["code"] == "overloaded"
        assert "watchdog" in shed["error"]["message"]
        assert recovered == "ok"
        assert service.admission.shedding is False
        assert after["ok"], "shedding lifted once pressure cleared"
        dog = service.watchdog.stats()
        assert dog["sheds"] == 1, "re-shedding while shed is not re-counted"
        assert dog["housekeeps"] == 1
        assert dog["worker_evictions"] == 0

    def test_housekeep_stage_drops_the_result_cache(self):
        async def scenario(service):
            await service.handle_request(wr_request("warm"))
            epoch = service.result_cache.epoch
            service.watchdog.alive_limit = 1
            service.watchdog.sample()
            return epoch, service.result_cache.epoch

        before, after = run_service(scenario)
        assert after == before + 1

    def test_pure_sampler_without_limits_never_degrades(self):
        async def scenario(service):
            await service.handle_request(wr_request("warm"))
            names = [service.watchdog.sample() for _ in range(3)]
            return names, service.stats()

        names, stats = run_service(scenario)
        assert names == ["ok", "ok", "ok"]
        dog = stats["watchdog"]
        assert dog["samples"] == 3
        assert dog["stage_name"] == "ok"
        assert dog["last_rss_bytes"] > 0

    def test_watchdog_block_in_stats_schema(self):
        async def scenario(service):
            return service.stats()

        stats = run_service(scenario, pump=False)
        assert stats["schema_version"] == 11
        assert stats["shed_total"] == 0
        assert stats["deadline_exceeded_total"] == 0
        for key in ("stage", "stage_name", "samples", "sheds"):
            assert key in stats["watchdog"]


class TestWatchdogEviction:
    def test_evict_stage_stops_coldest_idle_worker(self):
        """Multi-process stage 2: the LRU idle worker process is
        stopped (its warm state reloads from snapshots); in-flight
        families are never victims."""

        async def scenario(service):
            pool = service.worker_pool
            pool.get("rns")
            await asyncio.sleep(0.01)
            pool.get("pnary")  # rns is now the coldest
            dog = MemoryWatchdog(service, alive_limit=0)
            dog.stage = 1  # next over-limit sample escalates to evict
            service._inflight.add("pnary")  # pretend pnary is mid-query
            dog.last_alive = 1
            dog._evict()
            return set(pool.workers), dog.worker_evictions

        families, evictions = run_service(
            scenario, pump=False, workers=2, result_cache_size=0
        )
        assert families == {"pnary"}, "coldest idle worker was stopped"
        assert evictions == 1
