"""Daemon integration: warmth, batching, parity, budgets, HTTP framing.

These tests drive a :class:`repro.service.server.Service` inside one
``asyncio.run`` — its shard worker processes are forked, but there is
no daemon subprocess and no real socket unless stated — so they pin
the semantics (warm computed-table reuse, batch coalescing, CLI parity
via payload fingerprints, tenant accounting) without daemon-management
flakiness.  The daemon lifecycle (SIGKILL, resume, drain) lives in
``test_lifecycle.py``.
"""

import asyncio
import json

from repro.bdd.io import charfunction_payload, payload_fingerprint
from repro.cf.charfun import CharFunction
from repro.benchfns.registry import get_benchmark
from repro.parallel.journal import Journal
from repro.reduce import algorithm_3_3, reduce_support
from repro.service.protocol import Request
from repro.service.server import Service

BENCH = "3-5 RNS"  # small: builds in milliseconds, still non-trivial


def wr_request(rid: str, benchmark: str = BENCH, **extra) -> Request:
    return Request(id=rid, op="width_reduce", params={"benchmark": benchmark, **extra})


def run_service(coro_fn, **service_kwargs):
    """Run ``coro_fn(service)`` against a fresh listener-less daemon."""

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


class TestWarmShards:
    def test_second_identical_query_is_warmer(self):
        """The acceptance criterion: serving the same query twice from
        one warm shard shows a higher computed-table hit rate than the
        cold run — the manager and its computed tables persisted.
        The result cache is disabled here so the repeat actually
        reaches the engine (its zero-pass behaviour has its own test)."""

        async def scenario(service):
            first = await service.handle_request(wr_request("q1"))
            counters_cold = service.stats()["shards"]["rns"]["counters"]
            second = await service.handle_request(wr_request("q2"))
            counters_warm = service.stats()["shards"]["rns"]["counters"]
            return first, second, counters_cold, counters_warm

        first, second, cold, warm = run_service(
            scenario, result_cache_size=0
        )
        assert first["ok"] and second["ok"]
        assert first["result"]["fingerprint"] == second["result"]["fingerprint"]
        cold_lookups = cold["cache_hits"] + cold["cache_misses"]
        warm_hits = warm["cache_hits"] - cold["cache_hits"]
        warm_misses = warm["cache_misses"] - cold["cache_misses"]
        cold_rate = cold["cache_hits"] / cold_lookups
        warm_rate = warm_hits / (warm_hits + warm_misses)
        assert warm_rate > cold_rate + 0.2, (cold_rate, warm_rate)

    def test_shard_stats_in_v7_schema(self):
        async def scenario(service):
            await service.handle_request(wr_request("q1"))
            return service.stats()

        stats = run_service(scenario)
        assert stats["schema"] == "repro-bench-v11"
        assert stats["schema_version"] == 11
        assert set(stats["workers"]["processes"]) == {"rns"}
        cache = stats["result_cache"]
        assert set(cache) >= {"hits", "misses", "invalidations", "epoch"}
        shard = stats["shards"]["rns"]
        assert shard["queries"] == 1
        assert shard["cold_builds"] == 1
        for key in ("op_calls", "kernel_steps", "cache_hits", "cache_misses"):
            assert key in shard["counters"]

    def test_families_do_not_share_shards(self):
        async def scenario(service):
            await service.handle_request(wr_request("q1", "3-5 RNS"))
            await service.handle_request(
                Request(
                    id="q2",
                    op="width_reduce",
                    params={"benchmark": "2-digit 3-nary to binary"},
                )
            )
            return service.stats()["shards"]

        shards = run_service(scenario)
        assert set(shards) == {"rns", "pnary"}


class TestBatching:
    def test_concurrent_identical_queries_coalesce(self):
        async def scenario(service):
            reqs = [wr_request(f"q{i}") for i in range(4)]
            docs = await asyncio.gather(
                *(service.handle_request(r) for r in reqs)
            )
            return docs, service

        docs, service = run_service(lambda s: scenario(s))
        assert all(doc["ok"] for doc in docs)
        ids = {doc["id"] for doc in docs}
        assert ids == {"q0", "q1", "q2", "q3"}  # each waiter answered
        fingerprints = {doc["result"]["fingerprint"] for doc in docs}
        assert len(fingerprints) == 1
        assert any(doc["meta"]["batched"] for doc in docs)

    def test_batched_queries_run_engine_once(self):
        async def scenario(service):
            reqs = [wr_request(f"q{i}") for i in range(4)]
            await asyncio.gather(*(service.handle_request(r) for r in reqs))
            return service

        service = run_service(lambda s: scenario(s))
        assert service.queries_total == 4
        assert service.batched_total >= 1
        assert service.executed + service.batched_total == 4

    def test_different_params_do_not_coalesce(self):
        async def scenario(service):
            docs = await asyncio.gather(
                service.handle_request(wr_request("a", "3-5 RNS")),
                service.handle_request(wr_request("b", "3-7 RNS")),
            )
            return docs, service.executed

        docs, executed = run_service(lambda s: scenario(s))
        assert executed == 2
        fps = {doc["result"]["fingerprint"] for doc in docs}
        assert len(fps) == 2


class TestCliParity:
    def test_served_payload_matches_direct_pipeline(self):
        """A daemon-served CF payload fingerprint equals the one-shot
        in-process pipeline's (build → sift → reduce → Alg 3.3), i.e.
        warm serving changes performance, not results."""

        async def scenario(service):
            return await service.handle_request(
                wr_request("q1", BENCH, payload=True)
            )

        doc = run_service(scenario)
        assert doc["ok"]
        served = doc["result"]

        cf = CharFunction.from_isf(get_benchmark(BENCH).build())
        cf.sift(cost="auto")
        reduced, _removed = reduce_support(cf)
        reduced, _stats = algorithm_3_3(reduced)
        payload = charfunction_payload(reduced)
        assert served["fingerprint"] == payload_fingerprint(payload)
        assert served["payload"] == payload

    def test_payload_json_roundtrip(self):
        """Served payloads survive the wire (they are plain JSON)."""
        from repro.bdd.io import load_charfunction_payload

        async def scenario(service):
            return await service.handle_request(
                wr_request("q1", BENCH, payload=True)
            )

        doc = run_service(scenario)
        wire = json.loads(json.dumps(doc["result"]["payload"]))
        cf = load_charfunction_payload(wire)
        assert payload_fingerprint(charfunction_payload(cf)) == doc["result"][
            "fingerprint"
        ]


class TestStarvation:
    def test_cheap_queries_overtake_an_expensive_one(self):
        """Regression: with an expensive query queued first, later cheap
        queries are answered before it finishes — and the expensive one
        still completes (no starvation in either direction)."""
        order: list[str] = []

        async def scenario(service):
            # Stall the pump so all three queries are queued before the
            # worker picks anything (admission order != arrival order).
            big = wr_request("big", "5-7-11 RNS")
            small1 = wr_request("s1", "3-5 RNS")
            small2 = Request(
                id="s2", op="decompose",
                params={"benchmark": "3-5 RNS", "cut_height": 3},
            )

            async def tracked(req):
                doc = await service.handle_request(req)
                order.append(req.id)
                return doc

            docs = await asyncio.gather(
                tracked(big), tracked(small1), tracked(small2)
            )
            return docs

        docs = run_service(scenario)
        assert all(doc["ok"] for doc in docs)
        assert order[-1] == "big"  # expensive waited, cheap ones first
        assert set(order) == {"big", "s1", "s2"}  # ...but it completed


class TestBudgetsAndErrors:
    def test_request_budget_violation_is_an_error_response(self):
        async def scenario(service):
            return await service.handle_request(
                Request(
                    id="tiny",
                    op="width_reduce",
                    params={"benchmark": "5-7-11 RNS"},
                    budget={"max_steps": 10},
                )
            )

        doc = run_service(scenario)
        assert doc["ok"] is False
        assert doc["error"]["type"] in ("ResourceLimitError", "DeadlineError")

    def test_exhausted_tenant_denied_next_request(self):
        async def scenario_inner(service):
            first = await service.handle_request(
                Request(
                    id="q1", op="width_reduce",
                    params={"benchmark": BENCH}, tenant="t1",
                )
            )
            # The tenant's ledger records the steps q1 actually spent.
            admission = service.admission
            assert admission.tenant_steps["t1"] > 0
            # Simulate a long history: spend the rest of the ceiling.
            admission.tenant_steps["t1"] = admission.tenant_max_steps + 1
            second = await service.handle_request(
                Request(
                    id="q2", op="width_reduce",
                    params={"benchmark": "3-7 RNS"}, tenant="t1",
                )
            )
            # Another tenant is unaffected by t1's exhaustion.
            other = await service.handle_request(
                Request(
                    id="q3", op="width_reduce",
                    params={"benchmark": BENCH}, tenant="t2",
                )
            )
            return first, second, other

        async def main():
            service = Service(tenant_max_steps=10**9)
            pump = asyncio.ensure_future(service._pump())
            try:
                return await scenario_inner(service)
            finally:
                service._stopping = True
                service._work.set()
                await pump
                service.close()

        first, second, other = asyncio.run(main())
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["type"] == "ServiceError"
        assert "exhausted" in second["error"]["message"]
        assert other["ok"] is True

    def test_tenant_budget_interrupts_mid_flight(self):
        """A query that crosses its tenant's cumulative ceiling is cut
        off by the governor (and the manager stays usable — a later
        query for another tenant succeeds)."""

        async def main():
            service = Service(tenant_max_steps=100)
            pump = asyncio.ensure_future(service._pump())
            try:
                cut = await service.handle_request(
                    Request(
                        id="q1", op="width_reduce",
                        params={"benchmark": "5-7-11 RNS"}, tenant="starved",
                    )
                )
                healthy = await service.handle_request(
                    Request(
                        id="q2", op="width_reduce",
                        params={"benchmark": BENCH}, tenant="other",
                    )
                )
                return cut, healthy
            finally:
                service._stopping = True
                service._work.set()
                await pump
                service.close()

        cut, healthy = asyncio.run(main())
        assert cut["ok"] is False
        assert cut["error"]["type"] == "ResourceLimitError"
        # The daemon survived the mid-flight interruption and answered
        # the next request (which runs under its own 100-step ceiling,
        # so either outcome is legitimate — what matters is an answer).
        assert healthy["id"] == "q2"

    def test_failed_worker_query_charges_its_tenant(self):
        """A query the tenant's ceiling cuts off inside a worker still
        charges the steps it spent, to the tenant and to the daemon's
        totals, so the tenant's next request is refused up front."""
        from repro.bdd.stats import WORKER_TOTALS

        async def scenario(service):
            steps_before = WORKER_TOTALS.get("kernel_steps", 0)
            cut = await service.handle_request(
                Request(
                    id="q1", op="width_reduce",
                    params={"benchmark": "5-7-11 RNS"}, tenant="starved",
                )
            )
            merged = WORKER_TOTALS.get("kernel_steps", 0) - steps_before
            spent = service.admission.stats()["tenants"]["starved"]["steps"]
            refused = await service.handle_request(
                Request(
                    id="q2", op="width_reduce",
                    params={"benchmark": BENCH}, tenant="starved",
                )
            )
            return cut, spent, merged, refused

        cut, spent, merged, refused = run_service(
            scenario, workers=1, tenant_max_steps=100
        )
        assert cut["ok"] is False
        assert cut["error"]["type"] == "ResourceLimitError"
        assert spent >= 100
        assert merged == spent
        assert refused["ok"] is False
        assert refused["error"]["type"] == "ServiceError"
        assert "exhausted" in refused["error"]["message"]

    def test_engine_error_does_not_kill_the_pump(self):
        async def scenario(service):
            bad = await service.handle_request(
                wr_request("bad", "unknown benchmark")
            )
            good = await service.handle_request(wr_request("good"))
            return bad, good

        bad, good = run_service(scenario)
        assert bad["ok"] is False
        assert bad["error"]["type"] == "BenchmarkError"
        assert good["ok"] is True


class TestJournalIntegration:
    def test_attempts_and_results_journaled(self, tmp_path):
        jpath = tmp_path / "svc.journal"

        async def main():
            service = Service(journal_path=jpath)
            pump = asyncio.ensure_future(service._pump())
            try:
                return await service.handle_request(wr_request("q1"))
            finally:
                service._stopping = True
                service._work.set()
                await pump
                service.close()

        doc = asyncio.run(main())
        assert doc["ok"]
        journal = Journal(jpath, resume=True)
        try:
            assert journal.pending() == []
            results = journal.results()
            (key,) = results
            assert key == doc["meta"]["key"]
            assert results[key].result["fingerprint"] == doc["result"][
                "fingerprint"
            ]
        finally:
            journal.close()

    def test_budget_override_rides_the_journal(self, tmp_path):
        """A journaled request's budget override is part of its doc,
        so a replayed execution uses the same settings."""
        jpath = tmp_path / "svc.journal"

        async def main():
            service = Service(journal_path=jpath)
            try:
                service._enqueue(
                    Request(
                        id="q1",
                        op="width_reduce",
                        params={"benchmark": BENCH},
                        budget={"max_steps": 10**9},
                    )
                )
            finally:
                service.close()

        asyncio.run(main())
        journal = Journal(jpath, resume=True)
        try:
            (record,) = journal.pending()
            assert record["doc"]["budget"] == {"max_steps": 10**9}
            replayed = Request.from_doc(record["doc"])
            assert replayed.budget == {"max_steps": 10**9}
            assert replayed.key() == record["key"]
        finally:
            journal.close()


def post_query(content_length: str) -> tuple[str, dict]:
    """POST one ping line to a fresh daemon's HTTP listener with the
    given ``Content-Length`` header; returns (status line, body doc)."""

    async def main():
        service = Service(http_host="127.0.0.1", http_port=0)
        bound = asyncio.Event()
        server = asyncio.ensure_future(service.serve(ready=bound.set))
        await bound.wait()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.http_port
            )
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
                + f"Content-Length: {content_length}\r\n\r\n".encode()
                + b'{"id": "p", "op": "ping"}\n'
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            return raw
        finally:
            service._control(Request(id="bye", op="shutdown"))
            await server

    raw = asyncio.run(main())
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n")[0].decode()
    return status, json.loads(body) if body else {}


class TestHttpFraming:
    def test_negative_content_length_is_a_bad_request(self):
        status, doc = post_query("-5")
        assert status == "HTTP/1.1 400 Bad Request"
        assert doc["ok"] is False
        assert "Content-Length" in doc["error"]["message"]

    def test_non_numeric_content_length_is_a_bad_request(self):
        status, doc = post_query("twelve")
        assert status == "HTTP/1.1 400 Bad Request"
        assert doc["ok"] is False
        assert "Content-Length" in doc["error"]["message"]
