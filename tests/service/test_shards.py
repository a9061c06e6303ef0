"""Shard node-pressure housekeeping, LRU eviction, snapshots, and the
worker request handler.

Pins the eviction contract the multi-process service leans on: under
``max_alive`` pressure a shard drops cold CFs first (LRU order) and
keeps hot ones warm.  Also covers the RBCF snapshot integration — a
shard with a ``snapshot_dir`` persists freshly built CFs and warms
later cold starts from disk instead of re-running build+sift — and
:meth:`Shard.handle`, which answers every request of a shard worker
process: one counter window per query, budgets as answers, and
housekeeping after every query.
"""

import asyncio

import pytest

from repro.bdd import stats
from repro.service.shards import Shard, family_of

HOT = "3-5 RNS"
COLD = "3-7 RNS"
#: The ``service-mix`` pool of the end-to-end benchmark.
SERVICE_POOL = (
    "3-11 RNS", "5-13 RNS", "7-13 RNS", "11-13 RNS", "3-5-7 RNS", "3-5-13 RNS",
    "3-digit 3-nary to binary", "3-digit 5-nary to binary",
    "3-digit 6-nary to binary", "3-digit 7-nary to binary",
    "4-digit 3-nary to binary", "5-digit 3-nary to binary",
)


def hot_cold_shard():
    """A shard holding COLD (older) and HOT (recently touched) CFs."""
    shard = Shard("rns")
    shard.base_cf(COLD)
    shard.base_cf(HOT)
    shard.base_cf(COLD)  # touch: LRU order is now [HOT, COLD]
    shard.base_cf(HOT)  # ...and back: [COLD, HOT]
    return shard


def key_of(benchmark):
    return f"{benchmark}|sift=True"


def request(benchmark, **over):
    """A worker request document for a ``width_reduce`` query."""
    return {
        "op": "width_reduce",
        "params": {"benchmark": benchmark},
        "budget": None,
        "tenant_remaining": None,
        **over,
    }


class TestEvictionOrder:
    def test_under_ceiling_nothing_is_evicted(self):
        shard = hot_cold_shard()
        shard.housekeep(shard.alive_nodes() + 1)
        assert set(shard.cfs) == {key_of(HOT), key_of(COLD)}
        assert shard.evicted_cfs == 0

    def test_cold_cf_evicted_first_hot_kept_warm(self):
        shard = hot_cold_shard()
        # Collect scratch first so the ceiling test below exercises the
        # eviction pass, not the scratch-collection pass.
        for cf in shard.cfs.values():
            cf.bdd.collect([cf.root])
        total = shard.alive_nodes()
        shard.housekeep(total - 1)
        assert key_of(HOT) in shard.cfs, "recently used CF must stay warm"
        assert key_of(COLD) not in shard.cfs, "coldest CF is dropped first"
        assert shard.evicted_cfs == 1

    def test_warm_hit_refreshes_recency(self):
        shard = Shard("rns")
        shard.base_cf(HOT)
        shard.base_cf(COLD)
        # Without the re-touch HOT would be oldest; the hit saves it.
        shard.base_cf(HOT)
        for cf in shard.cfs.values():
            cf.bdd.collect([cf.root])
        shard.housekeep(shard.alive_nodes() - 1)
        assert key_of(HOT) in shard.cfs
        assert key_of(COLD) not in shard.cfs

    def test_eviction_cold_starts_the_next_query(self):
        shard = hot_cold_shard()
        builds_before = shard.cold_builds
        shard.housekeep(0)  # evict everything
        assert shard.cfs == {}
        shard.base_cf(COLD)
        assert shard.cold_builds == builds_before + 1

    def test_housekeep_after_execute_evicts_every_cf(self):
        # Housekeeping runs once a query has returned; nothing it built
        # is held back.
        shard = Shard("rns")
        shard.execute("width_reduce", {"benchmark": HOT})
        shard.housekeep(0)
        assert shard.cfs == {}


class TestSnapshots:
    def test_cold_build_persists_and_reloads(self, tmp_path):
        first = Shard("rns", snapshot_dir=tmp_path)
        r1 = first.execute("width_reduce", {"benchmark": HOT})
        assert first.cold_builds == 1
        assert first.snapshot_writes == 1
        assert list(tmp_path.glob("rns-*.rbcf"))
        # A fresh shard (think: rebuilt worker process) warms from disk.
        second = Shard("rns", snapshot_dir=tmp_path)
        r2 = second.execute("width_reduce", {"benchmark": HOT})
        assert second.cold_builds == 0
        assert second.snapshot_loads == 1
        # The loaded CF numbers its nodes differently from the built
        # one, and the reply does not depend on that.
        assert r2 == r1
        # Snapshot loads themselves are deterministic.
        third = Shard("rns", snapshot_dir=tmp_path)
        assert third.execute("width_reduce", {"benchmark": HOT}) == r2

    @pytest.mark.parametrize("name", (HOT,) + SERVICE_POOL)
    def test_snapshot_load_answers_like_the_cold_build(self, tmp_path, name):
        """A shard that loads its base CF from the RBCF snapshot another
        shard wrote (a restarted worker) gives the same ``width_reduce``
        reply, fingerprint included, as the shard that built it."""
        params = {"benchmark": name}
        family = family_of("width_reduce", params)
        cold = Shard(family, snapshot_dir=tmp_path)
        built = cold.execute("width_reduce", params)
        restarted = Shard(family, snapshot_dir=tmp_path)
        loaded = restarted.execute("width_reduce", params)
        assert (cold.cold_builds, restarted.snapshot_loads) == (1, 1)
        assert loaded == built
        if name == HOT:
            assert built["fingerprint"] == "b493bf68338519c6e96a6a48b534e9a7"

    def test_corrupt_snapshot_falls_back_to_build(self, tmp_path):
        first = Shard("rns", snapshot_dir=tmp_path)
        first.base_cf(HOT)
        (path,) = tmp_path.glob("rns-*.rbcf")
        path.write_bytes(b"garbage")
        second = Shard("rns", snapshot_dir=tmp_path)
        second.base_cf(HOT)
        assert second.snapshot_loads == 0
        assert second.cold_builds == 1

    def test_corrupt_snapshot_concurrent_queries_build_once(self, tmp_path):
        """A truncated RBCF under concurrent load: both simultaneous
        queries answer correctly via the cold-build repair path, and
        batch coalescing keeps it to a *single* rebuild."""
        from repro.service.protocol import Request
        from repro.service.server import Service

        seed = Shard("rns", snapshot_dir=tmp_path)
        seed.base_cf(HOT)
        (path,) = tmp_path.glob("rns-*.rbcf")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        async def main():
            service = Service(snapshot_dir=tmp_path, result_cache_size=0)
            pump = asyncio.ensure_future(service._pump())
            try:
                reqs = [
                    Request(
                        id=f"q{i}",
                        op="width_reduce",
                        params={"benchmark": HOT},
                    )
                    for i in range(2)
                ]
                docs = await asyncio.gather(
                    *(service.handle_request(r) for r in reqs)
                )
                return docs, service.stats()["shards"]["rns"]
            finally:
                service._stopping = True
                service._work.set()
                await pump
                service.close()

        docs, shard = asyncio.run(main())
        assert all(doc["ok"] for doc in docs)
        fps = {doc["result"]["fingerprint"] for doc in docs}
        assert len(fps) == 1
        assert shard["snapshot_loads"] == 0, "truncated snapshot must miss"
        assert shard["cold_builds"] == 1, "coalescing prevents a double build"

    def test_no_snapshot_dir_means_no_files(self, tmp_path):
        shard = Shard("rns")
        shard.base_cf(HOT)
        assert shard.snapshot_writes == 0
        assert list(tmp_path.iterdir()) == []

    def test_handle_reply_shows_the_snapshot_write(self, tmp_path):
        shard = Shard("rns", snapshot_dir=tmp_path)
        reply = shard.handle(request(HOT))
        assert reply["ok"]
        assert reply["shard"]["snapshot_writes"] == 1
        assert reply["shard"] == shard.stats()


class TestHandle:
    def test_counters_are_the_sum_of_the_reply_deltas(self):
        """One counter window per query: what the shard accumulates is
        exactly what its replies ship to the daemon."""
        shard = Shard("rns")
        replies = [shard.handle(request(name)) for name in (HOT, COLD, HOT)]
        assert all(reply["ok"] for reply in replies)
        total: dict = {}
        for reply in replies:
            stats.merge_additive(total, reply["stats_delta"])
        assert total["kernel_steps"] > 0
        assert shard.counters == total
        assert replies[-1]["shard"]["counters"] == total
        assert shard.queries == 3

    def test_step_budget_is_an_answer_and_the_shard_is_housekept(self):
        shard = Shard("rns", max_alive=1)
        shard.base_cf(HOT)
        reply = shard.handle(request("5-7-11 RNS", budget={"max_steps": 1}))
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ResourceLimitError"
        # Housekeeping ran after the failed query: the warm CF is over
        # the 1-node ceiling and was evicted.
        assert shard.cfs == {}
        assert shard.evicted_cfs == 1
        assert reply["shard"]["cached_cfs"] == 0
        assert reply["stats_delta"]["kernel_steps"] > 0


class TestFamilyRouting:
    @pytest.mark.parametrize(
        "op,params,family",
        [
            ("width_reduce", {"benchmark": "3-5 RNS"}, "rns"),
            ("width_reduce", {"benchmark": "2-digit 3-nary to binary"}, "pnary"),
            ("width_reduce", {"benchmark": "2-digit decimal adder"}, "decimal"),
            ("cascade", {"benchmark": "40 words"}, "wordlist"),
            ("pla_reduce", {"pla": ".i 1\n"}, "pla"),
            ("width_reduce", {"benchmark": "mystery"}, "misc"),
        ],
    )
    def test_family_of(self, op, params, family):
        assert family_of(op, params) == family
