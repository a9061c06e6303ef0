"""Shard node-pressure housekeeping, LRU eviction, and snapshots.

Pins the eviction contract the multi-process service leans on: under
``max_alive`` pressure a shard drops cold CFs first (LRU order), keeps
hot ones warm, and never evicts a CF pinned by an in-flight query.
Also covers the RBCF snapshot integration — a shard with a
``snapshot_dir`` persists freshly built CFs and warms later cold
starts from disk instead of re-running build+sift.
"""

import asyncio

import pytest

from repro.service.shards import (
    DEFAULT_MAX_ALIVE,
    Shard,
    ShardPool,
    default_max_alive,
    family_of,
)

HOT = "3-5 RNS"
COLD = "3-7 RNS"


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
        shard.housekeep(0)  # evict everything (nothing pinned)
        assert shard.cfs == {}
        shard.base_cf(COLD)
        assert shard.cold_builds == builds_before + 1


class TestPinning:
    def test_pinned_cf_is_never_evicted(self):
        shard = hot_cold_shard()
        shard._pins[key_of(COLD)] = 1  # an in-flight query holds it
        shard.housekeep(0)
        assert key_of(COLD) in shard.cfs, "pinned CF survived"
        assert key_of(HOT) not in shard.cfs, "unpinned CF was evicted"

    def test_execute_pins_only_for_its_duration(self):
        shard = Shard("rns")
        shard.execute("width_reduce", {"benchmark": HOT})
        # After execute returns no pins linger, so housekeeping can
        # evict freely between queries.
        assert shard._pins == {}
        shard.housekeep(0)
        assert shard.cfs == {}

    def test_in_flight_query_base_cf_survives_housekeep(self):
        """The race the pin exists for: housekeeping fired *during* a
        query (here simulated from inside the op via a hooked build)
        must not evict the CF that query is traversing."""
        shard = Shard("rns")
        shard.base_cf(COLD)
        seen = {}
        original = shard._width_reduce

        def hooked(params):
            result = original(params)  # builds and pins HOT
            # Mid-query (before execute unpins), memory pressure strikes:
            shard.housekeep(0)
            seen["cold_evicted"] = key_of(COLD) not in shard.cfs
            seen["mine_kept"] = key_of(HOT) in shard.cfs
            return result

        shard._width_reduce = hooked
        result = shard.execute("width_reduce", {"benchmark": HOT})
        assert result["benchmark"] == HOT
        assert seen["cold_evicted"], "idle CF was evictable"
        assert seen["mine_kept"], "the executing query's CF was pinned"


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
        # Width results are identical; the exact merged BDD may differ
        # by algorithm 3.3's node-enumeration order (the snapshot path
        # matches the JSON payload path, not the in-memory builder).
        assert r1["max_width_before"] == r2["max_width_before"]
        assert r1["max_width_after"] == r2["max_width_after"]
        assert r1["removed_inputs"] == r2["removed_inputs"]
        # Snapshot loads themselves are deterministic.
        third = Shard("rns", snapshot_dir=tmp_path)
        r3 = third.execute("width_reduce", {"benchmark": HOT})
        assert r2["fingerprint"] == r3["fingerprint"]

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

    def test_pool_threads_snapshot_dir_through(self, tmp_path):
        pool = ShardPool(snapshot_dir=tmp_path)
        pool.execute("width_reduce", {"benchmark": HOT})
        assert pool.get("rns").snapshot_writes == 1


class TestMaxAliveEnv:
    """``REPRO_MAX_ALIVE`` sizes the housekeeping ceiling (PR 9 S1)."""

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_ALIVE", raising=False)
        assert default_max_alive() == DEFAULT_MAX_ALIVE
        assert ShardPool().max_alive == DEFAULT_MAX_ALIVE

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ALIVE", "12345")
        assert default_max_alive() == 12345
        assert ShardPool().max_alive == 12345

    def test_explicit_ceiling_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ALIVE", "12345")
        assert ShardPool(max_alive=7).max_alive == 7

    def test_malformed_or_zero_env_is_safe(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ALIVE", "not-a-number")
        assert default_max_alive() == DEFAULT_MAX_ALIVE
        # lo=1 clamp: 0 would make housekeep evict everything always.
        monkeypatch.setenv("REPRO_MAX_ALIVE", "0")
        assert default_max_alive() == 1

    def test_housekeep_reads_env_at_call_time(self, monkeypatch):
        shard = hot_cold_shard()
        monkeypatch.setenv("REPRO_MAX_ALIVE", "1")
        shard.housekeep()  # no explicit ceiling -> env governs
        assert shard.cfs == {}


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
