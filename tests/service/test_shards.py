"""Shard node-pressure housekeeping, LRU eviction, snapshots, and the
worker request handler.

Pins the eviction contract the multi-process service leans on: under
``max_alive`` pressure a shard drops cold CFs first (LRU order) and
keeps hot ones warm.  Also covers the RBCF snapshot integration — a
shard with a ``snapshot_dir`` persists freshly built CFs and warms
later cold starts from disk instead of re-running build+sift —,
:meth:`Shard.handle`, which answers every request of a shard worker
process: one counter window per query, budgets as answers, and
housekeeping after every query, and warm ``cascade`` queries, whose
sifted output-partition CFs share the base CFs' cache.
"""

import asyncio
import dataclasses

import pytest

from repro.bdd import reorder, stats
from repro.bdd.io import charfunction_payload, payload_fingerprint
from repro.benchfns.registry import get_benchmark
from repro.cf.charfun import CharFunction
from repro.experiments.table5 import design
from repro.service import shards
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


#: ``(benchmark, reduce, cell limits)`` of the warm-cascade cases; the
#: 5-input cells make ``synthesize_forest`` bisect (more than 2 parts).
CASCADES = [
    (name, reduce, {})
    for name in ("3-5-7 RNS", "3-digit 5-nary to binary", "2-digit decimal adder")
    for reduce in (False, True)
] + [
    ("3-digit 5-nary to binary", True, {"max_cell_inputs": 5}),
    ("2-digit decimal adder", False, {"max_cell_inputs": 5}),
]
COST_FIELDS = (
    "cells", "lut_outputs", "cascades", "redundant_vars",
    "lut_memory_bits", "aux_memory_bits",
)


def cascade_params(name, reduce, limits):
    return {"benchmark": name, "reduce": reduce, **limits}


def partition_keys(shard):
    return [key for key in shard.cfs if "|outputs=" in key]


def count_engine_builds(monkeypatch):
    """Count ``Benchmark.build``, ``CharFunction.from_isf`` and
    ``reorder.sift`` calls from here on."""
    calls = {"build": 0, "from_isf": 0, "sift": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_benchmark(name):
        bench = get_benchmark(name)
        return dataclasses.replace(bench, build=counted("build", bench.build))

    monkeypatch.setattr(shards, "get_benchmark", counted_benchmark)
    monkeypatch.setattr(
        CharFunction, "from_isf", staticmethod(counted("from_isf", CharFunction.from_isf))
    )
    monkeypatch.setattr(reorder, "sift", counted("sift", reorder.sift))
    return calls


@pytest.mark.parametrize("name,reduce,limits", CASCADES)
class TestWarmCascade:
    """A shard keeps each sifted output partition warm, so a repeated
    ``cascade`` runs only support reduction, Alg. 3.3 and synthesis,
    and answers exactly what :func:`table5.design` gives cold."""

    def test_cold_reply_is_the_table5_design(self, name, reduce, limits):
        shard = Shard(family_of("cascade", {"benchmark": name}))
        reply = shard.execute("cascade", cascade_params(name, reduce, limits))
        cost, _realization, forest = design(
            get_benchmark(name).build(), reduce=reduce, **limits
        )
        assert {f: reply[f] for f in COST_FIELDS} == {
            f: getattr(cost, f) for f in COST_FIELDS
        }
        assert reply["parts"] == len(forest)
        if limits:
            assert reply["parts"] > 2, "the cell limit must make the forest bisect"
        assert shard.cold_builds == len(partition_keys(shard)) >= reply["parts"]

    def test_warm_repeat_builds_and_sifts_nothing(self, name, reduce, limits, monkeypatch):
        calls = count_engine_builds(monkeypatch)
        params = cascade_params(name, reduce, limits)
        shard = Shard(family_of("cascade", params))
        cold = shard.execute("cascade", params)
        partitions = len(partition_keys(shard))
        # A cold request builds the ISF once, whatever its partitions.
        assert calls == {"build": 1, "from_isf": partitions, "sift": partitions}
        builds = shard.cold_builds
        calls.update(build=0, from_isf=0, sift=0)
        assert shard.execute("cascade", params) == cold
        assert shard.cold_builds == builds
        assert shard.warm_hits == partitions
        assert calls == {"build": 0, "from_isf": 0, "sift": 0}

    def test_snapshot_reload_answers_identically(self, name, reduce, limits, tmp_path):
        params = cascade_params(name, reduce, limits)
        family = family_of("cascade", params)
        cold_shard = Shard(family, snapshot_dir=tmp_path)
        cold = cold_shard.execute("cascade", params)
        partitions = len(partition_keys(cold_shard))
        assert cold_shard.snapshot_writes == partitions
        restarted = Shard(family, snapshot_dir=tmp_path)
        assert restarted.execute("cascade", params) == cold
        assert restarted.snapshot_loads == partitions
        assert restarted.cold_builds == 0

    def test_eviction_then_answer(self, name, reduce, limits):
        params = cascade_params(name, reduce, limits)
        shard = Shard(family_of("cascade", params))
        cold = shard.execute("cascade", params)
        shard.housekeep(max_alive=1)
        assert shard.cfs == {}
        assert shard.execute("cascade", params) == cold

    def test_width_reduce_between_cascades(self, name, reduce, limits):
        params = cascade_params(name, reduce, limits)
        family = family_of("cascade", params)
        shard = Shard(family)
        before = shard.execute("cascade", params)
        between = shard.execute("width_reduce", {"benchmark": name})
        assert shard.execute("cascade", params) == before
        assert between == Shard(family).execute("width_reduce", {"benchmark": name})


ADDER = "2-digit decimal adder"
#: Cache key of the adder's first output half.
FIRST = f"{ADDER}|outputs=0,1,2,3,4,5|sift=True"


class TestBudgetedCascade:
    """A budget stop inside a partition sift is the request's error
    answer: the design never goes on from a partly sifted CF, and no
    partly sifted CF is cached."""

    def request(self, budget):
        return {
            "op": "cascade",
            "params": {"benchmark": ADDER, "reduce": False},
            "budget": budget,
            "tenant_remaining": None,
        }

    @pytest.mark.parametrize(
        "max_steps,finished",
        # 7,700 steps run out in the first half's sift; 8,400 in the
        # second half's, where going on from the partly sifted half
        # would answer 19 LUT outputs and 46,336 bits.
        [(7700, []), (8400, [FIRST])],
    )
    def test_budget_stop_in_a_partition_sift_is_an_error(
        self, max_steps, finished, monkeypatch
    ):
        sift_errors = []

        def watched_sift(*args, _sift=reorder.sift, **kwargs):
            try:
                return _sift(*args, **kwargs)
            except Exception as exc:
                sift_errors.append(type(exc).__name__)
                raise

        monkeypatch.setattr(reorder, "sift", watched_sift)
        shard = Shard("decimal")
        reply = shard.handle(self.request({"max_steps": max_steps}))
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ResourceLimitError"
        assert sift_errors == ["ResourceLimitError"]

        cold_shard = Shard("decimal")
        cold = cold_shard.handle(self.request(None))
        assert cold["ok"]
        assert (cold["result"]["lut_outputs"], cold["result"]["lut_memory_bits"]) == (20, 50944)
        # The half whose sift was cut is not cached; a half finished
        # before it is the one an unbudgeted request caches.
        assert partition_keys(shard) == finished
        for key in finished:
            assert payload_fingerprint(charfunction_payload(shard.cfs[key])) == (
                payload_fingerprint(charfunction_payload(cold_shard.cfs[key]))
            )
        # The next request without a budget is the cold answer.
        assert shard.handle(self.request(None))["result"] == cold["result"]


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
