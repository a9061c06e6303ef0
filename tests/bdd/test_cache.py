"""Correctness of the tiered operation caches under reorder and GC.

The engine never clears its computed tables wholesale: an adjacent
swap bumps the reorder epoch (node ids keep denoting the same
function, so kernel-tier entries survive), and freeing a node bumps
its generation counter so any cache entry referencing the recycled id
reads as stale.  These tests pin exactly those invalidation rules —
the regressions they guard against are silent wrong results, not
crashes — plus the differential property that the iterative kernel
computes the same node ids as the recursive reference engine.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, check, from_truth_table, set_order
from repro.bdd import reference
from repro.bdd.builder import from_cube

from tests.conftest import brute_force_truth

N_VARS = 4
TABLE = st.lists(st.integers(0, 1), min_size=1 << N_VARS, max_size=1 << N_VARS)


def build(table):
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
    return bdd, vids, from_truth_table(bdd, vids, table)


class TestReorderInvalidation:
    def test_swap_does_not_clear_kernel_tiers(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(6)])
        f = from_truth_table(bdd, vids[:3], [0, 1, 1, 0, 1, 0, 0, 1])
        g = from_truth_table(bdd, vids[3:], [1, 0, 0, 1, 0, 1, 1, 0])
        h = bdd.apply_and(f, g)
        and_tier = bdd.cache_stats()["tiers"]["and"]
        assert and_tier["size"] > 0
        # Swapping two levels disjoint from the cached operands must
        # keep the entries (the seed engine cleared everything here).
        order = bdd.order()
        order[0], order[1] = order[1], order[0]
        set_order(bdd, [f, g, h], order)
        assert bdd.cache_stats()["tiers"]["and"]["size"] > 0
        hits_before = bdd.cache_stats()["tiers"]["and"]["hits"]
        assert bdd.apply_and(f, g) == h
        assert bdd.cache_stats()["tiers"]["and"]["hits"] == hits_before + 1

    @settings(max_examples=40, deadline=None)
    @given(TABLE, TABLE, st.permutations(list(range(N_VARS))))
    def test_results_correct_after_reorder(self, ta, tb, perm):
        # Populate the caches, reorder, and re-ask every op: answers
        # must match a fresh manager that never cached anything.
        bdd, vids, f = build(ta)
        g = from_truth_table(bdd, vids, tb)
        before = [
            bdd.apply_and(f, g),
            bdd.apply_or(f, g),
            bdd.apply_xor(f, g),
            bdd.apply_not(f),
        ]
        truths = [brute_force_truth(bdd, r, vids) for r in before]
        set_order(bdd, [f, g, *before], [f"x{i}" for i in perm])
        after = [
            bdd.apply_and(f, g),
            bdd.apply_or(f, g),
            bdd.apply_xor(f, g),
            bdd.apply_not(f),
        ]
        assert after == before  # ids still denote the same functions
        assert [brute_force_truth(bdd, r, vids) for r in after] == truths

    @settings(max_examples=25, deadline=None)
    @given(TABLE, TABLE)
    def test_order_sensitive_tiers_die_on_reorder(self, ta, tb):
        # Totality/compatibility answers depend on the variable order
        # via the quantification sweep; their tiers are epoch-tagged.
        from repro.isf.compat import compatible_columns, ordered_total

        bdd = BDD()
        x = bdd.add_vars(["x0", "x1"], kind="input")
        y = bdd.add_vars(["y0", "y1"], kind="output")
        vids = x + y
        f = from_truth_table(bdd, vids, ta)
        g = from_truth_table(bdd, vids, tb)
        tot_f = ordered_total(bdd, f)
        compat = compatible_columns(bdd, f, g)
        # Move the outputs above the inputs and re-ask: the memo must
        # not serve the old-order verdicts blindly.
        set_order(bdd, [f, g], ["y0", "y1", "x0", "x1"])
        truth_f = brute_force_truth(bdd, f, vids)
        truth_g = brute_force_truth(bdd, g, vids)
        assert ordered_total(bdd, f) == _tot_by_table(truth_f)
        assert compatible_columns(bdd, f, g) == _tot_by_table(
            [a & b for a, b in zip(truth_f, truth_g)]
        )
        # The pre-reorder answers were for the x-above-y order.
        assert tot_f == _forall_exists(truth_f)
        assert compat == _forall_exists([a & b for a, b in zip(truth_f, truth_g)])


def _forall_exists(table):
    # x0 x1 y0 y1 (MSB first): total iff every x-block has a 1.
    return all(any(table[x * 4 + y] for y in range(4)) for x in range(4))


def _tot_by_table(table):
    # After moving y0 y1 to the top the sweep order quantifies the
    # outputs first: ∃y ∀x under the new order's MSB-first layout
    # y0 y1 x0 x1 — i.e. some y-block is all-ones.
    return any(all(table[x * 4 + y] for x in range(4)) for y in range(4))


class TestCollectInvalidation:
    def test_recycled_ids_do_not_serve_stale_entries(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
        f = from_truth_table(bdd, vids, [0, 1] * 8)
        g = from_truth_table(bdd, vids, [0, 1, 1, 0] * 4)
        h = bdd.apply_and(f, g)
        truth_f = brute_force_truth(bdd, f, vids)
        # Sweep everything except f; g's and h's ids go back on the
        # free list and will be recycled by the next constructions.
        bdd.collect([f])
        # Build new functions until some recycle the freed ids, then
        # re-run the same op shapes: entries keyed on the old ids must
        # not answer for the new occupants.
        for seed in range(8):
            table = [(seed >> (i % 3)) & 1 for i in range(1 << N_VARS)]
            p = from_truth_table(bdd, vids, table)
            q = bdd.apply_and(f, p)
            assert brute_force_truth(bdd, q, vids) == [
                a & b for a, b in zip(truth_f, table)
            ]
        bdd.check_invariants([f])

    def test_collect_keeps_surviving_entries(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
        f = from_truth_table(bdd, vids, [0, 1] * 8)
        g = from_truth_table(bdd, vids, [1, 1, 0, 0] * 4)
        h = bdd.apply_and(f, g)
        stats = bdd.cache_stats()["tiers"]["and"]
        size_before = stats["size"]
        assert size_before > 0
        bdd.collect([f, g, h])  # everything cached is still alive
        kept = bdd.cache_stats()["tiers"]["and"]
        assert kept["size"] == size_before
        hits_before = kept["hits"]
        assert bdd.apply_and(f, g) == h
        assert bdd.cache_stats()["tiers"]["and"]["hits"] == hits_before + 1

    def test_purge_drops_only_stale_entries(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(2 * N_VARS)])
        f = from_truth_table(bdd, vids[:N_VARS], [0, 1, 1, 0] * 4)
        g = from_truth_table(bdd, vids[:N_VARS], [1, 1, 0, 1] * 4)
        h = bdd.apply_and(f, g)
        p = from_truth_table(bdd, vids[N_VARS:], [0, 1, 1, 1] * 4)
        q = from_truth_table(bdd, vids[N_VARS:], [1, 0, 1, 1] * 4)
        bdd.apply_and(p, q)
        before = bdd.cache_stats()["tiers"]["and"]
        bdd.collect([f, g, h])  # p, q and their conjunction die
        after = bdd.cache_stats()["tiers"]["and"]
        dropped = after["invalidations"] - before["invalidations"]
        assert dropped > 0
        assert after["size"] == before["size"] - dropped
        assert bdd.apply_and(f, g) == h  # the survivor still hits
        assert bdd.cache_stats()["tiers"]["and"]["hits"] == after["hits"] + 1

    def test_purge_and_audit_cover_every_kernel_tier(self):
        # Every kernel tier stores packed keys; its validator must read
        # them, or collect() would keep stale entries (or drop live
        # ones) and the coherence audit would crash on the key.
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
        f = from_truth_table(bdd, vids, [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0])
        g = from_truth_table(bdd, vids, [1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0])
        h = from_truth_table(bdd, vids, [0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1])
        results = [
            bdd.apply_and(f, g),
            bdd.apply_or(f, g),
            bdd.apply_xor(f, g),
            bdd.apply_not(f),
            bdd.ite(f, g, h),
            bdd.cofactor(f, vids[2], 1),
            bdd.compose(f, vids[1], g),
        ]
        tiers = {t.name: t for t in bdd.iter_cache_tiers()}
        assert list(tiers) == ["and", "or", "xor", "not", "ite", "cofactor"]
        for name, tier in tiers.items():
            assert tier.data, f"{name} tier stayed empty"
        roots = [f, g, h, *results]
        assert check.check_manager(bdd, roots) == []
        bdd.collect([f, g])  # h and every result may die
        gen = bdd._gen
        for tier in tiers.values():
            for key, value in tier.data.items():
                assert tier.validator(key, value, gen, bdd._epoch), tier.name
        assert check.check_manager(bdd, [f, g]) == []
        assert bdd.apply_and(f, g) == reference.ref_apply_and(bdd, f, g)


class TestKernelMatchesReference:
    @settings(max_examples=50, deadline=None)
    @given(TABLE, TABLE, TABLE)
    def test_ops_agree_with_recursive_reference(self, ta, tb, tc):
        # Same manager, so canonicity makes agreement an id equality.
        bdd, vids, f = build(ta)
        g = from_truth_table(bdd, vids, tb)
        h = from_truth_table(bdd, vids, tc)
        assert bdd.apply_and(f, g) == reference.ref_apply_and(bdd, f, g)
        assert bdd.apply_or(f, g) == reference.ref_apply_or(bdd, f, g)
        assert bdd.apply_xor(f, g) == reference.ref_apply_xor(bdd, f, g)
        assert bdd.apply_not(f) == reference.ref_apply_not(bdd, f)
        assert bdd.ite(f, g, h) == reference.ref_ite(bdd, f, g, h)
        assert bdd.cofactor(f, vids[1], 1) == reference.ref_cofactor(
            bdd, f, vids[1], 1
        )
        for v in vids:
            assert bdd.compose(f, v, g) == reference.ref_compose(bdd, f, v, g)


class TestCacheBookkeeping:
    def test_stale_stamp_reads_as_miss(self):
        bdd, vids, f = build([0, 1, 1, 0] * 4)
        g = from_truth_table(bdd, vids, [1, 1, 0, 1] * 4)
        h = bdd.apply_and(f, g)
        for node in (g, h):  # an operand's stamp, then the result's
            before = bdd.cache_stats()["tiers"]["and"]
            bdd._gen[node] += 1  # as if the id had been recycled
            assert bdd.apply_and(f, g) == h
            after = bdd.cache_stats()["tiers"]["and"]
            assert after["misses"] > before["misses"]
            # The recomputation re-stamped the entry: it serves again.
            assert bdd.apply_and(f, g) == h
            again = bdd.cache_stats()["tiers"]["and"]
            assert again["misses"] == after["misses"]
            assert again["hits"] == after["hits"] + 1

    def test_eviction_keeps_table_bounded(self):
        bdd = BDD(cache_capacity=16)
        vids = bdd.add_vars([f"x{i}" for i in range(8)])
        # Many distinct conjunctions of independent literal pairs: each
        # is a fresh cache key, forcing eviction batches.
        import itertools

        for i, j in itertools.combinations(range(8), 2):
            bdd.apply_and(bdd.var(vids[i]), bdd.var(vids[j]))
            bdd.apply_and(bdd.nvar(vids[i]), bdd.var(vids[j]))
        tier = bdd.cache_stats()["tiers"]["and"]
        assert tier["evictions"] > 0
        assert tier["size"] <= 16
        assert tier["inserts"] == tier["misses"]

    def test_cache_stats_shape(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b"])
        bdd.apply_and(bdd.var(vids[0]), bdd.var(vids[1]))
        st_ = bdd.cache_stats()
        assert set(st_) == {
            "tiers",
            "totals",
            "epoch",
            "op_calls",
            "kernel_steps",
            "alive_nodes",
            "peak_nodes",
        }
        for name in ("and", "or", "xor", "not", "ite"):
            assert name in st_["tiers"]
        for tier in st_["tiers"].values():
            assert set(tier) == {
                "size",
                "capacity",
                "hits",
                "misses",
                "inserts",
                "evictions",
                "invalidations",
                "hit_rate",
            }
        totals = st_["totals"]
        assert totals["hits"] + totals["misses"] > 0
        assert 0.0 <= totals["hit_rate"] <= 1.0
        assert st_["op_calls"] >= 1
        assert st_["peak_nodes"] >= st_["alive_nodes"]

    def test_clear_cache_counts_invalidations(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b", "c"])
        bdd.apply_or(bdd.var(vids[0]), bdd.var(vids[1]))
        size = bdd.cache_stats()["tiers"]["or"]["size"]
        assert size > 0
        bdd.clear_cache()
        tier = bdd.cache_stats()["tiers"]["or"]
        assert tier["size"] == 0
        assert tier["invalidations"] >= size


class TestTierRetention:
    """A tier below its capacity must remember what it was given.

    Each case runs a batch of distinct top-level operations twice.  The
    second pass must resolve every call at its top-level probe, so the
    tier's miss count does not rise; nothing is evicted; and the tier
    holds at least one entry per call.  A computed table whose slot
    index read only a few bits of each operand once failed all three,
    far below its capacity.
    """

    @staticmethod
    def _twice(bdd, tier_name, calls):
        first = [call() for call in calls]
        before = bdd.cache_stats()["tiers"][tier_name]
        second = [call() for call in calls]
        after = bdd.cache_stats()["tiers"][tier_name]
        assert second == first
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == len(calls)
        assert after["evictions"] == 0
        assert after["size"] >= len(calls)

    def test_cofactors_of_many_nodes_over_one_variable(self):
        rng = random.Random(19)
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(9)])
        nodes = set()
        while len(nodes) < 252:
            table = [rng.randint(0, 1) for _ in range(1 << 9)]
            f = from_truth_table(bdd, vids, table)
            if f > 1 and bdd.var_of(f) == vids[0]:
                nodes.add(f)
        calls = [
            (lambda f=f, bit=bit: bdd.cofactor(f, vids[0], bit))
            for f in sorted(nodes)
            for bit in (0, 1)
        ]
        self._twice(bdd, "cofactor", calls)

    def test_or_of_many_small_cube_pairs(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(8)])

        def cubes(block):
            out = []
            for lits in itertools.product((None, 0, 1), repeat=4):
                cube = {v: b for v, b in zip(block, lits) if b is not None}
                if cube:
                    out.append(from_cube(bdd, cube))
            return out[:60]

        left, right = cubes(vids[:4]), cubes(vids[4:])
        calls = [
            (lambda a=a, b=b: bdd.apply_or(a, b)) for a in left for b in right
        ]
        assert len(calls) == 3600
        self._twice(bdd, "or", calls)
