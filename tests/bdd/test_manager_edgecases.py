"""Edge-case and stress tests for the BDD manager."""

import random

import pytest

from repro.bdd import BDD, FALSE, TRUE, from_sorted_minterms
from repro.errors import VariableError


class TestDeepStructures:
    def test_300_variable_chain(self):
        """Recursive algorithms must handle chains far beyond the CF sizes."""
        n = 300
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(n)])
        f = TRUE
        for v in reversed(vids):
            f = bdd.mk(v, FALSE, f)  # conjunction chain
        assert bdd.count_nodes(f) == n
        # Operations walk the whole chain.
        g = bdd.apply_and(f, f)
        assert g == f
        assert bdd.apply_not(bdd.apply_not(f)) == f
        assert bdd.sat_count(f, vids=vids) == 1
        asg = {v: 1 for v in vids}
        assert bdd.evaluate(f, asg) == 1
        asg[vids[150]] = 0
        assert bdd.evaluate(f, asg) == 0

    def test_wide_sparse_function(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(64)])
        rng = random.Random(1)
        minterms = sorted({rng.getrandbits(64) for _ in range(500)})
        f = from_sorted_minterms(bdd, vids, minterms)
        assert bdd.sat_count(f, vids=vids) == len(minterms)
        for m in minterms[:20]:
            asg = {v: (m >> (63 - i)) & 1 for i, v in enumerate(vids)}
            assert bdd.evaluate(f, asg) == 1


class TestCacheCorrectness:
    def test_results_stable_across_cache_clear(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b", "c", "d"])
        rng = random.Random(2)
        fns = []
        for _ in range(10):
            minterms = sorted(rng.sample(range(16), rng.randint(1, 15)))
            fns.append(from_sorted_minterms(bdd, vids, minterms))
        pairs = [(f, g) for f in fns for g in fns]
        before = [bdd.apply_and(f, g) for f, g in pairs]
        bdd.clear_cache()
        after = [bdd.apply_and(f, g) for f, g in pairs]
        assert before == after

    def test_collect_then_rebuild_same_ids_semantics(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b"])
        f = bdd.apply_xor(bdd.var(vids[0]), bdd.var(vids[1]))
        truth = [bdd.evaluate(f, {vids[0]: a, vids[1]: b}) for a in (0, 1) for b in (0, 1)]
        bdd.collect([f])
        # f survives the sweep untouched.
        assert truth == [
            bdd.evaluate(f, {vids[0]: a, vids[1]: b}) for a in (0, 1) for b in (0, 1)
        ]


class TestMisuse:
    def test_unknown_variable_in_assignment(self):
        bdd = BDD()
        v = bdd.add_var("x")
        with pytest.raises(VariableError):
            bdd.evaluate(bdd.var(v), {999: 1})

    def test_restrict_with_truthy_values(self):
        bdd = BDD()
        v = bdd.add_var("x")
        f = bdd.var(v)
        # restrict accepts any truthy/falsy bit value
        assert bdd.restrict(f, {v: True}) == TRUE
        assert bdd.restrict(f, {v: 0}) == FALSE

    def test_var_by_bad_name(self):
        bdd = BDD()
        with pytest.raises(VariableError):
            bdd.var("missing")
