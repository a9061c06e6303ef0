"""Property-based tests of the BDD engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, FALSE, TRUE, from_truth_table, set_order, sift

from tests.conftest import brute_force_truth

N_VARS = 4
TABLE = st.lists(st.integers(0, 1), min_size=1 << N_VARS, max_size=1 << N_VARS)


def build(table):
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
    return bdd, vids, from_truth_table(bdd, vids, table)


class TestAlgebraicLaws:
    @settings(max_examples=60, deadline=None)
    @given(TABLE, TABLE)
    def test_and_or_against_python(self, ta, tb):
        bdd, vids, f = build(ta)
        g = from_truth_table(bdd, vids, tb)
        t_and = brute_force_truth(bdd, bdd.apply_and(f, g), vids)
        t_or = brute_force_truth(bdd, bdd.apply_or(f, g), vids)
        t_xor = brute_force_truth(bdd, bdd.apply_xor(f, g), vids)
        assert t_and == [a & b for a, b in zip(ta, tb)]
        assert t_or == [a | b for a, b in zip(ta, tb)]
        assert t_xor == [a ^ b for a, b in zip(ta, tb)]

    @settings(max_examples=60, deadline=None)
    @given(TABLE)
    def test_canonicity(self, table):
        # Two structurally different construction orders give the same node.
        bdd, vids, f = build(table)
        g = FALSE
        for m in range(1 << N_VARS):
            if table[m]:
                cube = TRUE
                for i, v in enumerate(reversed(vids)):
                    bit = (m >> i) & 1
                    lit = bdd.var(v) if bit else bdd.nvar(v)
                    cube = bdd.apply_and(cube, lit)
                g = bdd.apply_or(g, cube)
        assert f == g

    @settings(max_examples=40, deadline=None)
    @given(TABLE)
    def test_shannon_expansion(self, table):
        bdd, vids, f = build(table)
        x = vids[0]
        rebuilt = bdd.ite(bdd.var(x), bdd.cofactor(f, x, 1), bdd.cofactor(f, x, 0))
        assert rebuilt == f

    @settings(max_examples=40, deadline=None)
    @given(TABLE)
    def test_sat_count_matches_table(self, table):
        bdd, vids, f = build(table)
        assert bdd.sat_count(f, vids=vids) == sum(table)


class TestReorderProperties:
    @settings(max_examples=25, deadline=None)
    @given(TABLE, st.permutations(list(range(N_VARS))))
    def test_set_order_preserves_semantics(self, table, perm):
        bdd, vids, f = build(table)
        set_order(bdd, [f], [f"x{i}" for i in perm])
        assert brute_force_truth(bdd, f, vids) == table
        bdd.check_invariants([f])

    @settings(max_examples=15, deadline=None)
    @given(TABLE)
    def test_sift_preserves_semantics(self, table):
        bdd, vids, f = build(table)
        sift(bdd, [f])
        assert brute_force_truth(bdd, f, vids) == table
        bdd.check_invariants([f])

    @settings(max_examples=15, deadline=None)
    @given(TABLE)
    def test_sift_never_increases_size(self, table):
        bdd, vids, f = build(table)
        before = bdd.count_nodes(f)
        sift(bdd, [f])
        assert bdd.count_nodes(f) <= before
