"""Unit tests for BDD construction from tabular data."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import (
    BDD,
    FALSE,
    TRUE,
    from_cube,
    from_cubes,
    from_sorted_minterms,
    from_truth_table,
    word_geq_const,
)
from repro.errors import BDDError

from tests.conftest import brute_force_truth, managers_left_alive


def make_bdd(n):
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(n)])
    return bdd, vids


class TestReferenceCycles:
    def test_from_truth_table_leaves_no_cycle(self):
        def call():
            bdd, vids = make_bdd(3)
            from_truth_table(bdd, vids, [0, 1, 1, 0, 1, 0, 0, 1])

        assert managers_left_alive(call) == 0


class TestFromCube:
    def test_single_literal(self):
        bdd, vids = make_bdd(2)
        f = from_cube(bdd, {vids[0]: 1})
        assert f == bdd.var(vids[0])

    def test_product(self):
        bdd, vids = make_bdd(3)
        f = from_cube(bdd, {vids[0]: 1, vids[2]: 0})
        assert brute_force_truth(bdd, f, vids) == [0, 0, 0, 0, 1, 0, 1, 0]

    def test_empty_cube_is_true(self):
        bdd, _ = make_bdd(1)
        assert from_cube(bdd, {}) == TRUE

    def test_cubes_union(self):
        bdd, vids = make_bdd(2)
        f = from_cubes(bdd, [{vids[0]: 0, vids[1]: 0}, {vids[0]: 1, vids[1]: 1}])
        assert brute_force_truth(bdd, f, vids) == [1, 0, 0, 1]


class TestFromTruthTable:
    def test_exact(self):
        bdd, vids = make_bdd(3)
        table = [0, 1, 1, 0, 1, 0, 0, 1]
        f = from_truth_table(bdd, vids, table)
        assert brute_force_truth(bdd, f, vids) == table

    def test_constant_tables(self):
        bdd, vids = make_bdd(2)
        assert from_truth_table(bdd, vids, [0, 0, 0, 0]) == FALSE
        assert from_truth_table(bdd, vids, [1, 1, 1, 1]) == TRUE

    def test_wrong_size_rejected(self):
        bdd, vids = make_bdd(2)
        with pytest.raises(BDDError):
            from_truth_table(bdd, vids, [0, 1])

    def test_vids_must_be_in_level_order(self):
        bdd, vids = make_bdd(2)
        with pytest.raises(BDDError):
            from_truth_table(bdd, list(reversed(vids)), [0, 1, 1, 0])


class TestFromSortedMinterms:
    def test_matches_truth_table(self):
        bdd, vids = make_bdd(4)
        table = [1 if m % 3 == 0 else 0 for m in range(16)]
        minterms = [m for m in range(16) if table[m]]
        f = from_sorted_minterms(bdd, vids, minterms)
        g = from_truth_table(bdd, vids, table)
        assert f == g

    def test_empty_and_full(self):
        bdd, vids = make_bdd(3)
        assert from_sorted_minterms(bdd, vids, []) == FALSE
        assert from_sorted_minterms(bdd, vids, list(range(8))) == TRUE

    def test_out_of_range_rejected(self):
        bdd, vids = make_bdd(2)
        with pytest.raises(BDDError):
            from_sorted_minterms(bdd, vids, [4])

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 31), max_size=32))
    def test_random_sets(self, minterms):
        bdd, vids = make_bdd(5)
        f = from_sorted_minterms(bdd, vids, sorted(minterms))
        truth = brute_force_truth(bdd, f, vids)
        assert {m for m in range(32) if truth[m]} == minterms

    def test_sparse_40bit_domain(self):
        # The word-list construction path: few minterms, wide domain.
        bdd, vids = make_bdd(40)
        minterms = [3, 5_000_000_000, (1 << 40) - 1]
        f = from_sorted_minterms(bdd, vids, minterms)
        for m in minterms:
            asg = {v: (m >> (39 - i)) & 1 for i, v in enumerate(vids)}
            assert bdd.evaluate(f, asg) == 1
        assert bdd.sat_count(f, vids=vids) == 3


class TestWordGeqConst:
    def test_all_thresholds_width5(self):
        bdd, vids = make_bdd(5)
        for c in range(0, 33):
            f = word_geq_const(bdd, vids, c)
            truth = brute_force_truth(bdd, f, vids)
            assert truth == [1 if v >= c else 0 for v in range(32)], c

    def test_degenerate_bounds(self):
        bdd, vids = make_bdd(3)
        assert word_geq_const(bdd, vids, 0) == TRUE
        assert word_geq_const(bdd, vids, 8) == FALSE
        assert word_geq_const(bdd, vids, -5) == TRUE

    def test_radix_dc_semantics(self):
        # "digit code >= p" marks the unused codes of a radix-p digit.
        bdd, vids = make_bdd(4)
        f = word_geq_const(bdd, vids, 10)  # BCD digit
        truth = brute_force_truth(bdd, f, vids)
        assert sum(truth) == 6  # codes 10..15
