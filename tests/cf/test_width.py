"""Unit tests for Definition 3.5 widths and column substitution."""

import pytest

from repro.bdd import BDD, FALSE, TRUE
from repro.cf import (
    CharFunction,
    all_columns,
    columns_at_height,
    max_width,
    substitute_columns,
    sum_of_widths,
    width_profile,
)
from repro.isf import table1_spec


class TestWidthProfile:
    def test_table1_profile(self):
        cf = CharFunction.from_spec(table1_spec())
        assert width_profile(cf.bdd, cf.root) == [1, 3, 4, 8, 4, 2, 1]

    def test_width_at_height_zero_is_one(self):
        cf = CharFunction.from_spec(table1_spec())
        assert width_profile(cf.bdd, cf.root)[0] == 1

    def test_single_variable(self):
        bdd = BDD()
        x = bdd.add_var("x")
        f = bdd.var(x)
        assert width_profile(bdd, f) == [1, 1]
        assert max_width(bdd, f) == 1
        assert sum_of_widths(bdd, f) == 2

    def test_long_edges_counted_once_per_target(self):
        bdd = BDD()
        a, b, c = bdd.add_vars(["a", "b", "c"])
        # f = a | (b & c): at the section below a, targets are the
        # b-node and TRUE (via a's long 1-edge).
        f = bdd.apply_or(bdd.var(a), bdd.apply_and(bdd.var(b), bdd.var(c)))
        profile = width_profile(bdd, f)
        assert profile[3] == 1          # above everything: the root
        assert profile[2] == 2          # b-node + TRUE long edge
        assert profile[1] == 2          # c-node + TRUE
        assert profile[0] == 1

    def test_sum_is_sift_cost(self):
        cf = CharFunction.from_spec(table1_spec())
        assert sum_of_widths(cf.bdd, cf.root) == sum([1, 3, 4, 8, 4, 2, 1])


class TestColumns:
    def test_columns_at_max_width_height(self):
        cf = CharFunction.from_spec(table1_spec())
        cols = columns_at_height(cf.bdd, cf.root, 3)
        assert len(cols) == 8
        assert FALSE not in cols

    def test_height_bounds(self):
        cf = CharFunction.from_spec(table1_spec())
        with pytest.raises(ValueError):
            columns_at_height(cf.bdd, cf.root, 0)
        with pytest.raises(ValueError):
            columns_at_height(cf.bdd, cf.root, 7)

    def test_all_columns_consistent(self):
        cf = CharFunction.from_spec(table1_spec())
        cols = all_columns(cf.bdd, cf.root)
        profile = width_profile(cf.bdd, cf.root)
        for h in range(1, cf.num_vars + 1):
            assert len(cols[h]) == profile[h]


class TestSubstituteColumns:
    def test_identity_substitution(self):
        cf = CharFunction.from_spec(table1_spec())
        root = substitute_columns(cf.bdd, cf.root, 3, lambda u: u)
        assert root == cf.root

    def test_merge_reduces_width(self):
        """Replacing two compatible columns by their AND shrinks the cut."""
        from repro.isf.compat import compatible_columns

        cf = CharFunction.from_spec(table1_spec())
        bdd = cf.bdd
        cols = columns_at_height(bdd, cf.root, 3)
        pair = None
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                if compatible_columns(bdd, cols[i], cols[j]):
                    pair = (cols[i], cols[j])
                    break
            if pair:
                break
        assert pair is not None
        merged = bdd.apply_and(*pair)
        substitution = {pair[0]: merged, pair[1]: merged}
        root2 = substitute_columns(
            bdd, cf.root, 3, lambda u: substitution.get(u, u)
        )
        assert len(columns_at_height(bdd, root2, 3)) < len(cols)

    def test_substitution_is_semantic_replacement(self):
        bdd = BDD()
        a, b = bdd.add_vars(["a", "b"])
        f = bdd.apply_and(bdd.var(a), bdd.var(b))
        # Replace the b-node below the section at height 1 with TRUE.
        (col,) = columns_at_height(bdd, f, 1)
        root2 = substitute_columns(bdd, f, 1, lambda u: TRUE if u == col else u)
        assert root2 == bdd.var(a)
