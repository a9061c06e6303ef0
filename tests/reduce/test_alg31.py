"""Tests for Algorithm 3.1 (recursive child merging)."""

import random

from hypothesis import given, settings

from repro.cf import CharFunction, max_width, refines_spec
from repro.isf import table1_spec
from repro.reduce import algorithm_3_1

from tests.conftest import managers_left_alive, random_spec, spec_strategy


class TestExample35:
    def test_paper_numbers(self):
        """Example 3.5: max width 8 -> 5, non-terminal nodes 15 -> 12."""
        cf = CharFunction.from_spec(table1_spec())
        assert max_width(cf.bdd, cf.root) == 8
        assert cf.num_nodes() == 15
        reduced = algorithm_3_1(cf)
        assert max_width(reduced.bdd, reduced.root) == 5
        assert reduced.num_nodes() == 12

    def test_refinement_and_totality(self):
        spec = table1_spec()
        cf = CharFunction.from_spec(spec)
        reduced = algorithm_3_1(cf)
        assert reduced.refines(cf)
        assert reduced.is_wellformed()
        assert refines_spec(reduced, spec)

    def test_completely_specified_fixed_point(self):
        # Without don't cares the algorithm must return the root as-is.
        from repro.isf import MultiOutputISF

        isf = MultiOutputISF.from_spec(table1_spec()).extension(0)
        cf = CharFunction.from_isf(isf)
        reduced = algorithm_3_1(cf)
        assert reduced.root == cf.root

    def test_idempotent_on_its_output_size(self):
        cf = CharFunction.from_spec(table1_spec())
        once = algorithm_3_1(cf)
        twice = algorithm_3_1(once)
        assert twice.num_nodes() <= once.num_nodes()
        assert twice.refines(once)


class TestRandomized:
    @settings(max_examples=30, deadline=None)
    @given(spec_strategy())
    def test_soundness_properties(self, spec):
        cf = CharFunction.from_spec(spec)
        reduced = algorithm_3_1(cf)
        # (1) refinement, (2) totality, (3) care values preserved.
        assert reduced.refines(cf)
        assert reduced.is_wellformed()
        for m, values in spec.care.items():
            sample = reduced.sample_output(m)
            for got, want in zip(sample, values):
                if want is not None:
                    assert got == want

    def test_node_count_never_increases(self):
        rng = random.Random(5)
        for _ in range(15):
            spec = random_spec(rng, n_inputs=4, n_outputs=2)
            cf = CharFunction.from_spec(spec)
            reduced = algorithm_3_1(cf)
            assert reduced.num_nodes() <= cf.num_nodes()


def test_algorithm_3_1_leaves_no_cycle():
    assert managers_left_alive(
        lambda: algorithm_3_1(CharFunction.from_spec(table1_spec()))
    ) == 0
