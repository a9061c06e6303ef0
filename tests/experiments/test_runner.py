"""Tests for the shared experiment plumbing."""

import time

import pytest

from repro.benchfns import rns_benchmark
from repro.cf import max_width
from repro.errors import ReproError
from repro.experiments.runner import (
    Stopwatch,
    build_extension_cf,
    build_sifted_cf,
    measure,
    stable_seed,
    verify_cf_against_reference,
)


@pytest.fixture(scope="module")
def small_parts():
    benchmark = rns_benchmark([3, 5])
    isf = benchmark.build()
    return benchmark, isf.bipartition()


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.seconds >= 0.005


class TestBuilders:
    def test_sifted_cf_is_wellformed(self, small_parts):
        _, (f1, f2) = small_parts
        cf = build_sifted_cf(f1)
        assert cf.is_wellformed()

    def test_no_sift_keeps_initial_order(self, small_parts):
        _, (f1, _) = small_parts
        cf = build_sifted_cf(f1, sift=False)
        inputs = [cf.bdd.name_of(v) for v in cf.input_vids]
        order_inputs = [n for n in cf.bdd.order() if not n.startswith("y")]
        assert order_inputs == inputs

    def test_extension_cf_completely_specified(self, small_parts):
        _, (f1, _) = small_parts
        cf = build_extension_cf(f1, 0, sift=False)
        for m in range(1 << 5):
            assert all(v is not None for v in cf.output_pattern(m))

    def test_measure_fields(self, small_parts):
        _, (f1, _) = small_parts
        cf = build_sifted_cf(f1, sift=False)
        m = measure(cf)
        assert m.max_width == max_width(cf.bdd, cf.root)
        assert m.nodes == cf.num_nodes()


class TestVerification:
    def test_accepts_correct_cf(self, small_parts):
        benchmark, (f1, f2) = small_parts
        cf = build_sifted_cf(f1, sift=False)
        verify_cf_against_reference(cf, benchmark, slice(0, 2), samples=20)

    def test_rejects_wrong_extension(self, small_parts):
        """Verifying F1's CF against F2's output slice must fail."""
        benchmark, (f1, f2) = small_parts
        cf = build_sifted_cf(f1, sift=False)
        with pytest.raises(ReproError):
            verify_cf_against_reference(cf, benchmark, slice(2, 4), samples=30)


class TestStableSeed:
    def test_deterministic_across_calls(self):
        assert stable_seed("adder", "F1", "Alg3.3") == stable_seed(
            "adder", "F1", "Alg3.3"
        )

    def test_distinct_keys_distinct_seeds(self):
        seeds = {
            stable_seed(table, name, variant)
            for table in ("table4", "table5")
            for name in ("a", "b", "c")
            for variant in ("ISF", "Alg3.1", "Alg3.3")
        }
        assert len(seeds) == 2 * 3 * 3

    def test_pinned_value(self):
        """Process-independent: the digest must never vary between runs.

        A change to the derivation would silently redraw every
        verifier's samples, so the values are pinned as literals.
        """
        assert stable_seed("table4", "3-5 RNS", "ISF") == 14178166531997733615
        assert stable_seed() == 16476032584258269876
        assert 0 <= stable_seed("x") < 2**64

    def test_non_string_parts(self):
        assert stable_seed("table6", 30, "Fig.8") == stable_seed(
            "table6", "30", "Fig.8"
        )
