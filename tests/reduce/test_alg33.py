"""Tests for Algorithm 3.3 (clique-cover width reduction)."""

import hashlib
import random

import pytest
from hypothesis import given, settings

from repro.bdd import reference
from repro.bdd.io import (
    charfunction_payload,
    load_snapshot_bytes,
    payload_fingerprint,
    snapshot_bytes,
)
from repro.benchfns.registry import get_benchmark
from repro.cf import CharFunction, max_width, refines_spec, width_profile
from repro.experiments.runner import build_sifted_cf
from repro.isf import table1_spec
from repro.reduce import algorithm_3_3, reduce_support
import repro.reduce.alg33 as alg33

from tests.conftest import spec_strategy, random_spec


def table5_inputs(name):
    """The sifted, support-reduced CFs Table 5 feeds to Alg. 3.3."""
    for part in get_benchmark(name).build().bipartition():
        cf, _removed = reduce_support(build_sifted_cf(part))
        yield cf


class TestExample36:
    def test_paper_numbers(self):
        """Example 3.6: max width 8 -> 4, non-terminal nodes 15 -> 12."""
        cf = CharFunction.from_spec(table1_spec())
        reduced, stats = algorithm_3_3(cf)
        assert max_width(reduced.bdd, reduced.root) == 4
        assert reduced.num_nodes() == 12
        assert stats.merges >= 2
        assert not stats.truncated_heights

    def test_refinement_and_spec(self):
        spec = table1_spec()
        cf = CharFunction.from_spec(spec)
        reduced, _ = algorithm_3_3(cf)
        assert reduced.refines(cf)
        assert reduced.is_wellformed()
        assert refines_spec(reduced, spec)

    def test_beats_or_matches_alg31_width(self):
        """Sect. 5.1: Algorithm 3.3 targets width, 3.1 only node count."""
        from repro.reduce import algorithm_3_1

        cf = CharFunction.from_spec(table1_spec())
        w31 = max_width(*(lambda c: (c.bdd, c.root))(algorithm_3_1(cf)))
        r33, _ = algorithm_3_3(cf)
        assert max_width(r33.bdd, r33.root) <= w31

    def test_completely_specified_untouched(self):
        from repro.isf import MultiOutputISF

        isf = MultiOutputISF.from_spec(table1_spec()).extension(1)
        cf = CharFunction.from_isf(isf)
        reduced, stats = algorithm_3_3(cf)
        assert reduced.root == cf.root
        assert stats.merges == 0


class TestGuards:
    def test_truncation_records_heights(self):
        cf = CharFunction.from_spec(table1_spec())
        reduced, stats = algorithm_3_3(cf, max_pairs=1)
        assert stats.truncated_heights  # the guard kicked in
        assert reduced.refines(cf)
        assert reduced.is_wellformed()

    def test_stats_pair_accounting(self):
        cf = CharFunction.from_spec(table1_spec())
        _, stats = algorithm_3_3(cf)
        assert stats.pairs_checked > 0
        assert stats.heights_processed >= 1


class TestRandomized:
    @settings(max_examples=25, deadline=None)
    @given(spec_strategy())
    def test_soundness_properties(self, spec):
        cf = CharFunction.from_spec(spec)
        reduced, _ = algorithm_3_3(cf)
        assert reduced.refines(cf)
        assert reduced.is_wellformed()
        for m, values in spec.care.items():
            sample = reduced.sample_output(m)
            for got, want in zip(sample, values):
                if want is not None:
                    assert got == want

    def test_max_width_never_increases(self):
        rng = random.Random(9)
        for _ in range(15):
            spec = random_spec(rng, n_inputs=4, n_outputs=2)
            cf = CharFunction.from_spec(spec)
            reduced, _ = algorithm_3_3(cf)
            assert max_width(reduced.bdd, reduced.root) <= max_width(
                cf.bdd, cf.root
            )

    def test_widths_reduced_pointwise_at_top(self):
        # The first processed height (t-1) can only shrink.
        rng = random.Random(11)
        for _ in range(10):
            spec = random_spec(rng, n_inputs=3, n_outputs=2)
            cf = CharFunction.from_spec(spec)
            before = width_profile(cf.bdd, cf.root)
            reduced, _ = algorithm_3_3(cf)
            after = width_profile(reduced.bdd, reduced.root)
            t = cf.num_vars
            assert after[t - 1] <= before[t - 1]


# ---------------------------------------------------------------------------
# Alg. 3.3 pinned byte for byte
# ---------------------------------------------------------------------------

#: BLAKE2b digests of (root, _vid, _lo, _hi, _gen, _free, pairs_checked,
#: merges, heights_processed) after Alg. 3.3 on each Table 5 output half.
#: The pair filters and the clique cover's seed heap must leave the
#: graph, the cover and every allocation exactly as the full pair loop
#: and the rescanning cover these literals were measured with.  The
#: literals also fold in the CF build, the sift and the support
#: reduction before Alg. 3.3, so a change there is re-measured on
#: purpose.
ALG33_DIGESTS = {
    ("3-digit decimal adder", 0): "ea24963bd833088b407845be2a847690",
    ("3-digit decimal adder", 1): "87524a6b9cf9171da93c2a1fa8f780ba",
    ("5-digit 6-nary to binary", 0): "5d0f0dcaf0cd86c1dacbda07e38f6649",
    ("5-digit 6-nary to binary", 1): "4c7a2c298d7daeee2b2878e5f287a771",
    ("3-5-7-11 RNS", 0): "6747740cbddab341e594d6088134708e",
    ("3-5-7-11 RNS", 1): "998d76ea83fd730df419d2aefb5d125b",
}


def alg33_digest(cf, stats):
    bdd = cf.bdd
    state = (
        cf.root, bdd._vid, bdd._lo, bdd._hi, bdd._gen, bdd._free,
        stats.pairs_checked, stats.merges, stats.heights_processed,
    )
    return hashlib.blake2b(repr(state).encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize(
    "name", ["3-digit decimal adder", "5-digit 6-nary to binary", "3-5-7-11 RNS"]
)
def test_alg33_managers_are_byte_identical(name):
    for index, cf in enumerate(table5_inputs(name)):
        reduced, stats = algorithm_3_3(cf)
        assert alg33_digest(reduced, stats) == ALG33_DIGESTS[name, index], index


# ---------------------------------------------------------------------------
# Results depend on the CF, not on how its manager numbered the nodes
# ---------------------------------------------------------------------------


def alg33_summary(cf):
    """Max width, node count, merges and fingerprint of Alg. 3.3's result."""
    reduced, stats = algorithm_3_3(cf)
    fingerprint = payload_fingerprint(charfunction_payload(reduced))
    return max_width(reduced.bdd, reduced.root), reduced.num_nodes(), stats.merges, fingerprint


@pytest.mark.parametrize(
    "name, half",
    [
        ("11-13-15-17 RNS", 0),
        ("400 words", 0),
        ("3-digit decimal adder", 0),
        ("3-digit decimal adder", 1),
    ],
)
def test_alg33_ignores_node_numbering(name, half):
    """A sifted, support-reduced CF and its RBCF snapshot round trip
    (same function and order, other node ids) reduce alike: Alg. 3.3
    orders columns and breaks clique-cover ties by rank, not by node id."""
    part = get_benchmark(name).build().bipartition()[half]
    cf, _ = reduce_support(build_sifted_cf(part))
    copy = load_snapshot_bytes(snapshot_bytes(cf))
    assert copy.bdd.order() == cf.bdd.order()
    assert sorted(copy.bdd.reachable([copy.root])) != sorted(cf.bdd.reachable([cf.root]))
    assert alg33_summary(copy) == alg33_summary(cf)


class TestPairFilters:
    def test_most_incompatible_pairs_never_walk(self, monkeypatch):
        """The probe signatures refute at least 90 % of the decimal
        adder's incompatible pairs; compatible pairs all reach the walk."""
        verdicts = []
        walk = alg33.compatible_columns

        def counting(bdd, a, b):
            verdicts.append(walk(bdd, a, b))
            return verdicts[-1]

        monkeypatch.setattr(alg33, "compatible_columns", counting)
        pairs = 0
        for cf in table5_inputs("3-digit decimal adder"):
            pairs += algorithm_3_3(cf)[1].pairs_checked
        incompatible = pairs - sum(verdicts)
        walked = verdicts.count(False)
        assert incompatible > 1000
        assert incompatible - walked >= 0.9 * incompatible, (walked, incompatible)

    def test_seed_engine_walks_every_counted_pair(self, monkeypatch):
        """Under the seed engine no signature is used: the seed pair
        walk runs exactly ``pairs_checked`` times."""
        calls = []
        seed = reference.seed_compatible_columns

        def counting(bdd, a, b):
            calls.append((a, b))
            return seed(bdd, a, b)

        monkeypatch.setattr(reference, "seed_compatible_columns", counting)
        rng = random.Random(5)
        specs = [table1_spec()] + [
            random_spec(rng, n_inputs=4, n_outputs=3) for _ in range(6)
        ]
        with reference.seed_engine():
            for spec in specs:
                calls.clear()
                _, stats = algorithm_3_3(CharFunction.from_spec(spec))
                assert len(calls) == stats.pairs_checked

    def test_truncated_pair_count(self):
        """``pairs_checked`` counts the pairs of the first ``k`` columns,
        ``k*(k-1)/2 <= max_pairs``, less those among specified columns."""
        cf = CharFunction.from_spec(table1_spec())
        _, full = algorithm_3_3(cf)
        for max_pairs in (0, 1, 3):
            _, stats = algorithm_3_3(
                CharFunction.from_spec(table1_spec()), max_pairs=max_pairs
            )
            assert stats.pairs_checked <= full.pairs_checked
            assert stats.pairs_checked <= max_pairs * stats.heights_processed
