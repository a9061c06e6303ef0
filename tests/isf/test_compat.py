"""Tests for totality / column compatibility of characteristic functions.

Besides the semantic checks (brute force, Definition 3.7), the walks
and the apply kernel are checked differentially against the seed
recursions of :mod:`repro.bdd.reference` — within one manager,
canonicity turns semantic agreement into id equality — including
across the events that invalidate memo state: sifting (the epoch
moves), garbage collection (generations bump), and governor aborts.
"""

import itertools
import os
import random
from collections.abc import MutableMapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, FALSE, TRUE, from_truth_table, reference, sift
from repro.bdd.governor import Budget
from repro.benchfns.registry import get_benchmark
from repro.cf import CharFunction
from repro.cf.width import columns_at_height
from repro.errors import ResourceLimitError
from repro.isf import MultiOutputISF, compatible_columns, ordered_total
from repro.isf.compat import PROBES, ProbeSignatures
from repro.reduce import algorithm_3_1

from tests.conftest import brute_force_truth, spec_strategy, random_spec

N_VARS = 5
N_DEEP = 9
TABLE = st.lists(st.integers(0, 1), min_size=1 << N_VARS, max_size=1 << N_VARS)
DEEP_TABLE = st.lists(st.integers(0, 1), min_size=1 << N_DEEP, max_size=1 << N_DEEP)


def build(table, n_vars, n_outputs=2):
    """Manager with a mixed input/output order and one function."""
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(n_vars - n_outputs)])
    vids += bdd.add_vars([f"y{i}" for i in range(n_outputs)], kind="output")
    return bdd, vids, from_truth_table(bdd, vids, table)


def brute_force_total(bdd, u, input_vids, output_vids):
    """Literal ∀X ∃Y check by enumeration."""
    n, m = len(input_vids), len(output_vids)
    for x in range(1 << n):
        asg = {v: (x >> (n - 1 - i)) & 1 for i, v in enumerate(input_vids)}
        ok = False
        for y in range(1 << m):
            asg2 = dict(asg)
            asg2.update(
                {v: (y >> (m - 1 - j)) & 1 for j, v in enumerate(output_vids)}
            )
            if bdd.evaluate(u, asg2):
                ok = True
                break
        if not ok:
            return False
    return True


class TestOrderedTotal:
    def test_terminals(self):
        bdd = BDD()
        assert ordered_total(bdd, TRUE)
        assert not ordered_total(bdd, FALSE)

    def test_simple_cf(self):
        bdd = BDD()
        x = bdd.add_var("x")
        y = bdd.add_var("y", kind="output")
        # chi = (y == x): total.
        chi = bdd.apply_not(bdd.apply_xor(bdd.var(x), bdd.var(y)))
        assert ordered_total(bdd, chi)
        # chi = x AND y: not total (x=0 admits no output).
        assert not ordered_total(bdd, bdd.apply_and(bdd.var(x), bdd.var(y)))

    @settings(max_examples=30, deadline=None)
    @given(spec_strategy(max_inputs=3, max_outputs=2))
    def test_matches_brute_force_on_cf(self, spec):
        cf = CharFunction.from_spec(spec)
        got = ordered_total(cf.bdd, cf.root)
        want = brute_force_total(cf.bdd, cf.root, cf.input_vids, cf.output_vids)
        assert got == want
        assert want  # every CF of an ISF is total by construction


class TestCompatibleColumns:
    def test_zero_incompatible_with_everything(self):
        bdd = BDD()
        assert not compatible_columns(bdd, FALSE, TRUE)
        assert not compatible_columns(bdd, FALSE, FALSE)

    def test_true_compatible_with_total(self):
        bdd = BDD()
        x = bdd.add_var("x")
        y = bdd.add_var("y", kind="output")
        chi = bdd.apply_not(bdd.apply_xor(bdd.var(x), bdd.var(y)))
        assert compatible_columns(bdd, TRUE, chi)

    def test_matches_isf_compatibility(self):
        """Column compatibility on CFs == Definition 3.7 on the ISFs.

        Two CFs over one manager (shared inputs, shared y variables at
        the bottom) are compatible as columns exactly when every output
        pair is compatible per Definition 3.7.
        """
        rng = random.Random(42)
        for trial in range(30):
            spec_a = random_spec(rng, n_inputs=3, n_outputs=2)
            spec_b = random_spec(rng, n_inputs=3, n_outputs=2)
            bdd = BDD()
            input_vids = bdd.add_vars(["x1", "x2", "x3"])
            y_vids = [bdd.add_var(f"y{i}", kind="output") for i in range(2)]
            isf_a = MultiOutputISF.from_spec(spec_a, bdd=bdd)
            spec_b2 = type(spec_b)(3, 2, spec_b.care, name="b")
            isf_b = MultiOutputISF.from_spec(spec_b2, bdd=bdd)

            def chi_of(isf):
                chi = TRUE
                for y, out in zip(y_vids, isf.outputs):
                    term = bdd.apply_or(
                        bdd.apply_or(
                            bdd.apply_and(bdd.nvar(y), out.f0),
                            bdd.apply_and(bdd.var(y), out.f1),
                        ),
                        out.fd,
                    )
                    chi = bdd.apply_and(chi, term)
                return chi

            got = compatible_columns(bdd, chi_of(isf_a), chi_of(isf_b))
            want = all(
                fa.compatible(fb)
                for fa, fb in zip(isf_a.outputs, isf_b.outputs)
            )
            assert got == want, trial


def cf_variants(spec):
    """The CF of ``spec`` unsifted, sifted, and after one Alg. 3.1 pass
    (which leaves relation-shaped columns: output nodes with two
    non-zero children)."""
    yield CharFunction.from_spec(spec)
    cf = CharFunction.from_spec(spec)
    cf.sift()
    yield cf
    yield algorithm_3_1(CharFunction.from_spec(spec))


def refuted(key_a, key_b):
    return key_a is None or key_b is None or key_a[0] & key_b[1] != 0


def probe_bits(bdd, sigs, u, probe):
    """(S, ON, OFF) of ``u`` at one probe, by enumerating the outputs."""
    inputs = {
        vid: (mask >> probe) & 1 for vid, (mask, *_rest) in sigs._masks.items()
    }
    outputs = sorted(sigs._shift, key=sigs._shift.get)
    admitted = []
    for ys in itertools.product((0, 1), repeat=len(outputs)):
        assignment = dict(inputs)
        assignment.update(zip(outputs, ys))
        if bdd.evaluate(u, assignment):
            admitted.append(ys)
    on = [all(ys[j] == 1 for ys in admitted) for j in range(len(outputs))]
    off = [all(ys[j] == 0 for ys in admitted) for j in range(len(outputs))]
    return bool(admitted), on, off


class TestProbeSignatures:
    @settings(max_examples=40, deadline=None)
    @given(spec_strategy())
    def test_refuted_pairs_are_incompatible(self, spec):
        """A pair the signatures refute is one the seed walk rejects,
        at every height of unsifted, sifted and Alg. 3.1 CFs."""
        for cf in cf_variants(spec):
            bdd = cf.bdd
            sigs = ProbeSignatures(bdd)
            for height in range(1, bdd.num_vars):
                cols = columns_at_height(bdd, cf.root, height)
                for a, b in itertools.combinations(cols, 2):
                    if refuted(sigs.key(a), sigs.key(b)):
                        assert not reference.seed_compatible_columns(bdd, a, b)
                    assert refuted(sigs.key(a), sigs.key(b)) == refuted(
                        sigs.key(b), sigs.key(a)
                    )

    @settings(max_examples=15, deadline=None)
    @given(spec_strategy(max_inputs=3, max_outputs=2))
    def test_bits_match_enumeration(self, spec):
        """S, ON and OFF of every column equal the admitted output
        vectors enumerated at each probe."""
        for cf in cf_variants(spec):
            bdd = cf.bdd
            sigs = ProbeSignatures(bdd)
            for height in range(1, bdd.num_vars):
                for u in columns_at_height(bdd, cf.root, height):
                    sigs.key(u)
                    s, on, off = sigs._sigs[u]
                    for probe in range(0, PROBES, 7):
                        sat, want_on, want_off = probe_bits(bdd, sigs, u, probe)
                        assert (s >> probe) & 1 == sat
                        for j, shift in enumerate(sorted(sigs._shift.values())):
                            bit = shift + probe
                            # A probe that admits nothing reads 1 everywhere.
                            assert (on >> bit) & 1 == (want_on[j] or not sat)
                            assert (off >> bit) & 1 == (want_off[j] or not sat)

    def test_non_total_column_has_no_key(self):
        bdd = BDD()
        x = bdd.add_var("x")
        y = bdd.add_var("y", kind="output")
        sigs = ProbeSignatures(bdd)
        # x AND y admits nothing at x = 0.
        assert sigs.key(bdd.apply_and(bdd.var(x), bdd.var(y))) is None
        assert sigs.key(TRUE) == (0, 0)
        assert sigs.key(FALSE) is None


class TestKernelMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(TABLE, TABLE)
    def test_ops_match_reference(self, ta, tb):
        bdd, vids, f = build(ta, N_VARS)
        g = from_truth_table(bdd, vids, tb)
        assert bdd.apply_and(f, g) == reference.ref_apply_and(bdd, f, g)
        assert bdd.apply_xor(f, g) == reference.ref_apply_xor(bdd, f, g)
        for v in vids:
            assert bdd.compose(f, v, g) == reference.ref_compose(bdd, f, v, g)

    @settings(max_examples=15, deadline=None)
    @given(DEEP_TABLE)
    def test_ops_match_reference_on_9_vars(self, table):
        bdd, vids, f = build(table, N_DEEP)
        g = bdd.apply_not(bdd.cofactor(f, vids[0], 1))
        assert bdd.apply_and(f, g) == reference.ref_apply_and(bdd, f, g)
        for v in vids:
            assert bdd.compose(f, v, g) == reference.ref_compose(bdd, f, v, g)


class TestWalksMatchSeed:
    @settings(max_examples=40, deadline=None)
    @given(TABLE, TABLE)
    def test_total_and_compat_match_seed(self, ta, tb):
        bdd, vids, a = build(ta, N_VARS)
        b = from_truth_table(bdd, vids, tb)
        assert ordered_total(bdd, a) is reference.seed_ordered_total(bdd, a)
        assert compatible_columns(bdd, a, b) is (
            reference.seed_compatible_columns(bdd, a, b)
        )

    @settings(max_examples=10, deadline=None)
    @given(DEEP_TABLE, DEEP_TABLE)
    def test_compat_matches_seed_on_9_vars(self, ta, tb):
        bdd, vids, a = build(ta, N_DEEP)
        b = from_truth_table(bdd, vids, tb)
        assert compatible_columns(bdd, a, b) is (
            reference.seed_compatible_columns(bdd, a, b)
        )

    @settings(max_examples=15, deadline=None)
    @given(TABLE, TABLE)
    def test_parity_survives_sifting(self, ta, tb):
        # Sifting moves the reorder epoch: the memos must not serve
        # pre-sift answers.  The verdict itself may legitimately flip —
        # ordered totality quantifies along the variable order, and
        # sifting arbitrary functions can lift an output variable above
        # an input — so the pin is agreement with a *fresh* reference
        # walk on the new order, not invariance of the pre-sift answer.
        bdd, vids, a = build(ta, N_VARS)
        b = from_truth_table(bdd, vids, tb)
        compatible_columns(bdd, a, b)  # warm the pre-sift memos
        sift(bdd, [a, b])
        after = compatible_columns(bdd, a, b)
        bdd._ref_cache = {}  # the reference memo is not epoch-aware
        assert after is reference.seed_compatible_columns(bdd, a, b)
        bdd.clear_cache()
        assert compatible_columns(bdd, a, b) is after

    @settings(max_examples=15, deadline=None)
    @given(TABLE, TABLE)
    def test_parity_survives_collect(self, ta, tb):
        bdd, vids, a = build(ta, N_VARS)
        b = from_truth_table(bdd, vids, tb)
        table_before = brute_force_truth(bdd, a, vids)
        compatible_columns(bdd, a, b)  # warm the pair memo
        garbage = bdd.apply_xor(a, b)
        del garbage
        bdd.collect([a, b])
        assert brute_force_truth(bdd, a, vids) == table_before
        assert compatible_columns(bdd, a, b) is (
            reference.seed_compatible_columns(bdd, a, b)
        )
        bdd.check_invariants([a, b])

    def test_abort_leaves_manager_consistent(self):
        # A tiny step budget must abort mid-operation, and the manager
        # must stay fully usable afterwards.
        rng_table = [(i * 2654435761) >> 7 & 1 for i in range(1 << N_DEEP)]
        alt_table = [(i * 40503) >> 3 & 1 for i in range(1 << N_DEEP)]
        bdd, vids, f = build(rng_table, N_DEEP)
        g = from_truth_table(bdd, vids, alt_table)
        bdd.clear_cache()
        with pytest.raises(ResourceLimitError):
            with Budget(max_steps=10):
                for _ in range(200):
                    bdd.apply_xor(f, g)
                    compatible_columns(bdd, f, g)
                    bdd.clear_cache()
        # No budget: the same queries now run to completion and agree
        # with the reference engine.
        assert bdd.apply_xor(f, g) == reference.ref_apply_xor(bdd, f, g)
        assert compatible_columns(bdd, f, g) is (
            reference.seed_compatible_columns(bdd, f, g)
        )
        bdd.check_invariants([f, g])


class CountingEnviron(MutableMapping):
    """``os.environ`` stand-in that records every key read."""

    def __init__(self, real):
        self.real = real
        self.reads: list[str] = []

    def __getitem__(self, key):
        self.reads.append(key)
        return self.real[key]

    def __setitem__(self, key, value):
        self.real[key] = value

    def __delitem__(self, key):
        del self.real[key]

    def __iter__(self):
        self.reads.append("<iter>")
        return iter(self.real)

    def __len__(self):
        return len(self.real)


def test_hot_paths_read_no_environment(monkeypatch):
    """Pair checks, totality walks and applies on a sifted CF are pure
    functions of the manager: not one ``os.environ`` read."""
    cf = CharFunction.from_isf(get_benchmark("3-5 RNS").build())
    cf.sift(cost="auto")
    bdd = cf.bdd
    columns = [
        columns_at_height(bdd, cf.root, height)
        for height in range(1, bdd.num_vars)
    ]
    bdd.clear_cache()
    env = CountingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", env)
    pairs = 0
    for cols in columns:
        for a, b in itertools.islice(itertools.combinations(cols, 2), 40):
            compatible_columns(bdd, a, b)
            ordered_total(bdd, a)
            bdd.apply_and(a, b)
            pairs += 1
    assert pairs > 100
    assert env.reads == []
