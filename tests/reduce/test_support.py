"""Tests for support-variable reduction (Sect. 3.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, Budget, check, reference, stats
from repro.bdd.governor import CHECK_INTERVAL
from repro.benchfns.registry import get_benchmark
from repro.benchfns.wordlist import WordList, build_wordlist_isf, generate_words
from repro.cf import CharFunction, refines_spec
from repro.errors import DeadlineError, ResourceLimitError
from repro.experiments import table6
from repro.experiments.runner import build_sifted_cf
from repro.isf import MultiOutputSpec, table1_spec
from repro.isf.compat import compatible_cofactors
from repro.reduce import algorithm_3_1, algorithm_3_3, reduce_support

from tests.conftest import spec_strategy, random_spec


class TestReduceSupport:
    def test_removes_redundant_variable(self):
        # f depends on x1 only on rows where x2 = 0; with the x2 = 1
        # rows don't care, x2... here we make x2 itself redundant:
        # f(x1, x2) specified only on x2 = 0 and equal to x1.
        care = {0b00: (0,), 0b10: (1,)}
        spec = MultiOutputSpec(2, 1, care)
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        names = {cf.bdd.name_of(v) for v in removed}
        assert names == {"x2"}
        assert "x2" not in {
            cf.bdd.name_of(v) for v in cf.bdd.support(reduced.root)
        }
        assert refines_spec(reduced, spec)

    def test_no_removal_on_tight_function(self):
        # Table 1's function needs all four inputs.
        spec = table1_spec()
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        assert removed == []
        assert reduced.root == cf.root

    def test_parity_with_dc_half(self):
        # f = x1 XOR x2 on x3 = 0 rows, dc on x3 = 1 rows: x3 removable.
        care = {}
        for m in range(8):
            x1, x2, x3 = (m >> 2) & 1, (m >> 1) & 1, m & 1
            if x3 == 0:
                care[m] = (x1 ^ x2,)
        spec = MultiOutputSpec(3, 1, care)
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        assert {cf.bdd.name_of(v) for v in removed} == {"x3"}

    def test_sect53_memory_halving(self):
        """Removing i variables shrinks a single-memory LUT by 2^-i."""
        care = {0b00: (0,), 0b10: (1,)}
        spec = MultiOutputSpec(2, 1, care)
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        from repro.cascade import synthesize_cascade

        before = synthesize_cascade(cf).memory_bits
        after = synthesize_cascade(reduced).memory_bits
        assert after * (2 ** len(removed)) <= before * 2  # one cell each

    @settings(max_examples=25, deadline=None)
    @given(spec_strategy())
    def test_soundness(self, spec):
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        assert reduced.refines(cf)
        assert reduced.is_wellformed()
        support = cf.bdd.support(reduced.root)
        assert all(v not in support for v in removed)
        for m, values in spec.care.items():
            sample = reduced.sample_output(m)
            for got, want in zip(sample, values):
                if want is not None:
                    assert got == want

    def test_greedy_is_top_down(self):
        # Both variables are individually removable but not both; the
        # greedy removes the topmost one.
        # f(x1,x2) care: (0,0)->0, (1,1)->1; dc elsewhere.
        care = {0b00: (0,), 0b11: (1,)}
        spec = MultiOutputSpec(2, 1, care)
        cf = CharFunction.from_spec(spec)
        reduced, removed = reduce_support(cf)
        assert len(removed) == 1
        assert cf.bdd.name_of(removed[0]) == cf.bdd.order()[0]


# ---------------------------------------------------------------------------
# The pair walk and the upper-part rebuild against the cofactor algorithm
# ---------------------------------------------------------------------------

#: The sifts a Table 4/5 partition may have had before support reduction.
COSTS = (None, "widthsum", "nodes")

TABLE5_ARITH = ("3-digit decimal adder", "5-digit 6-nary to binary", "3-5-7-11 RNS")


def seed_reduction(cf):
    """The seed engine's cofactor algorithm: both cofactors built, then
    compared, and the removed variable's product built from them."""
    with reference.seed_engine():
        return reduce_support(cf)


def assert_matches_cofactor_algorithm(cf):
    reduced, removed = reduce_support(cf)
    seed, seed_removed = seed_reduction(cf)
    assert removed == seed_removed
    # One manager: equal functions are one node.
    assert reduced.root == seed.root
    return reduced


def seed_samples(cf, minterms):
    with reference.seed_engine():
        return [cf.sample_output(m) for m in minterms]


def assert_samples_match(cf, rng, count):
    minterms = [rng.randrange(1 << len(cf.input_vids)) for _ in range(count)]
    assert [cf.sample_output(m) for m in minterms] == seed_samples(cf, minterms)


def fig8_cf():
    """The 250-word Fig. 8 CF (outside words don't care), sifted."""
    word_list = WordList(generate_words(250, seed=2005))
    cf = CharFunction.from_isf(build_wordlist_isf(word_list, dc_outside=True))
    cf.sift(cost="nodes")
    return cf


class TestAgainstCofactorAlgorithm:
    """``reduce_support`` removes the same variables and returns the same
    function as the seed engine's cofactor algorithm, and the sample
    walk returns the sample of χ restricted by every input."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from((0.4, 0.7, 0.9)),
        st.sampled_from(COSTS),
    )
    def test_random_specs(self, seed, n_inputs, n_outputs, dc_prob, cost):
        rng = random.Random(seed)
        spec = random_spec(rng, n_inputs=n_inputs, n_outputs=n_outputs, dc_prob=dc_prob)
        cf = CharFunction.from_spec(spec)
        if cost is not None:
            cf.sift(cost=cost)
        reduced = assert_matches_cofactor_algorithm(cf)
        assert_samples_match(cf, rng, 8)
        assert_samples_match(reduced, rng, 8)
        # General total relations: the choice for one output may
        # constrain another.
        assert_samples_match(algorithm_3_1(reduced), rng, 8)
        assert_samples_match(algorithm_3_3(reduced)[0], rng, 8)

    @pytest.mark.parametrize("name", TABLE5_ARITH)
    def test_sifted_table5_halves(self, name):
        rng = random.Random(name)
        for part in get_benchmark(name).build().bipartition():
            cf = build_sifted_cf(part)
            reduced = assert_matches_cofactor_algorithm(cf)
            assert_samples_match(cf, rng, 20)
            assert_samples_match(algorithm_3_1(reduced), rng, 20)
            assert_samples_match(algorithm_3_3(reduced)[0], rng, 20)

    def test_fig8_cf(self):
        cf = fig8_cf()
        reduced = assert_matches_cofactor_algorithm(cf)
        rng = random.Random(8)
        assert_samples_match(cf, rng, 20)
        assert_samples_match(reduced, rng, 20)
        assert_samples_match(algorithm_3_1(reduced), rng, 20)
        assert_samples_match(algorithm_3_3(reduced)[0], rng, 20)


class TestNothingBuilt:
    """A variable that stays costs no node and no cofactor; sampling
    builds nothing either."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        for name in ("cofactor", "restrict"):
            original = getattr(BDD, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(BDD, name, counted)
        return calls

    @pytest.mark.parametrize("name", TABLE5_ARITH)
    def test_a_variable_that_stays_allocates_nothing(self, name, monkeypatch):
        calls = self._count_calls(monkeypatch)
        stayed = 0
        for part in get_benchmark(name).build().bipartition():
            cf = build_sifted_cf(part)
            bdd = cf.bdd
            for vid in cf.input_vids:
                allocated = len(bdd._vid), bdd._n_alive, bdd._peak_alive
                if not compatible_cofactors(bdd, cf.root, vid):
                    stayed += 1
                    assert (len(bdd._vid), bdd._n_alive, bdd._peak_alive) == allocated
        assert stayed > 0
        assert calls == []

    def test_sampling_allocates_nothing(self, monkeypatch):
        cf = build_sifted_cf(get_benchmark("3-digit decimal adder").build().bipartition()[1])
        reduced, _ = algorithm_3_3(reduce_support(cf)[0])
        calls = self._count_calls(monkeypatch)
        bdd = cf.bdd
        allocated = len(bdd._vid), bdd._n_alive
        rng = random.Random(3)
        for _ in range(50):
            reduced.sample_output(rng.randrange(1 << len(cf.input_vids)))
        assert (len(bdd._vid), bdd._n_alive) == allocated
        assert calls == []

    def test_fig8_design_fills_no_cofactor_entry(self, monkeypatch):
        """The 250-word Fig. 8 design: its support reductions used to put
        15,316 entries in the ``cofactor`` tier (none ever hit) and lift
        the peak to 20,190 live nodes."""
        made = []
        register = stats.register

        def keep(bdd):
            made.append(bdd)
            register(bdd)

        monkeypatch.setattr(stats, "register", keep)
        table6.design_fig8(WordList(generate_words(250, seed=2005)))
        assert sum(b.cache_stats()["tiers"]["cofactor"]["inserts"] for b in made) == 0
        assert max(b._peak_alive for b in made) == 12_555


class TestBudgets:
    """The walks build no cofactor, so they charge their own visits:
    one step per visited node or pair, checked every CHECK_INTERVAL, as
    the kernel charges its frames.  A budget still bounds a long
    support reduction."""

    def test_walk_steps_are_charged(self):
        cf = build_sifted_cf(get_benchmark("3-digit decimal adder").build().bipartition()[0])
        steps = cf.bdd._kernel_steps
        with Budget() as budget:
            _, removed = reduce_support(cf)
            assert removed == [] and budget.steps > 0
            walked = budget.steps
            cf.sample_output(0)
        # Nothing is removed, so no kernel operation runs: every step
        # is a walk's, and none is booked as a kernel step.
        assert cf.bdd._kernel_steps == steps
        assert budget.steps > walked

    @pytest.mark.parametrize(
        "budget, error",
        [
            (lambda: Budget(max_steps=2000), ResourceLimitError),
            (lambda: Budget(deadline_s=0.0), DeadlineError),
        ],
        ids=["steps", "deadline"],
    )
    def test_budget_stops_support_reduction(self, budget, error):
        cf = fig8_cf()
        budget = budget()
        with pytest.raises(error):
            with budget:
                reduce_support(cf)
        # Stopped within one check interval of the step limit (the
        # deadline at the first check).
        assert budget.steps <= 2000 + CHECK_INTERVAL
        check.verify_manager(cf.bdd, [cf.root])
        reduced, removed = reduce_support(cf)
        assert len(removed) == 25 and reduced.is_wellformed()
