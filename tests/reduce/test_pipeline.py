"""Tests for the iterated reduction pipeline (sift + support + Alg 3.3)."""

import random

from hypothesis import given, settings

import repro.bdd.traversal as traversal
import repro.cf.width as width
from repro.bdd import reference
from repro.bdd.io import charfunction_payload, payload_fingerprint
from repro.benchfns.registry import get_benchmark
from repro.cascade import synthesize_cascade
from repro.cf import CharFunction, max_width, width_profile
from repro.errors import CascadeError
from repro.experiments.runner import build_sifted_cf
from repro.isf import table1_spec
from repro.reduce import (
    ReductionReport,
    RoundReport,
    algorithm_3_3,
    full_reduction,
    reduce_support,
)

from tests.conftest import random_spec, spec_strategy


class TestFullReduction:
    def test_table1_reaches_paper_optimum(self):
        cf = CharFunction.from_spec(table1_spec())
        reduced, report = full_reduction(cf)
        assert report.initial_max_width == 8
        assert report.final_max_width <= 4  # one Alg 3.3 pass already gives 4
        assert reduced.is_wellformed()

    def test_report_structure(self):
        cf = CharFunction.from_spec(table1_spec())
        _, report = full_reduction(cf, max_rounds=5)
        assert 1 <= len(report.rounds) <= 5
        for r in report.rounds:
            assert r.max_width >= 1
            assert r.width_sum >= r.max_width
            assert r.nodes >= 1
        assert report.total_removed_vars >= 0

    def test_no_sift_mode(self):
        cf = CharFunction.from_spec(table1_spec())
        reduced, report = full_reduction(cf, sift=False)
        assert reduced.is_wellformed()
        assert report.final_max_width <= report.initial_max_width

    def test_never_worse_than_single_pass(self):
        rng = random.Random(21)
        from repro.reduce import algorithm_3_3

        for _ in range(10):
            spec = random_spec(rng, n_inputs=4, n_outputs=2)
            cf1 = CharFunction.from_spec(spec)
            single, _ = algorithm_3_3(cf1)
            cf2 = CharFunction.from_spec(spec)
            iterated, _ = full_reduction(cf2, sift=False)
            assert max_width(iterated.bdd, iterated.root) <= max_width(
                single.bdd, single.root
            )

    @settings(max_examples=20, deadline=None)
    @given(spec_strategy())
    def test_soundness(self, spec):
        cf = CharFunction.from_spec(spec)
        reduced, _ = full_reduction(cf)
        assert reduced.is_wellformed()
        for m, values in spec.care.items():
            sample = reduced.sample_output(m)
            for got, want in zip(sample, values):
                if want is not None:
                    assert got == want


def _sifted_half(name: str, index: int) -> CharFunction:
    return build_sifted_cf(get_benchmark(name).build().bipartition()[index])


class TestOwnManager:
    """``full_reduction`` runs every round on its own copy of the CF."""

    def test_callers_cf_is_untouched(self):
        cf = _sifted_half("3-digit decimal adder", 1)
        bdd = cf.bdd
        before = (
            bdd.order(), cf.root, cf.num_nodes(),
            payload_fingerprint(charfunction_payload(cf)),
        )
        _, report = full_reduction(cf)
        assert len(report.rounds) >= 2  # a re-sift ran
        assert (
            bdd.order(), cf.root, cf.num_nodes(),
            payload_fingerprint(charfunction_payload(cf)),
        ) == before
        bdd.check_invariants([cf.root])

    def test_no_full_width_pass_inside_a_sift(self, monkeypatch):
        sifting, calls = [], []
        original_sift = CharFunction.sift

        def flagged_sift(self, **kwargs):
            sifting.append(1)
            try:
                original_sift(self, **kwargs)
            finally:
                sifting.pop()

        def counting(original):
            def crossing_counts(*args, **kwargs):
                calls.append(bool(sifting))
                return original(*args, **kwargs)

            return crossing_counts

        monkeypatch.setattr(CharFunction, "sift", flagged_sift)
        monkeypatch.setattr(width, "crossing_counts", counting(width.crossing_counts))
        monkeypatch.setattr(
            traversal, "crossing_counts", counting(traversal.crossing_counts)
        )
        cf = _sifted_half("3-digit decimal adder", 1)
        _, report = full_reduction(cf, sift_cost="widthsum")
        assert len(report.rounds) >= 2  # a re-sift ran
        assert calls and not any(calls)

    def test_one_width_pass_per_report(self, monkeypatch):
        # The initial width, then each round's max width and width sum
        # from one profile: 6 + 13 calls over the six table5-arith halves.
        calls = []

        def counting(original):
            def crossing_counts(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)

            return crossing_counts

        rounds = 0
        for name in ("3-5-7-11 RNS", "5-digit 6-nary to binary", "3-digit decimal adder"):
            for index in (0, 1):
                cf = _sifted_half(name, index)
                with monkeypatch.context() as patch:
                    patch.setattr(width, "crossing_counts", counting(width.crossing_counts))
                    patch.setattr(
                        traversal, "crossing_counts", counting(traversal.crossing_counts)
                    )
                    _, report = full_reduction(cf)
                rounds += len(report.rounds)
        assert (len(calls), rounds) == (19, 13)

    def test_a_widening_round_returns_the_best_cf(self):
        # The round-1 width-sum re-sift widens the round-0 CF, 128 -> 134,
        # and Alg. 3.3 merges nothing back.
        reduced, report = full_reduction(
            _sifted_half("4-digit 11-nary to binary", 1), max_rounds=3
        )
        assert [r.max_width for r in report.rounds] == [128, 134]
        assert max_width(reduced.bdd, reduced.root) == report.final_max_width == 128
        assert reduced.is_wellformed()

    def test_report_leaves_out_a_widening_round(self):
        report = ReductionReport(
            initial_max_width=10,
            rounds=[RoundReport(8, 30, 29, 1, 4), RoundReport(9, 28, 27, 2, 0)],
        )
        assert (report.final_max_width, report.total_removed_vars) == (8, 1)
        report.rounds.pop()
        assert (report.final_max_width, report.total_removed_vars) == (8, 1)


def _pipeline_steps(spec) -> dict:
    """Every step's result on the paper pipeline, in engine-free terms:
    CF build → width-sum sift → support reduction → Alg. 3.3 → cascade."""
    cf = CharFunction.from_spec(spec)
    bdd = cf.bdd
    steps = {"build": (cf.num_nodes(), width_profile(bdd, cf.root))}
    cf.sift(cost="widthsum")
    steps["sift"] = (bdd.order(), width_profile(bdd, cf.root))
    cf, removed = reduce_support(cf)
    steps["support"] = [bdd.name_of(v) for v in removed]
    cf, stats = algorithm_3_3(cf)
    steps["alg33"] = (stats.merges, cf.num_nodes(), width_profile(bdd, cf.root))
    try:
        # Cells small enough that small specs need more than one.
        cascade = synthesize_cascade(cf, max_cell_inputs=4, max_cell_outputs=3)
        steps["cascade"] = cascade.num_cells
    except CascadeError as exc:
        steps["cascade"] = f"CascadeError: {exc}"
    return steps


class TestSeedEngineDifferential:
    """The kernel engine and the recursive seed engine
    (:func:`repro.bdd.reference.seed_engine`) must agree on the results
    of every pipeline step, not only on single operations: a cache or
    kernel change that moves a result shows up here."""

    @settings(max_examples=60, deadline=None)
    @given(spec_strategy(max_inputs=6, max_outputs=3))
    def test_pipeline_matches_seed_engine(self, spec):
        kernel = _pipeline_steps(spec)
        with reference.seed_engine():
            seed = _pipeline_steps(spec)
        assert kernel == seed
