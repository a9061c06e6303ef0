"""Tests for the cooperative resource governor (``repro.bdd.governor``).

The load-bearing property is not just that budgets raise — it is that
the manager is left *consistent and usable* after an abort: partial
results are valid nodes, invariants hold, and subsequent operations
compute the same functions a fresh ungoverned manager computes.
"""

import itertools
import re

import pytest

from repro.bdd import BDD, Budget, sift
from repro.bdd import governor, reorder
from repro.benchfns.registry import get_benchmark
from repro.cf.charfun import CharFunction
from repro.errors import BudgetError, DeadlineError, ResourceLimitError

N_VARS = 14


def _build_stress(bdd, vids):
    """A function family that costs plenty of kernel steps to build."""
    f = bdd.var(vids[0])
    for v in vids[1:]:
        f = bdd.apply_xor(f, bdd.var(v))
    g = bdd.TRUE
    for a, b in zip(vids, vids[1:]):
        g = bdd.apply_and(g, bdd.apply_or(bdd.var(a), bdd.var(b)))
    return bdd.apply_and(f, g)


@pytest.fixture
def bdd():
    b = BDD()
    b.add_vars([f"x{i}" for i in range(N_VARS)])
    return b


class TestBudgetBasics:
    def test_unlimited_budget_never_raises(self, bdd):
        with Budget():
            _build_stress(bdd, list(range(N_VARS)))

    def test_inactive_outside_with(self, bdd):
        budget = Budget(max_steps=1)
        assert governor.active() is None
        with budget:
            assert governor.active() is budget
        assert governor.active() is None
        _build_stress(bdd, list(range(N_VARS)))  # no budget, no raise

    def test_step_budget_raises_resource_limit(self, bdd):
        with pytest.raises(ResourceLimitError) as excinfo:
            with Budget(max_steps=100):
                _build_stress(bdd, list(range(N_VARS)))
        assert excinfo.value.budget is not None

    def test_node_budget_raises(self, bdd):
        with pytest.raises(ResourceLimitError, match="node budget"):
            with Budget(max_nodes=30):
                _build_stress(bdd, list(range(N_VARS)))

    def test_deadline_raises_deadline_error(self, bdd):
        with pytest.raises(DeadlineError):
            with Budget(deadline_s=0.0):
                _build_stress(bdd, list(range(N_VARS)))

    def test_budget_errors_are_budget_error(self, bdd):
        with pytest.raises(BudgetError):
            with Budget(max_steps=1):
                _build_stress(bdd, list(range(N_VARS)))

    def test_error_carries_owning_budget(self, bdd):
        budget = Budget(max_steps=50)
        try:
            with budget:
                _build_stress(bdd, list(range(N_VARS)))
        except ResourceLimitError as exc:
            assert exc.budget is budget
        else:
            pytest.fail("step budget did not trip")

    def test_nested_outermost_checked_first(self, bdd):
        outer = Budget(max_steps=10)
        inner = Budget(max_steps=10)
        try:
            with outer, inner:
                _build_stress(bdd, list(range(N_VARS)))
        except ResourceLimitError as exc:
            assert exc.budget is outer
        else:
            pytest.fail("budgets did not trip")


class TestManagerUsableAfterAbort:
    def test_apply_abort_leaves_manager_consistent(self, bdd):
        with pytest.raises(ResourceLimitError):
            with Budget(max_steps=200):
                _build_stress(bdd, list(range(N_VARS)))
        bdd.check_invariants()
        # Differential check against a fresh, ungoverned manager: the
        # same operations must produce the same Boolean functions.
        ref = BDD()
        ref.add_vars([f"x{i}" for i in range(N_VARS)])
        f = _build_stress(bdd, list(range(6)))
        g = _build_stress(ref, list(range(6)))
        for bits in itertools.product((0, 1), repeat=6):
            assign = {i: bits[i] for i in range(6)}
            assign.update({i: 0 for i in range(6, N_VARS)})
            assert bdd.evaluate(f, assign) == ref.evaluate(g, assign)

    def test_sift_abort_leaves_manager_consistent(self, bdd):
        roots = [_build_stress(bdd, list(range(N_VARS)))]
        before = [
            bdd.evaluate(roots[0], {i: (i * 7) % 2 for i in range(N_VARS)})
            for _ in range(1)
        ]
        with pytest.raises(ResourceLimitError):
            with Budget(max_steps=1):
                sift(bdd, roots)
        bdd.check_invariants()
        # The root still denotes the same function (reordering is
        # in-place and semantics-preserving, aborted or not).
        after = bdd.evaluate(roots[0], {i: (i * 7) % 2 for i in range(N_VARS)})
        assert after == before[0]
        # And the manager still works: finish the sift ungoverned.
        sift(bdd, roots)
        bdd.check_invariants()

    def test_sift_deadline_abort(self, bdd):
        roots = [_build_stress(bdd, list(range(N_VARS)))]
        with pytest.raises(DeadlineError):
            with Budget(deadline_s=0.0):
                sift(bdd, roots)
        bdd.check_invariants()


class TestCheckpointSemantics:
    def test_checkpoint_charges_all_active_budgets(self):
        a = Budget(max_steps=10_000)
        b = Budget(max_steps=10_000)
        with a, b:
            governor.checkpoint(None, 64)
        assert a.steps == 64
        assert b.steps == 64

    def test_sift_charges_swaps_and_walked_levels(self, monkeypatch):
        # One step per swap and one per level a look-ahead walk crosses.
        walked = []
        for name in ("_walk_down", "_walk_up"):
            def counting(session, level, limit, max_size, widths, walk=getattr(reorder, name)):
                sizes, sums = walk(session, level, limit, max_size, widths)
                walked.append(len(sizes))
                return sizes, sums

            monkeypatch.setattr(reorder, name, counting)
        part = get_benchmark("3-digit decimal adder").build().bipartition()[0]
        cf = CharFunction.from_isf(part)
        epoch = cf.bdd._epoch
        with Budget(max_steps=10**9) as budget:
            cf.sift(cost="widthsum")
        swaps = cf.bdd._epoch - epoch
        assert (swaps, sum(walked)) == (46, 588)
        assert budget.steps == swaps + sum(walked)

    def test_note_degraded_records_on_active_budgets(self):
        budget = Budget()
        with budget:
            governor.note_degraded("sift aborted")
        assert budget.degradations == ["sift aborted"]

    def test_note_degraded_noop_without_budget(self):
        governor.note_degraded("nobody listening")  # must not raise

    def test_overshoot_is_bounded_by_check_interval(self, bdd):
        budget = Budget(max_steps=10)
        with pytest.raises(ResourceLimitError):
            with budget:
                _build_stress(bdd, list(range(N_VARS)))
        # Charged in CHECK_INTERVAL quanta: one interval past the limit
        # at most (this is a governor, not a hard rlimit).
        assert budget.steps <= 10 + 2 * governor.CHECK_INTERVAL


class TestCharFunctionBuild:
    """The one-walk CF build is governed like the apply kernel: its
    state visits are steps, checked every CHECK_INTERVAL of them."""

    @staticmethod
    def _wordlist_isf():
        from repro.benchfns.wordlist import (
            WordList,
            build_wordlist_isf,
            generate_words,
        )

        return build_wordlist_isf(WordList(generate_words(250, seed=2005)))

    def test_walk_steps_are_charged(self):
        isf = self._wordlist_isf()
        with Budget() as budget:
            cf = CharFunction.from_isf(isf)
        # No kernel operation runs for this ISF: every step is the walk's.
        assert budget.steps > cf.num_nodes()
        assert budget.steps == cf.bdd._kernel_steps

    def test_node_budget_stops_the_build(self):
        isf = self._wordlist_isf()
        with pytest.raises(ResourceLimitError, match="node budget") as excinfo:
            with Budget(max_nodes=1000):
                CharFunction.from_isf(isf)
        # One node per visited state, made when its children are done:
        # one interval's visits plus the nodes still pending on the walk's
        # path, at most one per variable.
        alive = int(re.search(r"\((\d+) nodes alive\)", str(excinfo.value))[1])
        depth = len(isf.input_vids) + isf.n_outputs
        assert alive <= 1000 + governor.CHECK_INTERVAL + depth

    def test_step_budget_stops_the_build(self):
        isf = self._wordlist_isf()
        budget = Budget(max_steps=2000)
        with pytest.raises(ResourceLimitError, match="apply-step budget"):
            with budget:
                CharFunction.from_isf(isf)
        assert budget.steps <= 2000 + governor.CHECK_INTERVAL
