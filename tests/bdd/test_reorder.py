"""Unit tests for in-place reordering and sifting."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, TRUE, FALSE, from_truth_table, reorder, set_order, sift, traversal
from repro.bdd.reorder import SiftSession
from repro.bdd.traversal import crossing_counts
from repro.benchfns.registry import get_benchmark
from repro.benchfns.wordlist import WordList, build_wordlist_isf, generate_words
from repro.cf.charfun import CharFunction
from repro.cf.width import sum_of_widths
from repro.errors import IntegrityError, OrderingError
from repro._config import LIMITS

from tests.conftest import brute_force_truth, spec_strategy


def pairs_function(bdd, vids):
    """x0·x3 | x1·x4 | x2·x5: its size depends strongly on the order."""
    f = FALSE
    for i in range(3):
        f = bdd.apply_or(f, bdd.apply_and(bdd.var(vids[i]), bdd.var(vids[i + 3])))
    return f


#: Test ids of the two sift costs, node count and width sum.
COST_IDS = ["None", "width_sum"]


def random_function(seed, n=5):
    rng = random.Random(seed)
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(n)])
    table = [rng.randint(0, 1) for _ in range(1 << n)]
    f = from_truth_table(bdd, vids, table)
    return bdd, vids, f, table


class TestSwap:
    def test_swap_preserves_semantics(self):
        for seed in range(10):
            bdd, vids, f, table = random_function(seed)
            session = SiftSession(bdd, [f])
            for level in (0, 2, 3, 1, 0, 3):
                session.swap(level)
                assert brute_force_truth(bdd, f, vids) == table, (seed, level)
                bdd.check_invariants([f])

    def test_swap_updates_order(self):
        bdd, vids, f, _ = random_function(1)
        session = SiftSession(bdd, [f])
        session.swap(0)
        assert bdd.order()[:2] == ["x1", "x0"]

    def test_swap_out_of_range(self):
        bdd, vids, f, _ = random_function(2)
        session = SiftSession(bdd, [f])
        with pytest.raises(OrderingError):
            session.swap(len(vids) - 1)
        with pytest.raises(OrderingError):
            session.swap(-1)

    def test_size_tracking_is_exact(self):
        for seed in range(8):
            bdd, vids, f, _ = random_function(seed)
            session = SiftSession(bdd, [f])
            for level in (1, 3, 0, 2, 1):
                session.swap(level)
                assert session.size == bdd.count_nodes(f), seed
                assert session.size == bdd.num_alive_nodes(), seed

    def test_swap_with_multiple_roots(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b", "c"])
        f = bdd.apply_and(bdd.var(vids[0]), bdd.var(vids[2]))
        g = bdd.apply_xor(bdd.var(vids[1]), bdd.var(vids[2]))
        tf = brute_force_truth(bdd, f, vids)
        tg = brute_force_truth(bdd, g, vids)
        session = SiftSession(bdd, [f, g])
        session.swap(0)
        session.swap(1)
        assert brute_force_truth(bdd, f, vids) == tf
        assert brute_force_truth(bdd, g, vids) == tg


class TestSetOrder:
    def test_reaches_target_order(self):
        bdd, vids, f, table = random_function(3)
        target = ["x3", "x0", "x4", "x2", "x1"]
        set_order(bdd, [f], target)
        assert bdd.order() == target
        assert brute_force_truth(bdd, f, vids) == table

    def test_rejects_non_permutation(self):
        bdd, vids, f, _ = random_function(4)
        with pytest.raises(OrderingError):
            set_order(bdd, [f], ["x0", "x1"])


class TestSift:
    def test_sift_preserves_semantics(self):
        bdd, vids, f, table = random_function(5)
        sift(bdd, [f])
        assert brute_force_truth(bdd, f, vids) == table
        bdd.check_invariants([f])

    def test_sift_improves_bad_order(self):
        # f = x0·x3 | x1·x4 | x2·x5 with pairs maximally separated:
        # the classic case where sifting shrinks the BDD.
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(6)])
        f = pairs_function(bdd, vids)
        before = bdd.count_nodes(f)
        sift(bdd, [f])
        after = bdd.count_nodes(f)
        assert after < before

    def test_precedence_respected(self):
        bdd, vids, f, table = random_function(6)
        # Force x0 above x4 and x2 above x3.
        precedence = [(vids[0], vids[4]), (vids[2], vids[3])]
        sift(bdd, [f], precedence=precedence)
        for above, below in precedence:
            assert bdd.level_of_vid(above) < bdd.level_of_vid(below)
        assert brute_force_truth(bdd, f, vids) == table

    def test_precedence_violated_initially(self):
        bdd, vids, f, _ = random_function(7)
        set_order(bdd, [f], ["x4", "x3", "x2", "x1", "x0"])
        with pytest.raises(OrderingError):
            sift(bdd, [f], precedence=[(vids[0], vids[4])])


# ---------------------------------------------------------------------------
# Kept records: a session's highest edges and widths against full passes
# ---------------------------------------------------------------------------


def assert_kept_widths(session):
    """The session's kept counts and sum equal a fresh full pass."""
    bdd = session.bdd
    assert session.counts == crossing_counts(bdd, session.roots)
    assert session.width_sum == full_pass_width_sum(bdd, session.roots)
    if len(session.roots) == 1:
        assert session.width_sum == sum_of_widths(bdd, session.roots[0])


def assert_session_exact(session):
    """The session's highest edges, size and kept widths equal fresh full
    passes, and its audit agrees."""
    bdd = session.bdd
    assert session._mf == traversal.highest_edges(bdd, session.roots)[0]
    nodes = [u for u in bdd.reachable(session.roots) if u > 1]
    assert session.size == len(nodes) == bdd.num_alive_nodes() == bdd._n_alive
    assert_kept_widths(session)
    session.check()


def full_pass_width_sum(bdd, roots):
    """The sum of widths of ``roots`` over every height, from a full pass."""
    return 1 + sum(crossing_counts(bdd, roots)[: bdd.num_vars])


def exploring_sift(bdd, roots, *, precedence=(), widths=False):
    """The oracle of ``sift``: sifting by exploration, costs from full passes.

    Each variable, busiest level first, swaps through every position of
    its admissible range, closer end first, and the cost after each swap
    is read from a full pass (the node count, or with ``widths`` the
    width sum).  It then swaps back to the cheapest position, on equal
    cost the one nearest its start.  A direction ends at the end of the
    range, or at the first position whose live size exceeds
    ``LIMITS.sift_max_growth`` times the size when the variable's turn
    began.  Returns the final cost.
    """

    def cost():
        return full_pass_width_sum(bdd, roots) if widths else bdd.count_nodes(*roots)

    session = SiftSession(bdd, roots)
    current = cost()
    for vid in sorted(range(bdd.num_vars), key=lambda v: -len(bdd._unique[v])):
        lb, ub = reorder._bounds(bdd, vid, precedence)
        start = level = bdd.level_of_vid(vid)
        best_cost, best_level = current, start
        max_size = LIMITS.sift_max_growth * session.size
        for direction in ((1, -1) if ub - start <= start - lb else (-1, 1)):
            limit = ub if direction == 1 else lb
            while level != limit:
                session.swap(level if direction == 1 else level - 1)
                level += direction
                c = cost()
                if c < best_cost or (
                    c == best_cost and abs(level - start) < abs(best_level - start)
                ):
                    best_cost, best_level = c, level
                if session.size > max_size:
                    break
            session.move_var(vid, best_level)
            level = best_level
        current = best_cost
    return float(current)


def apply_moves(session, data, n_moves):
    """Random swaps and move_vars, checking the session after each."""
    t = session.bdd.num_vars
    for _ in range(n_moves):
        if data.draw(st.booleans(), label="move_var"):
            vid = data.draw(st.integers(0, t - 1), label="vid")
            session.move_var(vid, data.draw(st.integers(0, t - 1), label="target"))
        else:
            session.swap(data.draw(st.integers(0, t - 2), label="level"))
        assert_session_exact(session)


class TestKeptWidths:
    @settings(max_examples=100, deadline=None)
    @given(spec=spec_strategy(max_inputs=4, max_outputs=3), data=st.data())
    def test_random_cfs(self, spec, data):
        cf = CharFunction.from_spec(spec)  # at least one input and one output
        session = SiftSession(cf.bdd, [cf.root])
        assert_session_exact(session)
        apply_moves(session, data, 12)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 5),
        tables=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        extra=st.sampled_from([(), (TRUE,), (FALSE,), (TRUE, FALSE)]),
        data=st.data(),
    )
    def test_random_plain_bdds(self, n, tables, extra, data):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(n)])
        roots = [
            from_truth_table(bdd, vids, [(bits >> m) & 1 for m in range(1 << n)])
            for bits in tables
        ]
        session = SiftSession(bdd, [*roots, *extra])
        assert_session_exact(session)
        apply_moves(session, data, 12)
        for bits, root in zip(tables, roots):
            assert brute_force_truth(bdd, root, vids) == [
                (bits >> m) & 1 for m in range(1 << n)
            ]

    def test_root_at_level_zero_and_deep_root(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(5)])
        top = bdd.apply_xor(bdd.var(vids[0]), bdd.var(vids[3]))
        deep = bdd.var(vids[4])  # a root at the bottom level
        session = SiftSession(bdd, [top, deep])
        assert bdd.level(top) == 0 and bdd.level(deep) == 4
        assert_kept_widths(session)
        for level in (3, 2, 3, 0, 1, 0, 2, 3):
            session.swap(level)
            assert_kept_widths(session)

    def test_edges_into_true(self):
        # Every node of an OR chain has an edge into TRUE; the kept
        # counts track TRUE as a crossing target like any other node.
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(4)])
        f = bdd.apply_or(bdd.apply_or(bdd.var(vids[0]), bdd.var(vids[1])), bdd.var(vids[2]))
        session = SiftSession(bdd, [f, TRUE])
        assert session.counts[bdd.num_vars] == 1  # TRUE alone crosses the bottom
        for level in (0, 1, 2, 1, 0, 2):
            session.swap(level)
            assert_kept_widths(session)

    def test_swaps_that_free_nodes(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(6)])
        f = pairs_function(bdd, vids)
        session = SiftSession(bdd, [f])
        before = session.size
        # Bring each partner next to its pair: x0 x3 x1 x4 x2 x5.
        for vid, target in ((vids[3], 1), (vids[4], 3)):
            session.move_var(vid, target)
            assert_kept_widths(session)
        assert session.size < before
        assert session.size == bdd.num_alive_nodes()


class TestKeptWidthSift:
    """A sift on the kept width sum lands where the exploring oracle does."""

    def test_kept_sum_calls_no_full_pass(self, monkeypatch):
        # A sift of either cost walks the BDD twice, both at session
        # start: the collect's reachable walk, then the highest edges.
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        calls = []

        def counting(name, original):
            def walk(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return walk

        monkeypatch.setattr(
            reorder, "highest_edges", counting("highest_edges", reorder.highest_edges)
        )
        monkeypatch.setattr(BDD, "reachable", counting("reachable", BDD.reachable))
        for widths in (False, True):
            bdd, vids, f, table = random_function(11, n=6)
            calls.clear()
            sift(bdd, [f], widths=widths)
            assert calls == ["reachable", "highest_edges"], widths
            assert brute_force_truth(bdd, f, vids) == table

    @settings(max_examples=40, deadline=None)
    @given(spec=spec_strategy(max_inputs=4, max_outputs=3))
    def test_same_order_on_random_cfs(self, spec):
        kept = CharFunction.from_spec(spec)
        full = CharFunction.from_spec(spec)
        cost_kept = sift(
            kept.bdd, [kept.root], precedence=kept.precedence_constraints(), widths=True,
        )
        cost_full = exploring_sift(
            full.bdd, [full.root], precedence=full.precedence_constraints(), widths=True,
        )
        assert kept.bdd.order() == full.bdd.order()
        assert cost_kept == cost_full == sum_of_widths(kept.bdd, kept.root)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        tables=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    )
    def test_same_order_on_random_plain_bdds(self, n, tables):
        results = []
        for run in (sift, exploring_sift):
            bdd = BDD()
            vids = bdd.add_vars([f"x{i}" for i in range(n)])
            roots = [
                from_truth_table(bdd, vids, [(bits >> m) & 1 for m in range(1 << n)])
                for bits in tables
            ]
            results.append((run(bdd, roots, widths=True), bdd.order()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("index", [0, 1])
    def test_same_order_on_3_5_7_rns(self, index):
        part = get_benchmark("3-5-7 RNS").build().bipartition()[index]
        kept = CharFunction.from_isf(part)
        full = CharFunction.from_isf(part)
        kept.sift(cost="widthsum")
        exploring_sift(
            full.bdd, [full.root], precedence=full.precedence_constraints(), widths=True,
        )
        assert kept.bdd.order() == full.bdd.order()
        assert sum_of_widths(kept.bdd, kept.root) == sum_of_widths(full.bdd, full.root)

    def test_tie_beyond_the_start_still_wins(self):
        # x2 starts its turn at level 2 and costs 9 at level 4 and again
        # at level 1.  Level 1 is nearer the start and wins the tie, so
        # the direction up from level 4 must look past the start.
        orders = []
        for run in (sift, exploring_sift):
            bdd = BDD()
            vids = bdd.add_vars([f"x{i}" for i in range(5)])
            f = from_truth_table(bdd, vids, [(0x2000D000 >> m) & 1 for m in range(32)])
            assert run(bdd, [f], widths=True) == 8.0
            orders.append(bdd.order())
        assert orders[0] == orders[1] == ["x1", "x2", "x3", "x4", "x0"]


def shuffle_admissibly(session, precedence, data, n_moves):
    """Random moves, each within the moved variable's admissible range."""
    bdd = session.bdd
    for _ in range(n_moves):
        vid = data.draw(st.integers(0, bdd.num_vars - 1), label="vid")
        lb, ub = reorder._bounds(bdd, vid, precedence)
        session.move_var(vid, data.draw(st.integers(lb, ub), label="target"))


def assert_walks_exact(session, precedence, widths):
    """For every variable and direction, each cost a walk predicts equals
    the session's cost after ``move_var`` to that position, and a walk
    with a size cap stops at the first position above it."""
    bdd = session.bdd
    for vid in range(bdd.num_vars):
        level = bdd.level_of_vid(vid)
        for limit in reorder._bounds(bdd, vid, precedence):
            if limit == level:
                continue
            walk = reorder._walk_down if limit > level else reorder._walk_up
            sizes, sums = walk(session, level, limit, float("inf"), widths)
            assert (sums is None) == (not widths)
            cap = session.size
            capped = walk(session, level, limit, cap, widths)
            cut = next((i + 1 for i, size in enumerate(sizes) if size > cap), len(sizes))
            assert capped == (sizes[:cut], None if sums is None else sums[:cut])
            step = 1 if limit > level else -1
            targets = range(level + step, limit + step, step)
            assert len(sizes) == len(targets)
            for i, target in enumerate(targets):
                session.move_var(vid, target)
                assert sizes[i] == session.size, (vid, level, target)
                if sums is not None:
                    assert sums[i] == session.width_sum, (vid, level, target)
            session.move_var(vid, level)


class TestLookAhead:
    """The walks predict the exact cost of every position."""

    @settings(max_examples=100, deadline=None)
    @given(
        spec=spec_strategy(max_inputs=4, max_outputs=3),
        widths=st.booleans(),
        data=st.data(),
    )
    def test_walks_are_exact_on_random_cfs(self, spec, widths, data):
        cf = CharFunction.from_spec(spec)
        precedence = cf.precedence_constraints()
        session = SiftSession(cf.bdd, [cf.root])
        shuffle_admissibly(session, precedence, data, 4)
        assert_walks_exact(session, precedence, widths)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 5),
        tables=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        extra=st.sampled_from([(), (TRUE,), (FALSE,), (TRUE, FALSE)]),
        widths=st.booleans(),
        data=st.data(),
    )
    def test_walks_are_exact_on_random_plain_bdds(self, n, tables, extra, widths, data):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(n)])
        roots = [
            from_truth_table(bdd, vids, [(bits >> m) & 1 for m in range(1 << n)])
            for bits in tables
        ]
        session = SiftSession(bdd, [*roots, *extra])
        shuffle_admissibly(session, (), data, 4)
        assert_walks_exact(session, (), widths)

    def test_walks_touch_nothing(self):
        bdd, vids, f, _ = random_function(14, n=6)
        session = SiftSession(bdd, [f])
        before = (bdd.order(), bdd._vid[:], bdd._lo[:], bdd._hi[:], bdd._epoch)
        kept = (dict(session._mf), session.counts[:], session.width_sum, session.size)
        for vid in vids:
            level = bdd.level_of_vid(vid)
            for widths in (False, True):
                reorder._walk_down(session, level, bdd.num_vars - 1, float("inf"), widths)
                reorder._walk_up(session, level, 0, float("inf"), widths)
        assert (bdd.order(), bdd._vid, bdd._lo, bdd._hi, bdd._epoch) == before
        assert (session._mf, session.counts, session.width_sum, session.size) == kept

    @staticmethod
    def predict_zero(monkeypatch):
        """Every walk predicts cost 0 everywhere, so each variable swaps."""

        def zero(walk):
            def predict(session, level, limit, max_size, widths):
                sizes, sums = walk(session, level, limit, max_size, widths)
                return [0] * len(sizes), None if sums is None else [0] * len(sums)

            return predict

        for name in ("_walk_down", "_walk_up"):
            monkeypatch.setattr(reorder, name, zero(getattr(reorder, name)))

    @pytest.mark.parametrize("widths", [False, True], ids=COST_IDS)
    def test_armed_sift_raises_on_a_wrong_prediction(self, monkeypatch, widths):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        self.predict_zero(monkeypatch)
        bdd, vids, f, _ = random_function(13)
        with pytest.raises(IntegrityError, match="prediction") as info:
            sift(bdd, [f], widths=widths)
        assert {v.kind for v in info.value.violations} == {"counter"}

    @pytest.mark.parametrize("widths", [False, True], ids=COST_IDS)
    def test_unarmed_sift_does_not_audit(self, monkeypatch, widths):
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        self.predict_zero(monkeypatch)
        bdd, vids, f, table = random_function(13)
        assert sift(bdd, [f], widths=widths) == 0.0  # the predictions went unchecked
        assert brute_force_truth(bdd, f, vids) == table


class TestNodeCountSift:
    """A sift on the kept node count lands where the exploring oracle does."""

    @settings(max_examples=40, deadline=None)
    @given(spec=spec_strategy(max_inputs=4, max_outputs=3))
    def test_same_node_order_on_random_cfs(self, spec):
        walked = CharFunction.from_spec(spec)
        full = CharFunction.from_spec(spec)
        cost_walked = sift(
            walked.bdd, [walked.root], precedence=walked.precedence_constraints(),
        )
        cost_full = exploring_sift(
            full.bdd, [full.root], precedence=full.precedence_constraints(),
        )
        assert walked.bdd.order() == full.bdd.order()
        assert cost_walked == cost_full == walked.num_nodes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        tables=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
        growth=st.sampled_from([1.0, 1.2, LIMITS.sift_max_growth, float("inf")]),
    )
    def test_same_node_order_on_random_plain_bdds(self, n, tables, growth):
        # A small growth limit ends many directions early, in both sifts.
        results = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LIMITS, "sift_max_growth", growth)
            for run in (sift, exploring_sift):
                bdd = BDD()
                vids = bdd.add_vars([f"x{i}" for i in range(n)])
                roots = [
                    from_truth_table(bdd, vids, [(bits >> m) & 1 for m in range(1 << n)])
                    for bits in tables
                ]
                results.append((run(bdd, roots), bdd.order()))
        assert results[0] == results[1]


class TestKeptWidthAudit:
    """``SiftSession.check`` audits the kept crossing counts."""

    def test_check_widths_flags_a_corrupt_count(self):
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f])
        session.swap(1)
        session.check()
        session.counts[2] += 1
        with pytest.raises(IntegrityError) as info:
            session.check()
        assert [v.kind for v in info.value.violations] == ["counter"]
        assert "section 2" in str(info.value)

    def test_audit_does_not_share_the_starting_walk(self, monkeypatch):
        """A fault in the walk the session starts from, which
        ``crossing_counts`` shares, is caught: the audit recounts with
        the seed walk."""
        original = traversal.highest_edges

        def skewed(bdd, roots):
            mf, ranks = original(bdd, roots)
            mf[TRUE] = -1  # as if TRUE were a root
            return mf, ranks

        monkeypatch.setattr(traversal, "highest_edges", skewed)
        monkeypatch.setattr(reorder, "highest_edges", skewed)
        bdd, vids, f, _ = random_function(12)
        assert crossing_counts(bdd, [f])[0] == 2
        session = SiftSession(bdd, [f])
        with pytest.raises(IntegrityError):
            session.check()

    @staticmethod
    def corrupt_first_swap(monkeypatch):
        original = SiftSession.swap
        done = []

        def swap(self, level):
            original(self, level)
            if not done:
                self.counts[level + 1] += 1
                done.append(level)

        monkeypatch.setattr(SiftSession, "swap", swap)
        return done

    def test_armed_sift_raises_on_a_corrupt_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        done = self.corrupt_first_swap(monkeypatch)
        bdd, vids, f, _ = random_function(13)
        with pytest.raises(IntegrityError):
            sift(bdd, [f], widths=True)
        assert done

    def test_unarmed_sift_does_not_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        done = self.corrupt_first_swap(monkeypatch)
        bdd, vids, f, table = random_function(13)
        sift(bdd, [f], widths=True)
        assert done
        assert brute_force_truth(bdd, f, vids) == table


class TestSessionAudit:
    """``SiftSession.check`` audits the highest edges and the live nodes."""

    def test_check_flags_a_corrupt_highest_edge(self):
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f])
        session.swap(1)
        session.check()
        u = bdd.lo(f) if bdd.lo(f) > 1 else bdd.hi(f)
        session._mf[u] += 1
        with pytest.raises(IntegrityError) as info:
            session.check()
        assert [v.kind for v in info.value.violations] == ["counter"]
        assert f"node {u}: kept highest edge" in str(info.value)

    def test_check_flags_a_drifted_size(self):
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f])
        session.swap(0)
        bdd._n_alive += 1
        with pytest.raises(IntegrityError, match="live size"):
            session.check()

    def test_check_flags_an_unreachable_node(self):
        # A node made behind the session's back: no root reaches it.
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f])
        session.swap(2)
        g = bdd.apply_not(f)
        with pytest.raises(IntegrityError) as info:
            session.check()
        details = [str(v) for v in info.value.violations]
        assert f"[counter] node {g}: live, but no root reaches it" in details

    @staticmethod
    def corrupt_first_swap(monkeypatch):
        original = SiftSession.swap
        done = []

        def swap(self, level):
            original(self, level)
            if not done:
                # A root's highest edge stays above every level, so the
                # sift goes on.
                self._mf[self.roots[0]] -= 1
                done.append(level)

        monkeypatch.setattr(SiftSession, "swap", swap)
        return done

    @pytest.mark.parametrize("widths", [False, True], ids=COST_IDS)
    def test_armed_sift_raises_on_a_corrupt_highest_edge(self, monkeypatch, widths):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        done = self.corrupt_first_swap(monkeypatch)
        bdd, vids, f, _ = random_function(13)
        with pytest.raises(IntegrityError, match="sift session failed self-check"):
            sift(bdd, [f], widths=widths)
        assert done

    def test_unarmed_sift_does_not_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        calls = []
        monkeypatch.setattr(SiftSession, "check", lambda self: calls.append(1))
        bdd, vids, f, table = random_function(13)
        sift(bdd, [f])
        sift(bdd, [f], widths=True)
        assert calls == []
        assert brute_force_truth(bdd, f, vids) == table


# ---------------------------------------------------------------------------
# Sifted orders pinned
# ---------------------------------------------------------------------------

#: Final cost and order (top first) of ``sift`` on each Table 5 output
#: half under both costs, and on both 250-word CFs (Table 6's DC=0 and
#: Fig. 8 builds) by node count.  The cost at a position depends on the
#: order alone, so a change that skips swaps or allocates nodes
#: differently keeps every literal; these were measured before the
#: lower-bound exit and hold with it and with the look-ahead walks (the
#: ``3-5-7-11 RNS`` entries, and their digests below, were measured
#: while the session still kept reference counts).
SIFTED_ORDERS = {
    ("3-digit decimal adder", 0, "widthsum"): (
        243,
        "a2_0 a2_1 a2_2 b2_0 b2_1 b2_2 a2_3 b2_3 a1_0 a1_1 a1_2 b1_0 b1_1 b1_2 a1_3 "
        "b1_3 b0_3 a0_3 a0_0 a0_2 a0_1 b0_0 b0_2 b0_1 y4 y8 y6 y5 y7 y3 y2 y1",
    ),
    ("3-digit decimal adder", 0, "nodes"): (
        197,
        "a2_0 a2_1 a2_2 b2_0 b2_1 b2_2 a2_3 b2_3 a1_0 a1_1 b1_0 a1_2 b1_1 b1_2 a1_3 "
        "b1_3 b0_3 a0_3 a0_0 a0_2 a0_1 b0_0 b0_2 b0_1 y4 y8 y6 y5 y7 y3 y2 y1",
    ),
    ("3-digit decimal adder", 1, "widthsum"): (
        270,
        "a2_2 a2_3 b2_3 a2_0 a2_1 b2_0 b2_2 b2_1 y8 y6 y7 y5 a1_3 b1_3 a1_0 a1_2 a1_1 "
        "b1_0 b1_1 b1_2 y4 y2 y1 y3 a0_0 a0_1 a0_2 b0_0 b0_1 b0_2 a0_3 b0_3",
    ),
    ("3-digit decimal adder", 1, "nodes"): (
        225,
        "a2_0 a2_2 a2_3 b2_3 a2_1 b2_0 b2_2 b2_1 y8 y6 y7 y5 a1_3 b1_3 a1_0 a1_2 a1_1 "
        "b1_0 b1_1 b1_2 y4 y2 y1 y3 a0_0 a0_1 a0_2 a0_3 b0_0 b0_1 b0_2 b0_3",
    ),
    ("5-digit 6-nary to binary", 0, "widthsum"): (
        1113,
        "d0_1 d1_0 d1_1 d3_0 d3_1 d2_2 d1_2 d2_0 d2_1 d3_2 d4_0 d4_1 d0_2 d0_0 y7 y5 y1 "
        "y2 y3 y4 y6 d4_2",
    ),
    ("5-digit 6-nary to binary", 0, "nodes"): (
        696,
        "d2_0 d2_1 d3_0 d3_1 d2_2 d3_2 d4_0 d4_1 d1_2 d0_1 d1_0 d1_1 d0_2 d0_0 y7 y5 y1 "
        "y2 y3 y4 y6 d4_2",
    ),
    ("5-digit 6-nary to binary", 1, "widthsum"): (
        238,
        "d0_0 d0_1 d1_0 d1_1 d0_2 d2_0 d2_1 d1_2 d3_0 d3_1 d2_2 d4_0 d4_1 d3_2 y1 y2 y3 "
        "y4 y5 d4_2 y6",
    ),
    ("5-digit 6-nary to binary", 1, "nodes"): (
        217,
        "d0_1 d0_0 d1_0 d1_1 d0_2 d2_0 d2_1 d1_2 d3_0 d3_1 d2_2 d4_0 d4_1 d3_2 y1 y2 y3 "
        "y4 y5 d4_2 y6",
    ),
    ("3-5-7-11 RNS", 0, "widthsum"): (
        723,
        "r3_0 r3_1 r5_0 r5_1 r5_2 r7_0 r7_1 r7_2 r11_3 r11_2 r11_0 r11_1 y5 y4 y6 y2 y3 y1",
    ),
    ("3-5-7-11 RNS", 0, "nodes"): (
        706,
        "r3_0 r3_1 r5_0 r5_1 r5_2 r7_0 r7_1 r7_2 r11_3 r11_2 r11_0 r11_1 y5 y4 y6 y2 y3 y1",
    ),
    ("3-5-7-11 RNS", 1, "widthsum"): (
        761,
        "r3_0 r3_1 r5_0 r5_1 r5_2 r7_0 r7_1 r7_2 r11_0 r11_2 r11_1 r11_3 y1 y2 y3 y4 y5",
    ),
    ("3-5-7-11 RNS", 1, "nodes"): (
        745,
        "r3_0 r3_1 r5_0 r5_1 r5_2 r7_0 r7_1 r7_2 r11_0 r11_2 r11_1 r11_3 y1 y2 y3 y4 y5",
    ),
    ("250 words", False, "nodes"): (
        6169,
        "L7_3 L7_4 L1_4 L1_3 L7_2 L6_2 L6_3 L7_1 L7_0 L1_0 L1_2 L1_1 L0_4 L2_4 L0_0 "
        "L0_1 L0_3 L6_4 L2_3 L5_4 L5_2 L6_0 L6_1 L5_1 L4_1 L4_3 L4_4 L5_3 L4_0 L2_0 "
        "L2_2 L3_3 L3_4 L3_1 L3_2 L4_2 L5_0 L2_1 L3_0 L0_2 y7 y8 y6 y1 y2 y3 y4 y5",
    ),
    ("250 words", True, "nodes"): (
        6168,
        "L7_3 L7_4 L1_4 L1_3 L7_2 L6_2 L6_3 L7_1 L7_0 L1_0 L1_2 L1_1 L0_4 L2_4 L0_0 "
        "L0_1 L0_3 L6_4 L2_3 L5_4 L5_2 L6_0 L6_1 L5_1 L4_1 L4_3 L4_4 L5_3 L4_0 L2_0 "
        "L2_2 L3_3 L3_4 L3_1 L3_2 L4_2 L5_0 L2_1 L3_0 L0_2 y7 y8 y6 y1 y2 y3 y4 y5",
    ),
}


def sifted_order_cases(name):
    if name == "250 words":
        word_list = WordList(generate_words(250, seed=2005))
        for dc_outside in (False, True):
            yield (name, dc_outside, "nodes"), build_wordlist_isf(word_list, dc_outside=dc_outside)
        return
    for index, part in enumerate(get_benchmark(name).build().bipartition()):
        for cost in ("widthsum", "nodes"):
            yield (name, index, cost), part


@pytest.mark.parametrize(
    "name", ["3-digit decimal adder", "5-digit 6-nary to binary", "3-5-7-11 RNS", "250 words"]
)
def test_sifted_orders_are_pinned(name):
    for key, isf in sifted_order_cases(name):
        cf = CharFunction.from_isf(isf)
        final = sift(
            cf.bdd, [cf.root],
            precedence=cf.precedence_constraints(),
            widths=key[2] == "widthsum",
        )
        assert (final, " ".join(cf.bdd.order())) == SIFTED_ORDERS[key], key


# ---------------------------------------------------------------------------
# Sifted managers pinned byte for byte
# ---------------------------------------------------------------------------

#: BLAKE2b digests of (order, root, _vid, _lo, _hi, _gen, _free,
#: _peak_alive) after ``CharFunction.sift`` on each Table 5 output half.
#: No result depends on node ids (Alg. 3.3 orders columns by rank, see
#: repro.bdd.traversal.node_ranks); the digests guard the swap kernel's
#: allocation history, so a change to how swaps allocate and free, to
#: which swaps a sift makes (since the look-ahead walks, only the moves
#: toward each variable's best level), or to how
#: ``CharFunction.from_isf`` builds the CF, shows up here and is
#: re-measured on purpose; ``SIFTED_ORDERS`` pins what must not move.
#: They do not depend on PYTHONHASHSEED.
SIFT_DIGESTS = {
    ("3-digit decimal adder", 0, "widthsum"): "d2c82c464152796a7750e1cd309a6016",
    ("3-digit decimal adder", 0, "nodes"): "c72ca7cee38ed970c76a1b2474cb2215",
    ("3-digit decimal adder", 1, "widthsum"): "80e796bdc1e298751ff5a1a5174e3e73",
    ("3-digit decimal adder", 1, "nodes"): "f63fa480eb158794777013bb0b1bd03b",
    ("5-digit 6-nary to binary", 0, "widthsum"): "b309f4df71853bfc7dcbefc4858d0d37",
    ("5-digit 6-nary to binary", 0, "nodes"): "65abe64910f820e146c08f77924862d1",
    ("5-digit 6-nary to binary", 1, "widthsum"): "9cd0e7e810af710bd9d066414267e553",
    ("5-digit 6-nary to binary", 1, "nodes"): "58348b2480a818c5922f373240970d7c",
    ("3-5-7-11 RNS", 0, "widthsum"): "7603cee2058f00420a5704c67c4b1305",
    ("3-5-7-11 RNS", 0, "nodes"): "7603cee2058f00420a5704c67c4b1305",
    ("3-5-7-11 RNS", 1, "widthsum"): "050bfa87b80d8b6d962a4d9964fe29ef",
    ("3-5-7-11 RNS", 1, "nodes"): "050bfa87b80d8b6d962a4d9964fe29ef",
}


def manager_digest(cf):
    bdd = cf.bdd
    state = (
        bdd.order(), cf.root, bdd._vid, bdd._lo, bdd._hi, bdd._gen, bdd._free, bdd._peak_alive,
    )
    return hashlib.blake2b(repr(state).encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize(
    "name", ["3-digit decimal adder", "5-digit 6-nary to binary", "3-5-7-11 RNS"]
)
def test_sifted_managers_are_byte_identical(name):
    for index, part in enumerate(get_benchmark(name).build().bipartition()):
        for cost in ("widthsum", "nodes"):
            cf = CharFunction.from_isf(part)
            cf.sift(cost=cost)
            assert manager_digest(cf) == SIFT_DIGESTS[name, index, cost], (index, cost)
