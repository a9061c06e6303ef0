"""Unit tests for in-place reordering and sifting."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, TRUE, FALSE, from_truth_table, reorder, set_order, sift
from repro.bdd.reorder import SiftSession, width_sum
from repro.bdd.traversal import crossing_counts
from repro.benchfns.registry import get_benchmark
from repro.cf.charfun import CharFunction
from repro.cf.width import sum_of_widths
from repro.errors import IntegrityError, OrderingError

from tests.conftest import brute_force_truth, spec_strategy


def pairs_function(bdd, vids):
    """x0·x3 | x1·x4 | x2·x5: its size depends strongly on the order."""
    f = FALSE
    for i in range(3):
        f = bdd.apply_or(f, bdd.apply_and(bdd.var(vids[i]), bdd.var(vids[i + 3])))
    return f


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

    def test_custom_cost_function(self):
        bdd, vids, f, table = random_function(8)
        calls = []

        def cost(bdd_, roots):
            calls.append(1)
            return float(bdd_.count_nodes(roots[0]))

        sift(bdd, [f], cost_fn=cost)
        assert calls  # the cost function was consulted
        assert brute_force_truth(bdd, f, vids) == table

    def test_multiple_rounds(self):
        bdd, vids, f, table = random_function(9)
        sift(bdd, [f], max_rounds=3)
        assert brute_force_truth(bdd, f, vids) == table


# ---------------------------------------------------------------------------
# Kept widths: a widths=True session against the full-pass reference
# ---------------------------------------------------------------------------


def assert_kept_widths(session):
    """The session's kept counts and sum equal a fresh full pass."""
    bdd = session.bdd
    assert session.counts == crossing_counts(bdd, session.roots)
    assert session.width_sum == width_sum(bdd, session.roots)
    if len(session.roots) == 1:
        assert session.width_sum == sum_of_widths(bdd, session.roots[0])


def assert_exact_refs(session):
    """The session's reference counts and size equal a from-scratch recount."""
    bdd = session.bdd
    nodes = [u for u in bdd.reachable(session.roots) if u > 1]
    recount = dict.fromkeys(nodes, 0)
    for u in nodes:
        for child in (bdd.lo(u), bdd.hi(u)):
            if child > 1:
                recount[child] += 1
    for r in session.roots:
        if r > 1:
            recount[r] += 1
    assert session._ref == recount
    assert session.size == len(nodes) == bdd.num_alive_nodes() == bdd._n_alive


def assert_session_exact(session):
    """Reference counts always, and the kept widths when the session keeps them."""
    assert_exact_refs(session)
    if session.counts is not None:
        assert_kept_widths(session)


def full_pass_width_sum(bdd, roots):
    """The width sum as a plain callable: sift evaluates it at every position."""
    return width_sum(bdd, roots)


def root_sum_of_widths(bdd, roots):
    """The full-pass cost CharFunction.sift used before widths were kept."""
    return float(sum_of_widths(bdd, roots[0]))


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
    # widths=False sessions run the same swaps with the recount alone.
    @settings(max_examples=100, deadline=None)
    @given(
        spec=spec_strategy(max_inputs=4, max_outputs=3),
        widths=st.booleans(),
        data=st.data(),
    )
    def test_random_cfs(self, spec, widths, data):
        cf = CharFunction.from_spec(spec)  # at least one input and one output
        session = SiftSession(cf.bdd, [cf.root], widths=widths)
        assert_session_exact(session)
        apply_moves(session, data, 12)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 5),
        tables=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        extra=st.sampled_from([(), (TRUE,), (FALSE,), (TRUE, FALSE)]),
        widths=st.booleans(),
        data=st.data(),
    )
    def test_random_plain_bdds(self, n, tables, extra, widths, data):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(n)])
        roots = [
            from_truth_table(bdd, vids, [(bits >> m) & 1 for m in range(1 << n)])
            for bits in tables
        ]
        session = SiftSession(bdd, [*roots, *extra], widths=widths)
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
        session = SiftSession(bdd, [top, deep], widths=True)
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
        session = SiftSession(bdd, [f, TRUE], widths=True)
        assert session.counts[bdd.num_vars] == 1  # TRUE alone crosses the bottom
        for level in (0, 1, 2, 1, 0, 2):
            session.swap(level)
            assert_kept_widths(session)

    def test_swaps_that_free_nodes(self):
        bdd = BDD()
        vids = bdd.add_vars([f"x{i}" for i in range(6)])
        f = pairs_function(bdd, vids)
        session = SiftSession(bdd, [f], widths=True)
        before = session.size
        # Bring each partner next to its pair: x0 x3 x1 x4 x2 x5.
        for vid, target in ((vids[3], 1), (vids[4], 3)):
            session.move_var(vid, target)
            assert_kept_widths(session)
        assert session.size < before
        assert session.size == bdd.num_alive_nodes()

    def test_untracked_session_keeps_nothing(self):
        bdd, vids, f, _ = random_function(3)
        session = SiftSession(bdd, [f])
        session.swap(0)
        assert session.counts is None


class TestKeptWidthSift:
    """A sift on the kept width sum decides exactly as the full pass."""

    def test_kept_sum_calls_no_full_pass(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        calls = []
        original = reorder.crossing_counts

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reorder, "crossing_counts", counting)
        bdd, vids, f, table = random_function(11, n=6)
        sift(bdd, [f], cost_fn=width_sum)
        assert calls == []
        assert brute_force_truth(bdd, f, vids) == table

    @settings(max_examples=40, deadline=None)
    @given(spec=spec_strategy(max_inputs=4, max_outputs=3))
    def test_same_order_on_random_cfs(self, spec):
        kept = CharFunction.from_spec(spec)
        full = CharFunction.from_spec(spec)
        cost_kept = sift(
            kept.bdd, [kept.root],
            precedence=kept.precedence_constraints(), cost_fn=width_sum,
        )
        cost_full = sift(
            full.bdd, [full.root],
            precedence=full.precedence_constraints(), cost_fn=root_sum_of_widths,
        )
        assert kept.bdd.order() == full.bdd.order()
        assert cost_kept == cost_full == sum_of_widths(kept.bdd, kept.root)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 6),
        tables=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    )
    def test_same_order_on_random_plain_bdds(self, n, tables):
        orders = []
        for cost_fn in (width_sum, full_pass_width_sum):
            bdd = BDD()
            vids = bdd.add_vars([f"x{i}" for i in range(n)])
            roots = [
                from_truth_table(bdd, vids, [(bits >> m) & 1 for m in range(1 << n)])
                for bits in tables
            ]
            sift(bdd, roots, cost_fn=cost_fn, max_rounds=2)
            orders.append(bdd.order())
        assert orders[0] == orders[1]

    @pytest.mark.parametrize("index", [0, 1])
    def test_same_order_on_3_5_7_rns(self, index):
        part = get_benchmark("3-5-7 RNS").build().bipartition()[index]
        kept = CharFunction.from_isf(part)
        full = CharFunction.from_isf(part)
        kept.sift(cost="widthsum")
        sift(
            full.bdd, [full.root],
            precedence=full.precedence_constraints(), cost_fn=root_sum_of_widths,
        )
        assert kept.bdd.order() == full.bdd.order()
        assert sum_of_widths(kept.bdd, kept.root) == sum_of_widths(full.bdd, full.root)


class TestKeptWidthAudit:
    def test_check_widths_flags_a_corrupt_count(self):
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f], widths=True)
        session.swap(1)
        session.check_widths()
        session.counts[2] += 1
        with pytest.raises(IntegrityError) as info:
            session.check_widths()
        assert [v.kind for v in info.value.violations] == ["counter"]
        assert "section 2" in str(info.value)

    @staticmethod
    def corrupt_first_swap(monkeypatch):
        original = SiftSession.swap
        done = []

        def swap(self, level):
            original(self, level)
            if self.counts is not None and not done:
                self.counts[level + 1] += 1
                done.append(level)

        monkeypatch.setattr(SiftSession, "swap", swap)
        return done

    def test_armed_sift_raises_on_a_corrupt_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        done = self.corrupt_first_swap(monkeypatch)
        bdd, vids, f, _ = random_function(13)
        with pytest.raises(IntegrityError):
            sift(bdd, [f], cost_fn=width_sum)
        assert done

    def test_unarmed_sift_does_not_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        done = self.corrupt_first_swap(monkeypatch)
        bdd, vids, f, table = random_function(13)
        sift(bdd, [f], cost_fn=width_sum)
        assert done
        assert brute_force_truth(bdd, f, vids) == table


class TestRefAudit:
    def test_check_refs_flags_a_corrupt_count(self):
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f])
        session.swap(1)
        session.check_refs()
        u = bdd.lo(f) if bdd.lo(f) > 1 else bdd.hi(f)
        session._ref[u] += 1
        with pytest.raises(IntegrityError) as info:
            session.check_refs()
        assert [v.kind for v in info.value.violations] == ["counter"]
        assert f"node {u}" in str(info.value)

    def test_check_refs_flags_a_drifted_size(self):
        bdd, vids, f, _ = random_function(12)
        session = SiftSession(bdd, [f])
        session.swap(0)
        session.size += 1
        with pytest.raises(IntegrityError, match="live size"):
            session.check_refs()

    @staticmethod
    def corrupt_first_swap(monkeypatch):
        original = SiftSession.swap
        done = []

        def swap(self, level):
            original(self, level)
            if not done:
                self._ref[self.roots[0]] += 1  # a root never dies: the sift goes on
                done.append(level)

        monkeypatch.setattr(SiftSession, "swap", swap)
        return done

    @pytest.mark.parametrize("cost_fn", [None, width_sum])
    def test_armed_sift_raises_on_a_corrupt_count(self, monkeypatch, cost_fn):
        monkeypatch.setenv("REPRO_SELFCHECK", "1")
        done = self.corrupt_first_swap(monkeypatch)
        bdd, vids, f, _ = random_function(13)
        with pytest.raises(IntegrityError, match="reference counts"):
            sift(bdd, [f], cost_fn=cost_fn)
        assert done

    def test_unarmed_sift_does_not_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SELFCHECK", "0")
        calls = []
        monkeypatch.setattr(SiftSession, "check_refs", lambda self: calls.append(1))
        bdd, vids, f, table = random_function(13)
        sift(bdd, [f])
        sift(bdd, [f], cost_fn=width_sum)
        assert calls == []
        assert brute_force_truth(bdd, f, vids) == table


# ---------------------------------------------------------------------------
# Sifted managers pinned byte for byte
# ---------------------------------------------------------------------------

#: BLAKE2b digests of (order, root, _vid, _lo, _hi, _gen, _free,
#: _peak_alive) after ``CharFunction.sift`` on each Table 5 output half.
#: No result depends on node ids (Alg. 3.3 orders columns by rank, see
#: repro.bdd.traversal.node_ranks); the digests guard the swap kernel's
#: allocation history, so a change to how swaps allocate and free, or to
#: how ``CharFunction.from_isf`` builds the CF, shows up here and is
#: re-measured on purpose.  They do not depend on PYTHONHASHSEED.
SIFT_DIGESTS = {
    ("3-digit decimal adder", 0, "widthsum"): "33dfb1a80ffd36cb9a54aad1e305aa48",
    ("3-digit decimal adder", 0, "nodes"): "b2b78e357a407f6b6abff4b6d060583c",
    ("3-digit decimal adder", 1, "widthsum"): "da311415f05d1be5288499c43a343940",
    ("3-digit decimal adder", 1, "nodes"): "b17153d64a3f5ac67cfd7c2627f7cc6f",
    ("5-digit 6-nary to binary", 0, "widthsum"): "d42699da04005de5d7754ee75afbb0fe",
    ("5-digit 6-nary to binary", 0, "nodes"): "fa03b53040d0b14cf6c388e95b803668",
    ("5-digit 6-nary to binary", 1, "widthsum"): "e696fd9212b7bc4f1769bf1aaa1c850f",
    ("5-digit 6-nary to binary", 1, "nodes"): "c3491d9d3766f261ef44f5cd99756365",
}


def manager_digest(cf):
    bdd = cf.bdd
    state = (
        bdd.order(), cf.root, bdd._vid, bdd._lo, bdd._hi, bdd._gen, bdd._free, bdd._peak_alive,
    )
    return hashlib.blake2b(repr(state).encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", ["3-digit decimal adder", "5-digit 6-nary to binary"])
def test_sifted_managers_are_byte_identical(name):
    for index, part in enumerate(get_benchmark(name).build().bipartition()):
        for cost in ("widthsum", "nodes"):
            cf = CharFunction.from_isf(part)
            cf.sift(cost=cost)
            assert manager_digest(cf) == SIFT_DIGESTS[name, index, cost], (index, cost)
