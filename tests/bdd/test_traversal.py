"""Unit tests for Definition 3.5's crossing sections, counts and ranks."""

from hypothesis import given, settings

from repro.bdd import BDD, FALSE, TRUE, SiftSession, crossing_counts, node_ranks, reference
from repro.bdd.traversal import ranked_sections
from repro.cf import CharFunction
from repro.reduce import algorithm_3_3

from tests.conftest import spec_strategy


def chain_function():
    """f = x0 AND x1 AND x2: a 3-node chain."""
    bdd = BDD()
    vids = bdd.add_vars(["x0", "x1", "x2"])
    f = TRUE
    for v in reversed(vids):
        f = bdd.mk(v, FALSE, f)
    return bdd, vids, f


def section_sets(bdd, roots):
    return [set(section) for section in ranked_sections(bdd, roots)[0]]


class TestCrossingTargets:
    def test_chain(self):
        bdd, vids, f = chain_function()
        sections = section_sets(bdd, [f])
        # Section 0 (above everything): just the root.
        assert sections[0] == {f}
        # Section 3 (above terminals): only TRUE (FALSE is excluded).
        assert sections[3] == {TRUE}

    def test_long_edge_counted_in_every_section(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b", "c"])
        # f = a OR (b AND c): the a-node's 1-edge jumps to TRUE.
        f = bdd.apply_or(bdd.var(vids[0]), bdd.apply_and(bdd.var(vids[1]), bdd.var(vids[2])))
        sections = section_sets(bdd, [f])
        # TRUE receives a long edge from the top node, so it appears in
        # sections 1, 2 and 3.
        for s in (1, 2, 3):
            assert TRUE in sections[s]

    def test_false_never_counted(self):
        bdd, vids, f = chain_function()
        for section in section_sets(bdd, [f]):
            assert FALSE not in section

    def test_multiple_roots(self):
        bdd = BDD()
        vids = bdd.add_vars(["a", "b"])
        f = bdd.var(vids[0])
        g = bdd.var(vids[1])
        sections = section_sets(bdd, [f, g])
        assert f in sections[0]
        # g's root sits at level 1; the external edge crosses both
        # sections above it.
        assert g in sections[0] and g in sections[1]

    def test_terminal_roots(self):
        bdd, vids, f = chain_function()
        assert section_sets(bdd, [TRUE]) == [{TRUE}] * 4
        assert section_sets(bdd, [FALSE]) == [set()] * 4
        assert node_ranks(bdd, [FALSE, TRUE]) == {FALSE: 0, TRUE: 1}
        assert crossing_counts(bdd, [FALSE, f, TRUE]) == [2, 2, 2, 1]


def assert_walk_matches_seed_walk(bdd, roots):
    """The one walk gives the seed walk's sections, in rank order."""
    seed_sets, seed_ranks = reference.crossing_walk(bdd, roots)
    lists, ranks = ranked_sections(bdd, roots)
    assert ranks == seed_ranks
    assert list(ranks.values()) == list(range(len(ranks)))
    assert len(lists) == len(seed_sets) == bdd.num_vars + 1
    for members, seed in zip(lists, seed_sets):
        assert set(members) == seed
        assert len(members) == len(seed), "duplicate column"
        assert [ranks[u] for u in members] == sorted(ranks[u] for u in members)
    counts = [len(s) for s in seed_sets]
    assert crossing_counts(bdd, roots) == counts
    return counts


class TestOneWalkMatchesSeedWalk:
    """Sections, counts, ranks and a sift session's starting counts all
    come from the one highest-edge walk; the seed's per-edge set walk
    (:func:`repro.bdd.reference.crossing_walk`) is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(spec_strategy(max_inputs=6, max_outputs=3))
    def test_sifted_and_reduced_cfs(self, spec):
        cf = CharFunction.from_spec(spec)
        cf.sift(cost="widthsum")
        bdd = cf.bdd
        assert_walk_matches_seed_walk(bdd, [cf.root])
        reduced, _ = algorithm_3_3(cf)
        assert_walk_matches_seed_walk(bdd, [reduced.root])
        roots = [TRUE, reduced.root, FALSE, cf.root, reduced.root]
        counts = assert_walk_matches_seed_walk(bdd, roots)
        assert SiftSession(bdd, roots).counts == counts
