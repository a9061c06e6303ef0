"""Tests for Algorithm 3.2 (heuristic minimal clique cover)."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.cf import CharFunction
from repro.cf.width import columns_at_height
from repro.isf import compatible_columns
from repro.isf.compat import ProbeSignatures
from repro.reduce import (
    build_compatibility_graph,
    heuristic_clique_cover,
    verify_clique_cover,
)
from repro.reduce.cliquecover import _sort_key, pair_limit

from tests.conftest import spec_strategy


def cover_of(nodes, edges):
    adjacency = {v: set() for v in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency, heuristic_clique_cover(nodes, adjacency)


def rescanning_cover(nodes, adjacency):
    """The cover before seeds came from a heap: every seed choice
    recounts the degree of every remaining node.  Kept as the oracle."""
    remaining = set(nodes)
    cover = []
    adjacency_get = adjacency.get

    def degree_in(v, pool):
        s = adjacency_get(v)
        return len(s & pool) if s else 0

    isolated = sorted(
        (v for v in remaining if degree_in(v, remaining) == 0), key=_sort_key
    )
    for v in isolated:
        cover.append([v])
        remaining.discard(v)
    while remaining:
        seed = min(remaining, key=lambda v: (degree_in(v, remaining), _sort_key(v)))
        clique = [seed]
        neighbours = adjacency_get(seed)
        candidates = (neighbours & remaining) if neighbours else set()
        candidates.discard(seed)
        while candidates:
            nxt = min(
                candidates, key=lambda v: (degree_in(v, candidates), _sort_key(v))
            )
            clique.append(nxt)
            candidates.discard(nxt)
            candidates &= adjacency_get(nxt, set())
        cover.append(sorted(clique, key=_sort_key))
        remaining -= set(clique)
    return cover


@st.composite
def graphs(draw):
    """Random graphs, stars among them, over int or string nodes."""
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):
        ints = st.integers(-50, 500)
        nodes = draw(st.lists(ints, min_size=n, max_size=n, unique=True))
    else:
        nodes = [f"c{i}" for i in draw(st.permutations(range(n)))]
    adjacency = {v: set() for v in nodes}
    shape = draw(st.sampled_from(["random", "star", "dense"]))
    density = {"random": 0.3, "dense": 0.8, "star": 0.1}[shape]
    rng = random.Random(draw(st.integers(0, 2**32)))
    for a, b in itertools.combinations(nodes, 2):
        # A star's hub (the first node) is adjacent to every other node.
        if (shape == "star" and a == nodes[0]) or rng.random() < density:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return nodes, adjacency


class TestCliqueCover:
    def test_empty_graph(self):
        adjacency, cover = cover_of([], [])
        assert cover == []

    def test_isolated_nodes_are_singletons(self):
        adjacency, cover = cover_of([1, 2, 3], [])
        assert cover == [[1], [2], [3]]

    def test_triangle_is_one_clique(self):
        adjacency, cover = cover_of([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert len(cover) == 1
        assert sorted(cover[0]) == [1, 2, 3]

    def test_path_graph(self):
        # 1-2-3: optimal cover is 2 cliques.
        adjacency, cover = cover_of([1, 2, 3], [(1, 2), (2, 3)])
        assert len(cover) == 2
        assert verify_clique_cover([1, 2, 3], adjacency, cover)

    def test_paper_fig7_structure(self):
        # Example 3.4: edges {1,2}, {1,3}, {3,4} -> cover of size 2.
        adjacency, cover = cover_of([1, 2, 3, 4], [(1, 2), (1, 3), (3, 4)])
        assert len(cover) == 2
        assert verify_clique_cover([1, 2, 3, 4], adjacency, cover)

    def test_deterministic(self):
        nodes = list(range(12))
        rng = random.Random(1)
        edges = [
            (a, b)
            for a in nodes
            for b in nodes
            if a < b and rng.random() < 0.4
        ]
        covers = [cover_of(nodes, edges)[1] for _ in range(3)]
        assert covers[0] == covers[1] == covers[2]

    def test_random_graphs_give_valid_covers(self):
        rng = random.Random(7)
        for trial in range(20):
            n = rng.randint(1, 14)
            nodes = list(range(n))
            edges = [
                (a, b)
                for a in nodes
                for b in nodes
                if a < b and rng.random() < 0.5
            ]
            adjacency, cover = cover_of(nodes, edges)
            assert verify_clique_cover(nodes, adjacency, cover), trial

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_heap_cover_equals_rescanning_cover(self, graph):
        nodes, adjacency = graph
        cover = heuristic_clique_cover(nodes, adjacency)
        assert cover == rescanning_cover(nodes, adjacency)
        assert verify_clique_cover(nodes, adjacency, cover)

    def test_star_is_one_edge_and_singletons(self):
        # Column 0 is compatible with every other column: the 0-1 edge
        # (lowest-id leaf) becomes a clique and the other leaves stay alone.
        nodes = list(range(344))
        adjacency, cover = cover_of(nodes, [(0, v) for v in nodes[1:]])
        assert cover == [[0, 1]] + [[v] for v in nodes[2:]]
        assert cover == rescanning_cover(nodes, adjacency)

    def test_verify_rejects_non_clique(self):
        adjacency, _ = cover_of([1, 2, 3], [(1, 2)])
        assert not verify_clique_cover([1, 2, 3], adjacency, [[1, 2, 3]])

    def test_verify_rejects_missing_node(self):
        adjacency, _ = cover_of([1, 2], [(1, 2)])
        assert not verify_clique_cover([1, 2], adjacency, [[1]])


class TestBuildGraph:
    def test_basic(self):
        adjacency, truncated = build_compatibility_graph(
            [1, 2, 3], lambda a, b: (a + b) % 2 == 1
        )
        assert not truncated
        assert adjacency[1] == {2}
        assert adjacency[2] == {1, 3}

    def test_truncation(self):
        calls = []

        def compat(a, b):
            calls.append((a, b))
            return True

        items = list(range(100))
        adjacency, truncated = build_compatibility_graph(
            items, compat, max_pairs=10
        )
        assert truncated
        assert len(calls) == 10
        # Untouched items remain isolated but present.
        assert all(v in adjacency for v in items)

    def test_zero_pairs_checks_nothing(self):
        calls = []
        adjacency, truncated = build_compatibility_graph(
            [1, 2, 3], lambda a, b: calls.append((a, b)) or True, max_pairs=0
        )
        assert truncated
        assert calls == []
        assert all(not s for s in adjacency.values())

    def test_pair_limit_is_the_largest_fitting_prefix(self):
        for max_pairs in range(200):
            k = pair_limit(10**6, max_pairs)
            assert k * (k - 1) // 2 <= max_pairs < (k + 1) * k // 2
        assert pair_limit(5, 10) == 5
        assert pair_limit(5, None) == 5

    def test_tail_pairs_are_never_visited(self):
        calls = []

        def compat(a, b):
            calls.append((a, b))
            return True

        items = list(range(9))
        adjacency, _ = build_compatibility_graph(items, compat, tail=4)
        assert not any(a >= 5 and b >= 5 for a, b in calls)
        assert len(calls) == 36 - 6
        assert adjacency[8] == {0, 1, 2, 3, 4}

    def test_refused_keys_skip_pairs(self):
        calls = []
        keys = {0: (0b01, 0b10), 1: (0b10, 0b01), 2: (0, 0), 3: None}

        def compat(a, b):
            calls.append((a, b))
            return True

        adjacency, _ = build_compatibility_graph(
            list(keys), compat, signature=keys.get
        )
        # 0 and 1 force opposite values; 3 is compatible with nothing.
        assert calls == [(0, 2), (1, 2)]
        assert adjacency[3] == set()

    @settings(max_examples=40, deadline=None)
    @given(spec_strategy(), st.integers(0, 6))
    def test_signatures_keep_the_graph(self, spec, tail):
        """With and without signatures, the same graph on every height of
        a CF, and no pair inside ``tail`` reaches ``compatible``."""
        cf = CharFunction.from_spec(spec)
        cf.sift()
        bdd = cf.bdd
        sigs = ProbeSignatures(bdd)
        for height in range(1, bdd.num_vars):
            cols = columns_at_height(bdd, cf.root, height)
            tail_cols = set(cols[len(cols) - min(tail, len(cols)):])
            calls = []

            def compat(a, b):
                calls.append((a, b))
                return compatible_columns(bdd, a, b)

            plain, _ = build_compatibility_graph(
                cols, lambda a, b: compatible_columns(bdd, a, b)
            )
            filtered, _ = build_compatibility_graph(
                cols, compat, signature=sigs.key, tail=tail
            )
            inside = {
                (a, b) for a, b in itertools.combinations(cols, 2)
                if a in tail_cols and b in tail_cols
            }
            assert not inside & set(calls)
            for a, b in inside:
                plain[a].discard(b)
                plain[b].discard(a)
            assert filtered == plain
