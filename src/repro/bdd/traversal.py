"""Definition 3.5's crossing sections, counts and ranks from one walk.

The paper's width notion (Definition 3.5) counts *distinct targets of
edges crossing a section* between two adjacent levels, edges into the
constant 0 excluded.  That differs from the naive "nodes per level"
profile because edges may skip levels (and in a BDD_for_CF a skipped
output level is exactly how a don't care is encoded).

A target crosses every section between its *highest* incoming edge
(exclusive) and its own level (inclusive), whatever its other edges
do.  So one pre-order walk (:func:`highest_edges`) that records, per
reachable node, the level of that edge and the node's rank gives
everything: the counts are one difference array over the map
(:func:`section_counts`), and appending each node in rank order to
every section it crosses yields rank-ordered, duplicate-free columns
(:func:`ranked_sections`).  The sift session of
:mod:`repro.bdd.reorder` starts its kept counts from the same map.
The seed engine's per-edge set walk lives on in
:func:`repro.bdd.reference.crossing_walk`.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate

from repro.bdd import reference
from repro.bdd.manager import FALSE, BDD


def highest_edges(
    bdd: BDD, roots: Iterable[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """The level of each node's highest incoming edge, and its rank.

    Both maps cover every node reachable from ``roots``, terminals
    included, except that the constant 0 gets no edge level: edges
    into it cross no section.  A root's edge level is -1 (the external
    edge above the top level).  The rank is the node's pre-order
    position, depth first from each root in turn, lo child before hi
    child; the rank map iterates in rank order.
    """
    t = bdd.num_vars
    level_of, vid_arr = bdd._level_of, bdd._vid
    lo_arr, hi_arr = bdd._lo, bdd._hi
    stack = list(roots)
    mf = {r: -1 for r in stack if r != FALSE}
    get = mf.get
    stack.reverse()
    push, pop = stack.append, stack.pop
    rank: dict[int, int] = {}
    n = 0
    while stack:
        u = pop()
        if u in rank:
            continue
        rank[u] = n
        n += 1
        if u <= 1:
            continue
        level = level_of[vid_arr[u]]
        lo, hi = lo_arr[u], hi_arr[u]
        if lo and get(lo, t) > level:
            mf[lo] = level
        if hi and get(hi, t) > level:
            mf[hi] = level
        if hi not in rank:
            push(hi)
        if lo not in rank:
            push(lo)
    return mf, rank


def section_counts(bdd: BDD, mf: dict[int, int]) -> list[int]:
    """Crossing counts of sections ``0 .. t`` from a highest-edge map.

    Node ``u`` crosses sections ``mf[u] + 1`` through its own level,
    the constant 1 through ``t``; one difference array over levels
    adds them all up.
    """
    t = bdd.num_vars
    level_of, vid_arr = bdd._level_of, bdd._vid
    diff = [0] * (t + 2)
    for u, m in mf.items():
        diff[m + 1] += 1
        diff[(level_of[vid_arr[u]] if u > 1 else t) + 1] -= 1
    return list(accumulate(diff[: t + 1]))


def crossing_counts(bdd: BDD, roots: Iterable[int]) -> list[int]:
    """Distinct targets of edges crossing each section (Definition 3.5).

    Entry ``l`` (``0 .. num_vars``) counts the nodes below the section
    *above* level ``l`` that receive an edge from above it; roots
    receive one from above the top, the constant 1 counts, the
    constant 0 never does.  In the paper's height coordinates (the
    root at height ``t`` = number of variables) entry ``l`` is the
    section at height ``t - l``.
    """
    if reference.SEED_MODE:
        return [len(s) for s in reference.crossing_walk(bdd, roots)[0]]
    return section_counts(bdd, highest_edges(bdd, roots)[0])


def node_ranks(bdd: BDD, roots: Iterable[int]) -> dict[int, int]:
    """Pre-order position of every node reachable from ``roots``.

    Depth first from each root in turn, lo child before hi child,
    terminals included.  A rank depends only on the structure below
    the roots, never on how the manager numbered its nodes, so a copy
    of the BDD in another manager ranks its nodes alike; Algorithm 3.3
    orders its columns and breaks its ties by rank.  The walk is the
    one :func:`ranked_sections` memoizes, so it runs once per root.
    """
    return ranked_sections(bdd, roots)[1]


def ranked_sections(
    bdd: BDD, roots: Iterable[int]
) -> tuple[list[list[int]], dict[int, int]]:
    """The crossing targets of every section, and the ranks of
    :func:`node_ranks`, memoized per root.

    Entry ``l`` lists the targets that :func:`crossing_counts` counts
    for section ``l``, in rank order.  Algorithm 3.3 asks for the
    columns of the same root once per height; the memo makes that one
    traversal per root instead of one per height.  Keyed on the root
    ids and their generations; the manager clears the memo on every
    reorder epoch bump and on collect, and a generation mismatch
    catches freed-and-recycled roots, so entries can never go stale.
    Small FIFO (the working set is one or two roots).  Callers must
    not mutate the lists.
    """
    if reference.SEED_MODE:
        sets, ranks = reference.crossing_walk(bdd, roots)
        return [sorted(s, key=ranks.__getitem__) for s in sets], ranks
    root_tuple = tuple(roots)
    gen = bdd._gen
    gens = tuple(gen[r] for r in root_tuple)
    memo = bdd._sections_memo
    entry = memo.get(root_tuple)
    if entry is not None and entry[0] == gens:
        return entry[1]
    mf, ranks = highest_edges(bdd, root_tuple)
    t = bdd.num_vars
    level_of, vid_arr = bdd._level_of, bdd._vid
    sections: list[list[int]] = [[] for _ in range(t + 1)]
    for u in ranks:
        if u != FALSE:
            for s in range(mf[u] + 1, (level_of[vid_arr[u]] if u > 1 else t) + 1):
                sections[s].append(u)
    walk = (sections, ranks)
    if len(memo) >= 4:
        memo.pop(next(iter(memo)))
    memo[root_tuple] = (gens, walk)
    return walk
