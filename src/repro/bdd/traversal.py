"""Structural traversals: level profiles and crossing-edge analysis.

The paper's width notion (Definition 3.5) counts *distinct targets of
edges crossing a section* between two adjacent levels, which differs
from the naive "nodes per level" profile because edges may skip levels
(and in a BDD_for_CF a skipped output level is exactly how a don't-care
is encoded).  The generic machinery lives here;
:mod:`repro.cf.width` applies the CF-specific conventions.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.bdd import reference
from repro.bdd.manager import FALSE, TRUE, BDD


def internal_nodes(bdd: BDD, roots: Iterable[int]) -> set[int]:
    """Non-terminal nodes reachable from ``roots``."""
    return {u for u in bdd.reachable(roots) if u > 1}


def nodes_by_level(bdd: BDD, roots: Iterable[int]) -> dict[int, set[int]]:
    """Map level -> reachable internal nodes labelled at that level."""
    out: dict[int, set[int]] = {}
    for u in internal_nodes(bdd, roots):
        out.setdefault(bdd.level(u), set()).add(u)
    return out


def level_profile(bdd: BDD, roots: Iterable[int]) -> list[int]:
    """Number of reachable internal nodes at each level, top to bottom."""
    by_level = nodes_by_level(bdd, roots)
    return [len(by_level.get(level, ())) for level in range(bdd.num_vars)]


def crossing_targets(
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> list[set[int]]:
    """Distinct targets of edges crossing each section (Definition 3.5).

    Returns a list indexed by level ``l`` (0..num_vars): entry ``l``
    holds the set of nodes below the section *above* level ``l`` that
    receive an edge from above it.  Edges into constant 0 are never
    counted; edges into constant 1 are counted unless ``count_true`` is
    False.  Root nodes count as receiving an edge from above the top.

    In the paper's height coordinates (height of the root = number of
    variables ``t``), entry ``l`` of this list is the section at height
    ``t - l``; callers convert as needed.
    """
    return _crossing_walk(bdd, roots, count_true)[0]


def _crossing_walk(
    bdd: BDD, roots: Iterable[int], count_true: bool
) -> tuple[list[set[int]], dict[int, int]]:
    """The sections of :func:`crossing_targets` and the ranks of
    :func:`node_ranks`, from one pre-order walk."""
    t = bdd.num_vars
    sections: list[set[int]] = [set() for _ in range(t + 1)]
    level_fn = bdd.level
    lo_of = bdd.lo
    hi_of = bdd.hi

    def record(target: int, from_level: int) -> None:
        # The edge crosses every section between from_level (exclusive)
        # and the target's level (inclusive).
        if target == FALSE:
            return
        if target == TRUE and not count_true:
            return
        to_level = min(level_fn(target), t)
        for section in range(from_level + 1, to_level + 1):
            sections[section].add(target)

    rank: dict[int, int] = {}
    root_list = [r for r in roots]
    for r in root_list:
        record(r, -1)
    stack = root_list[::-1]
    push = stack.append
    while stack:
        u = stack.pop()
        if u in rank:
            continue
        rank[u] = len(rank)
        if u <= 1:
            continue
        level = level_fn(u)
        lo = lo_of(u)
        hi = hi_of(u)
        record(lo, level)
        record(hi, level)
        if hi not in rank:
            push(hi)
        if lo not in rank:
            push(lo)
    return sections, rank


def crossing_counts(
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> list[int]:
    """Sizes of the crossing-target sets of :func:`crossing_targets`.

    Width computations only need ``len(sections[l])``, and those counts
    admit an O(nodes) algorithm that never materializes the sets: a
    target ``u`` belongs to every section between the *highest* edge
    into it (exclusive) and its own level (inclusive), so one
    min-parent-level pass plus a difference array over levels yields
    all counts at once.  The set-based walk is Θ(edges × span) — it
    dominated the sifting cost function's profile — while this is
    linear in the node count.
    """
    if reference.SEED_MODE:
        return [
            len(s) for s in crossing_targets(bdd, roots, count_true=count_true)
        ]
    t = bdd.num_vars
    level_of = bdd._level_of
    vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
    # min_from[target]: level of the highest edge into target (-1 for
    # roots).  Node-id-indexed scratch arrays rather than a dict: this
    # runs once per sift cost evaluation, so per-edge dict hashing
    # dominates.  The stamp array makes the scratch reusable across
    # calls without clearing (a slot is valid only if stamped with the
    # current call's counter).
    n_slots = len(vid_arr)
    scratch = getattr(bdd, "_cross_scratch", None)
    if scratch is None or len(scratch[0]) < n_slots:
        scratch = ([0] * n_slots, [0] * n_slots, [0])
        bdd._cross_scratch = scratch
    stamp_arr, min_from, counter = scratch
    stamp = counter[0] + 1
    counter[0] = stamp
    touched: list[int] = []
    stack: list[int] = []
    for r in roots:
        if r != FALSE and (count_true or r != TRUE) and stamp_arr[r] != stamp:
            stamp_arr[r] = stamp
            min_from[r] = -1
            touched.append(r)
            if r > 1:
                stack.append(r)
    while stack:
        u = stack.pop()
        level = level_of[vid_arr[u]]
        child = lo_arr[u]
        if child != FALSE and (count_true or child != TRUE):
            if stamp_arr[child] != stamp:
                stamp_arr[child] = stamp
                min_from[child] = level
                touched.append(child)
                if child > 1:
                    stack.append(child)
            elif level < min_from[child]:
                min_from[child] = level
        child = hi_arr[u]
        if child != FALSE and (count_true or child != TRUE):
            if stamp_arr[child] != stamp:
                stamp_arr[child] = stamp
                min_from[child] = level
                touched.append(child)
                if child > 1:
                    stack.append(child)
            elif level < min_from[child]:
                min_from[child] = level
    diff = [0] * (t + 2)
    for u in touched:
        mf = min_from[u]
        to_level = t if u <= 1 else level_of[vid_arr[u]]
        if to_level > t:
            to_level = t
        if mf + 1 <= to_level:
            diff[mf + 1] += 1
            diff[to_level + 1] -= 1
    counts: list[int] = []
    acc = 0
    for s in range(t + 1):
        acc += diff[s]
        counts.append(acc)
    return counts


def sections_of(
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> list[set[int]]:
    """Memoized :func:`crossing_targets` for repeated column queries."""
    return ranked_sections(bdd, roots, count_true=count_true)[0]


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
    bdd: BDD,
    roots: Iterable[int],
    *,
    count_true: bool = True,
) -> tuple[list[set[int]], dict[int, int]]:
    """The sections of :func:`crossing_targets` and the ranks of
    :func:`node_ranks`, memoized per root.

    Algorithm 3.3 asks for the columns of the same root once per
    height; the memo makes that one traversal per root instead of one
    per height.  Keyed on (root ids, their generations, count_true);
    the manager clears the memo on every reorder epoch bump and on
    collect, and a generation mismatch catches freed-and-recycled
    roots, so entries can never go stale.  Small FIFO (the working set
    is one or two roots).
    """
    if reference.SEED_MODE:
        return _crossing_walk(bdd, roots, count_true)
    root_tuple = tuple(roots)
    key = (root_tuple, count_true)
    gen = bdd._gen
    gens = tuple(gen[r] for r in root_tuple)
    memo = bdd._sections_memo
    entry = memo.get(key)
    if entry is not None and entry[0] == gens:
        return entry[1]
    walk = _crossing_walk(bdd, root_tuple, count_true)
    if len(memo) >= 4:
        memo.pop(next(iter(memo)))
    memo[key] = (gens, walk)
    return walk


def count_paths_to_one(bdd: BDD, root: int) -> int:
    """Number of distinct root-to-TRUE paths (not minterms)."""
    counts: dict[int, int] = {FALSE: 0, TRUE: 1}
    stack = [root]
    while stack:
        u = stack[-1]
        if u in counts:
            stack.pop()
            continue
        lo, hi = bdd.lo(u), bdd.hi(u)
        ready = True
        if hi not in counts:
            stack.append(hi)
            ready = False
        if lo not in counts:
            stack.append(lo)
            ready = False
        if not ready:
            continue
        stack.pop()
        counts[u] = counts[lo] + counts[hi]
    return counts[root]
