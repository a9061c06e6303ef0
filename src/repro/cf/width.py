"""Widths of a BDD_for_CF (Definition 3.5) and column extraction.

The width at height ``k`` is the number of edges crossing the section
between variables ``z_k`` and ``z_{k+1}``, where edges incident to the
same node count once and edges into the constant 0 are not counted
(which also covers Theorem 3.1's "ignore edges that connect output
nodes and the constant 0").  The width at height 0 is 1 by definition.

The *column functions* at a height are the functions of the distinct
crossing targets — the paper's decomposition-chart columns realized on
the BDD (Sect. 3.1, footnote: the all-zero column is not counted, which
corresponds to excluding the constant 0 target).

Widths and columns both come from the one walk of
:mod:`repro.bdd.traversal`, which records the level of each node's
highest incoming edge: width *counts* from
:func:`~repro.bdd.traversal.crossing_counts`, column *lists*, already
in rank order, from the memoized
:func:`~repro.bdd.traversal.ranked_sections`, so Algorithm 3.3's
per-height queries share one traversal.  A width-sum sift does not
call :func:`sum_of_widths` at every position: its
:class:`~repro.bdd.reorder.SiftSession` starts from the same walk's
highest-edge levels and keeps them, and with them the counts, up to
date inside each swap.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bdd.manager import TRUE, BDD
from repro.bdd.traversal import crossing_counts, ranked_sections


def width_profile(bdd: BDD, root: int) -> list[int]:
    """Widths indexed by height ``0 .. t`` (``t`` = number of variables)."""
    t = bdd.num_vars
    counts = crossing_counts(bdd, [root])
    profile = [0] * (t + 1)
    profile[0] = 1
    for height in range(1, t + 1):
        profile[height] = counts[t - height]
    return profile


def max_width(bdd: BDD, root: int) -> int:
    """Maximum width over all sections (the paper's 'Maximum width')."""
    profile = width_profile(bdd, root)
    # Heights 0 and t are the trivial terminal/root sections; the paper's
    # maximum is over the internal structure, but including the trivial
    # sections cannot change the maximum for any non-constant function.
    return max(profile)

def sum_of_widths(bdd: BDD, root: int) -> int:
    """Sum of widths over all heights — the sifting cost of Sect. 5.1."""
    return sum(width_profile(bdd, root))


def columns_at_height(bdd: BDD, root: int, height: int) -> list[int]:
    """Distinct column functions crossing the section at ``height``.

    Targets are the nodes below the section that receive an edge from
    above it; the constant 0 is excluded by Definition 3.5.  The
    constant 1 *is* a column (an "all don't care" column) and may be
    merged with any other column by Algorithm 3.3.  Columns come in
    rank order (:func:`~repro.bdd.traversal.node_ranks`), which depends
    on the BDD's structure alone, not on its node ids.
    """
    t = bdd.num_vars
    if not (1 <= height <= t):
        raise ValueError(f"height must be in 1..{t}, got {height}")
    return list(ranked_sections(bdd, [root])[0][t - height])


def all_columns(bdd: BDD, root: int) -> list[list[int]]:
    """Rank-ordered column lists for every height ``0 .. t`` in one traversal."""
    sections = ranked_sections(bdd, [root])[0]
    return [[TRUE] if root != 0 else []] + [
        list(s) for s in reversed(sections[: bdd.num_vars])
    ]


def substitute_columns(
    bdd: BDD, root: int, height: int, replace: Callable[[int], int]
) -> int:
    """Rebuild the BDD with the nodes at or below ``height`` replaced.

    ``replace`` maps each node at or below the section (terminals
    included) that an edge from above reaches to its replacement, a
    function whose support also lies below the section: Algorithm 3.3
    passes merged columns, support reduction each node ``u`` at the
    removed variable's level to ``lo(u) · hi(u)``.  ``replace`` is
    called once per such node.  Nodes above the section are rebuilt
    through the unique table, so upper nodes that become equal merge
    automatically (Example 3.6).  The rebuild walks with an explicit
    stack, so it cannot hit the recursion limit on deep orders.
    """
    t = bdd.num_vars
    boundary_level = t - height  # nodes at level >= boundary_level are below
    memo: dict[int, int] = {}
    level = bdd.level
    lo_of = bdd.lo
    hi_of = bdd.hi
    var_of = bdd.var_of
    mk = bdd.mk
    memo_get = memo.get

    def resolve(u: int) -> int | None:
        """Rewritten form of ``u`` if already known, else None."""
        if level(u) >= boundary_level:
            r = memo_get(u)
            if r is None:
                r = memo[u] = replace(u)
            return r
        return memo_get(u)

    top = resolve(root)
    if top is not None:
        return top
    stack = [root]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        lo_child = lo_of(u)
        hi_child = hi_of(u)
        lo = resolve(lo_child)
        hi = resolve(hi_child)
        if lo is None:
            stack.append(lo_child)
        if hi is None:
            stack.append(hi_child)
        if lo is None or hi is None:
            continue
        stack.pop()
        memo[u] = mk(var_of(u), lo, hi)
    return memo[root]
