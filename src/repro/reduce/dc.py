"""Don't-care detection inside a BDD_for_CF.

A don't care shows up in a BDD_for_CF in exactly one way for a
well-formed CF (Definition 2.4 places y_i below the support of f_i, so
a y node on a non-zero path always has one constant-0 child): an
*output level that a path skips*.  These helpers decide whether the
sub-CF hanging off a node (or reached through a possibly level-skipping
edge) contains any don't care; Algorithm 3.1 uses them to prune its
recursion and Algorithm 3.3 to skip heights where no merging can help.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.bdd.manager import FALSE, BDD


class DontCareOracle:
    """Caches per-node don't-care presence for one (root, order) snapshot.

    Invalidated by reordering; create a fresh oracle after any order
    change.
    """

    def __init__(self, bdd: BDD):
        self.bdd = bdd
        self._output_levels = sorted(
            bdd.level_of_vid(v) for v in range(bdd.num_vars) if bdd.is_output_vid(v)
        )
        self._node_cache: dict[int, bool] = {}

    def _skips_output(self, upper_level: int, lower_level: int) -> bool:
        """Any output level strictly between the two levels?"""
        levels = self._output_levels
        i = bisect_right(levels, upper_level)
        return i < len(levels) and levels[i] < lower_level

    def edge_has_dc(self, parent_level: int, child: int) -> bool:
        """Don't care reachable through an edge from ``parent_level``.

        ``parent_level`` is -1 for the external edge into the root.
        Edges into the constant 0 are not paths and contribute nothing.
        """
        if child == FALSE:
            return False
        bdd = self.bdd
        child_level = min(bdd.level(child), bdd.num_vars)
        if self._skips_output(parent_level, child_level):
            return True
        return self.node_has_dc(child)

    def node_has_dc(self, u: int) -> bool:
        """Don't care anywhere in the sub-CF rooted at ``u``.

        A node has one when both its output choices are allowed, or
        when its lo edge, else its hi edge, has one (:meth:`edge_has_dc`).
        The walk keeps its path on an explicit stack, so deep CFs cannot
        hit the recursion limit, and it stops at the first such edge, so
        it caches the nodes a recursive walk would.
        """
        if u <= 1:
            return False
        cache = self._node_cache
        if u in cache:
            return cache[u]
        bdd = self.bdd
        t = bdd.num_vars
        level_of, vid_arr = bdd._level_of, bdd._vid
        lo_arr, hi_arr = bdd._lo, bdd._hi
        is_output = bdd.is_output_vid
        stack = [u]
        while stack:
            v = stack[-1]
            level = level_of[vid_arr[v]]
            lo, hi = lo_arr[v], hi_arr[v]
            if is_output(vid_arr[v]) and lo != FALSE and hi != FALSE:
                # Both output choices allowed: a don't care encoded in
                # place (possible in non-well-formed CFs; Fig. 1(c)
                # before reduction).
                result = True
            else:
                result = False
                for child in (lo, hi):
                    if child == FALSE:
                        continue
                    if self._skips_output(level, level_of[vid_arr[child]] if child > 1 else t):
                        result = True
                        break
                    if child > 1:
                        result = cache.get(child)
                        if result is None:
                            stack.append(child)  # revisit v once it is known
                            break
                        if result:
                            break
            if result is not None:
                cache[v] = result
                stack.pop()
        return cache[u]

    def column_has_dc(self, column: int, height: int) -> bool:
        """Don't care in a column crossing the section at ``height``.

        Output levels between the section and the column's top variable
        were skipped by every edge into the column, so they are don't
        cares of the column even though they are not inside its
        subgraph.
        """
        bdd = self.bdd
        section_level = bdd.num_vars - height  # first level below the section
        column_level = min(bdd.level(column), bdd.num_vars)
        if self._skips_output(section_level - 1, column_level):
            return True
        return self.node_has_dc(column)
