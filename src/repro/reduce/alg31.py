"""Algorithm 3.1: recursive merging of compatible children.

The paper's simplification of Shiple et al. [22], run on the
BDD_for_CF instead of an SBDD:

    From the root node, recursively:
      1. If the function at node v has no don't care, terminate.
      2. Otherwise check whether the two children χ_0, χ_1 are
         compatible.  If they are, replace both with
         χ_new = χ_0 · χ_1 (node v becomes redundant and reduces
         away) and recurse into χ_new; if not, recurse into each child.

This is a *local* node-count reducer; the width-oriented Algorithm 3.3
(:mod:`repro.reduce.alg33`) supersedes it for decomposition (Sect. 3.2).
"""

from __future__ import annotations

from repro.bdd.manager import FALSE, TRUE
from repro.cf.charfun import CharFunction
from repro.isf.compat import compatible_columns
from repro.reduce.dc import DontCareOracle


def algorithm_3_1(cf: CharFunction) -> CharFunction:
    """Apply Algorithm 3.1; returns a refined CF on the same manager.

    The recursion runs on an explicit stack, so deep CFs cannot hit
    the recursion limit.  It makes its manager calls in the order of
    the recursive form, so it allocates the same node ids.
    """
    bdd = cf.bdd
    oracle = DontCareOracle(bdd)
    memo: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    # A frame is [u, parts]: parts is None until u is expanded, then
    # the nodes whose reductions make up u's, (merged,) or (lo, hi),
    # reduced in that order.
    stack: list[list] = [[cf.root, None]]
    while stack:
        frame = stack[-1]
        u, parts = frame
        if parts is None:
            if u in memo:
                stack.pop()
                continue
            if not oracle.node_has_dc(u):
                memo[u] = u
                stack.pop()
                continue
            lo, hi = bdd.lo(u), bdd.hi(u)
            if compatible_columns(bdd, lo, hi):
                parts = (bdd.apply_and(lo, hi),)
            else:
                parts = (lo, hi)
            frame[1] = parts
        pending = next((p for p in parts if p not in memo), None)
        if pending is not None:
            stack.append([pending, None])
            continue
        stack.pop()
        if len(parts) == 1:
            memo[u] = memo[parts[0]]
        else:
            memo[u] = bdd.mk(bdd.var_of(u), memo[parts[0]], memo[parts[1]])
    return cf.replaced(memo[cf.root], suffix="/alg3.1")
