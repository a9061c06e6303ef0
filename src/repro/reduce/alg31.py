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

from repro.cf.charfun import CharFunction
from repro.isf.compat import compatible_columns
from repro.reduce.dc import DontCareOracle


def algorithm_3_1(cf: CharFunction) -> CharFunction:
    """Apply Algorithm 3.1; returns a refined CF on the same manager."""
    bdd = cf.bdd
    oracle = DontCareOracle(bdd)
    memo: dict[int, int] = {}

    def reduce_node(u: int) -> int:
        if u <= 1:
            return u
        cached = memo.get(u)
        if cached is not None:
            return cached
        if not oracle.node_has_dc(u):
            result = u
        else:
            lo, hi = bdd.lo(u), bdd.hi(u)
            if compatible_columns(bdd, lo, hi):
                merged = bdd.apply_and(lo, hi)
                result = reduce_node(merged)
            else:
                result = bdd.mk(bdd.var_of(u), reduce_node(lo), reduce_node(hi))
        memo[u] = result
        return result

    try:
        new_root = reduce_node(cf.root)
    finally:
        # ``reduce_node`` refers to itself through its closure; without
        # the del the cycle keeps ``bdd`` alive until the cyclic GC runs.
        del reduce_node
    return cf.replaced(new_root, suffix="/alg3.1")
