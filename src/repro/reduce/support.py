"""Support-variable reduction (Sect. 3.3).

In incompletely specified functions some variables can be redundant
[14]: an input variable ``x`` can be dropped when the two cofactors of
the characteristic function with respect to ``x`` are compatible — the
don't cares can then be assigned so that no output depends on ``x``.
The paper applies a greedy pass from the root towards the leaves before
running Algorithm 3.1 or 3.3; removing variables often shrinks the
width, and for single-memory realizations removing ``i`` variables
divides the memory size by ``2^i`` (Sect. 5.3).
"""

from __future__ import annotations

from repro.cf.charfun import CharFunction
from repro.isf.compat import compatible_columns


def reduce_support(cf: CharFunction) -> tuple[CharFunction, list[int]]:
    """Greedy redundant-variable removal; returns (reduced CF, removed vids).

    Input variables are visited from the top of the order to the
    bottom; a variable is removed when the χ cofactors with respect to
    it are compatible, by replacing χ with their product (a refinement
    that makes χ independent of the variable).
    """
    bdd = cf.bdd
    root = cf.root
    removed: list[int] = []
    support = bdd.support(root)  # walked again only when χ changes
    for vid in sorted(cf.input_vids, key=bdd.level_of_vid):
        if vid not in support:
            continue
        cof0 = bdd.cofactor(root, vid, 0)
        cof1 = bdd.cofactor(root, vid, 1)
        if compatible_columns(bdd, cof0, cof1):
            root = bdd.apply_and(cof0, cof1)
            removed.append(vid)
            support = bdd.support(root)
    return cf.replaced(root, suffix="/supp"), removed
