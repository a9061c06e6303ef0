"""Support-variable reduction (Sect. 3.3).

In incompletely specified functions some variables can be redundant
[14]: an input variable ``x`` can be dropped when the two cofactors of
the characteristic function with respect to ``x`` are compatible — the
don't cares can then be assigned so that no output depends on ``x``.
The paper applies a greedy pass from the root towards the leaves before
running Algorithm 3.1 or 3.3; removing variables often shrinks the
width, and for single-memory realizations removing ``i`` variables
divides the memory size by ``2^i`` (Sect. 5.3).

Neither cofactor is built.  The decision is one pair walk over χ
itself (:func:`~repro.isf.compat.compatible_cofactors`), so a variable
that stays — most of them — allocates no node.  A removed variable
turns χ into ``∀x.χ = χ|x=0 · χ|x=1``: only the part of χ above ``x``'s
level is rebuilt, each ``x``-node replaced by the product of its two
children (:func:`~repro.cf.width.substitute_columns`, the upper-part
rebuild of Algorithm 3.3).  Under the seed engine both steps build the
cofactors, as the seed did.
"""

from __future__ import annotations

from repro.bdd import reference
from repro.bdd.manager import BDD
from repro.cf.charfun import CharFunction
from repro.cf.width import substitute_columns
from repro.isf.compat import compatible_cofactors


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
        if compatible_cofactors(bdd, root, vid):
            root = _forall(bdd, root, vid)
            removed.append(vid)
            support = bdd.support(root)
    return cf.replaced(root, suffix="/supp"), removed


def _forall(bdd: BDD, root: int, vid: int) -> int:
    """``∀x.χ``: the upper part rebuilt over each ``x``-node's ``lo · hi``."""
    if reference.SEED_MODE:
        return bdd.apply_and(bdd.cofactor(root, vid, 0), bdd.cofactor(root, vid, 1))
    split = bdd.level_of_vid(vid)
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid

    def product(u: int) -> int:
        if u > 1 and vid_arr[u] == vid:
            return bdd.apply_and(lo_arr[u], hi_arr[u])
        return u

    return substitute_columns(bdd, root, bdd.num_vars - split, product)
