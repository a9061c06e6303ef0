"""Copying BDDs between managers.

The experiment pipelines build each BDD_for_CF in its own manager so
that sifting one partition cannot disturb another.  :func:`transfer`
rebuilds functions in a destination manager: a linear node-for-node
rebuild when the destination order agrees with the source order, and an
ITE-based re-normalization when it does not (used to seed fresh
managers with heuristic orders, e.g. FORCE).

:func:`transfer_by_name` is the cross-process variant: worker processes
ship serialized forests back to the parent (``repro.bdd.io``), where
vids are meaningless — variables correspond by *name*.  The parallel
runner uses it to pull a worker's reduced CF into the manager of the
ISF CF so refinement parity checks run in one manager.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bdd.manager import BDD
from repro.errors import VariableError


def transfer(
    src: BDD, dst: BDD, roots: Sequence[int], vid_map: Mapping[int, int]
) -> list[int]:
    """Copy ``roots`` from ``src`` into ``dst``; returns the new roots.

    ``vid_map`` maps source vids to destination vids and must cover the
    support of every root.
    """
    support: set[int] = set()
    for r in roots:
        support |= src.support(r)
    missing = [v for v in support if v not in vid_map]
    if missing:
        names = ", ".join(src.name_of(v) for v in missing)
        raise VariableError(f"vid_map does not cover support variables: {names}")
    pairs = sorted(
        ((src.level_of_vid(s), dst.level_of_vid(d)) for s, d in vid_map.items()),
    )
    dst_levels = [d for _, d in pairs]
    order_consistent = all(
        dst_levels[i] < dst_levels[i + 1] for i in range(len(dst_levels) - 1)
    )

    memo: dict[int, int] = {0: 0, 1: 1}

    def walk(root: int) -> int:
        # Explicit post-order (source BDDs can be deeper than the
        # recursion limit).  When the destination order agrees this is
        # a node-for-node rebuild through the unique table; otherwise
        # ITE re-normalizes the structure to the new order.
        if root in memo:
            return memo[root]
        stack = [root]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            lo, hi = src.lo(u), src.hi(u)
            ready = True
            if hi not in memo:
                stack.append(hi)
                ready = False
            if lo not in memo:
                stack.append(lo)
                ready = False
            if not ready:
                continue
            stack.pop()
            if order_consistent:
                memo[u] = dst.mk(vid_map[src.var_of(u)], memo[lo], memo[hi])
            else:
                var_fn = dst.var(vid_map[src.var_of(u)])
                memo[u] = dst.ite(var_fn, memo[hi], memo[lo])
        return memo[root]

    return [walk(r) for r in roots]


def transfer_by_name(
    src: BDD, dst: BDD, roots: Sequence[int], *, add_missing: bool = True
) -> list[int]:
    """Copy ``roots`` into ``dst``, matching variables by name.

    Support variables of the roots that ``dst`` does not know yet are
    appended to the bottom of its order (in the source's relative
    order) when ``add_missing`` is true, and raise otherwise.  Variable
    kinds travel with the names.  Returns the new roots.
    """
    support: set[int] = set()
    for r in roots:
        support |= src.support(r)
    vid_map: dict[int, int] = {}
    missing: list[int] = []
    dst_names = {dst.name_of(dst.vid_at_level(lv)) for lv in range(dst.num_vars)}
    for s in sorted(support, key=src.level_of_vid):
        name = src.name_of(s)
        if name in dst_names:
            vid_map[s] = dst.vid(name)
        else:
            missing.append(s)
    if missing and not add_missing:
        names = ", ".join(src.name_of(v) for v in missing)
        raise VariableError(f"destination manager lacks variables: {names}")
    for s in missing:
        vid_map[s] = dst.add_var(src.name_of(s), kind=src.kind_of(s))
    return transfer(src, dst, roots, vid_map)
