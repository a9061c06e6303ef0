"""Recursive reference engine (seed parity) for testing and baselines.

Two jobs:

* **Differential oracle.**  The free functions here (``ref_apply_and``
  et al.) are straight recursive implementations with a plain dict
  memo — the pre-kernel seed engine.  Because they run against the
  same manager, canonicity makes "iterative kernel agrees with the
  recursive reference" an exact node-id comparison.
* **Benchmark baseline.**  :func:`seed_engine` patches the seed
  behaviour onto :class:`~repro.bdd.manager.BDD` for the duration of a
  ``with`` block — recursive operations, one flat cache cleared
  wholesale on every reorder swap and GC, and none of the new fast
  paths (``SEED_MODE`` switches the totality/compatibility memos and
  the crossing counts and sections of ``traversal`` back to their
  seed algorithms).  ``BENCH_PR1.json``'s speedup numbers are measured
  against this engine.

:func:`crossing_walk`, the seed's Definition 3.5 walk, adds the target
of every edge to the set of every section the edge crosses.  Besides
serving the seed engine it is the independent oracle for
``traversal``'s one highest-edge walk: the tests compare the two, and
``SiftSession.check`` audits a sift session's live nodes, highest-edge
levels and kept counts against it.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.bdd.kernel import FALSE, TRUE

#: When True, modules with seed/fast dual paths take the seed path.
SEED_MODE = False


def _cache(bdd) -> dict:
    try:
        return bdd._ref_cache
    except AttributeError:
        bdd._ref_cache = {}
        return bdd._ref_cache


# ----------------------------------------------------------------------
# Seed-parity recursive operations
# ----------------------------------------------------------------------


def ref_apply_and(bdd, f: int, g: int) -> int:
    if f == FALSE or g == FALSE:
        return FALSE
    if f == TRUE:
        return g
    if g == TRUE or f == g:
        return f
    if f > g:
        f, g = g, f
    key = ("&", f, g)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    lf, lg = bdd.level(f), bdd.level(g)
    if lf <= lg:
        vid = bdd._vid[f]
        f0, f1 = bdd._lo[f], bdd._hi[f]
    else:
        vid = bdd._vid[g]
        f0 = f1 = f
    if lg <= lf:
        g0, g1 = bdd._lo[g], bdd._hi[g]
    else:
        g0 = g1 = g
    r = bdd.mk(vid, ref_apply_and(bdd, f0, g0), ref_apply_and(bdd, f1, g1))
    cache[key] = r
    return r


def ref_apply_or(bdd, f: int, g: int) -> int:
    if f == TRUE or g == TRUE:
        return TRUE
    if f == FALSE:
        return g
    if g == FALSE or f == g:
        return f
    if f > g:
        f, g = g, f
    key = ("|", f, g)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    lf, lg = bdd.level(f), bdd.level(g)
    if lf <= lg:
        vid = bdd._vid[f]
        f0, f1 = bdd._lo[f], bdd._hi[f]
    else:
        vid = bdd._vid[g]
        f0 = f1 = f
    if lg <= lf:
        g0, g1 = bdd._lo[g], bdd._hi[g]
    else:
        g0 = g1 = g
    r = bdd.mk(vid, ref_apply_or(bdd, f0, g0), ref_apply_or(bdd, f1, g1))
    cache[key] = r
    return r


def ref_apply_xor(bdd, f: int, g: int) -> int:
    if f == g:
        return FALSE
    if f == FALSE:
        return g
    if g == FALSE:
        return f
    if f == TRUE:
        return ref_apply_not(bdd, g)
    if g == TRUE:
        return ref_apply_not(bdd, f)
    if f > g:
        f, g = g, f
    key = ("^", f, g)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    lf, lg = bdd.level(f), bdd.level(g)
    if lf <= lg:
        vid = bdd._vid[f]
        f0, f1 = bdd._lo[f], bdd._hi[f]
    else:
        vid = bdd._vid[g]
        f0 = f1 = f
    if lg <= lf:
        g0, g1 = bdd._lo[g], bdd._hi[g]
    else:
        g0 = g1 = g
    r = bdd.mk(vid, ref_apply_xor(bdd, f0, g0), ref_apply_xor(bdd, f1, g1))
    cache[key] = r
    return r


def ref_apply_not(bdd, f: int) -> int:
    if f <= 1:
        return 1 - f
    key = ("~", f)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    r = bdd.mk(bdd._vid[f], ref_apply_not(bdd, bdd._lo[f]), ref_apply_not(bdd, bdd._hi[f]))
    cache[key] = r
    cache[("~", r)] = f
    return r


def ref_ite(bdd, f: int, g: int, h: int) -> int:
    if f == TRUE:
        return g
    if f == FALSE:
        return h
    if g == h:
        return g
    if g == TRUE and h == FALSE:
        return f
    if g == FALSE and h == TRUE:
        return ref_apply_not(bdd, f)
    key = ("?", f, g, h)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    top = min(bdd.level(f), bdd.level(g), bdd.level(h))
    vid = bdd._var_at_level[top]

    def cof(u: int, which: int) -> int:
        if u <= 1 or bdd._vid[u] != vid:
            return u
        return bdd._hi[u] if which else bdd._lo[u]

    r = bdd.mk(
        vid,
        ref_ite(bdd, cof(f, 0), cof(g, 0), cof(h, 0)),
        ref_ite(bdd, cof(f, 1), cof(g, 1), cof(h, 1)),
    )
    cache[key] = r
    return r


def ref_cofactor(bdd, f: int, vid: int, value: int) -> int:
    if f <= 1:
        return f
    value = 1 if value else 0
    key = ("co", f, vid, value)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    target_level = bdd._level_of[vid]
    level = bdd._level_of[bdd._vid[f]]
    if level > target_level:
        r = f
    elif level == target_level:
        r = bdd._hi[f] if value else bdd._lo[f]
    else:
        r = bdd.mk(
            bdd._vid[f],
            ref_cofactor(bdd, bdd._lo[f], vid, value),
            ref_cofactor(bdd, bdd._hi[f], vid, value),
        )
    cache[key] = r
    return r


def ref_compose(bdd, f: int, vid: int, g: int) -> int:
    if f <= 1:
        return f
    key = ("cmp", f, vid, g)
    cache = _cache(bdd)
    r = cache.get(key)
    if r is not None:
        return r
    target_level = bdd._level_of[vid]
    level = bdd._level_of[bdd._vid[f]]
    if level > target_level:
        r = f
    elif level == target_level:
        r = ref_ite(bdd, g, bdd._hi[f], bdd._lo[f])
    else:
        r = ref_ite(
            bdd,
            bdd.mk(bdd._vid[f], FALSE, TRUE),
            ref_compose(bdd, bdd._hi[f], vid, g),
            ref_compose(bdd, bdd._lo[f], vid, g),
        )
    cache[key] = r
    return r


def seed_ordered_total(bdd, u: int) -> bool:
    """Seed-parity totality check (plain recursive walk + dict memo)."""
    cache = _cache(bdd)
    kinds = bdd._kinds
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid

    def walk(v: int) -> bool:
        if v == TRUE:
            return True
        if v == FALSE:
            return False
        key = ("tot", v)
        r = cache.get(key)
        if r is not None:
            return r
        if kinds[vid_arr[v]] == "output":
            r = walk(lo_arr[v]) or walk(hi_arr[v])
        else:
            r = walk(lo_arr[v]) and walk(hi_arr[v])
        cache[key] = r
        return r

    try:
        return walk(u)
    finally:
        del walk  # the closure refers to itself: free it without the cyclic GC


def seed_compatible_columns(bdd, a: int, b: int) -> bool:
    """Seed-parity compatibility: no pair memo, just the conjunction."""
    if a == FALSE or b == FALSE:
        return False
    product = bdd.apply_and(a, b)
    if product == FALSE:
        return False
    return seed_ordered_total(bdd, product)


def crossing_walk(bdd, roots) -> tuple[list[set[int]], dict[int, int]]:
    """Seed-parity crossing targets of every section, and pre-order ranks.

    Entry ``l`` of the first result (``0 .. num_vars``) is the set of
    nodes below the section above level ``l`` that receive an edge from
    above it: every edge adds its target to each section between its
    source level (exclusive, -1 for a root) and its target's level
    (inclusive); edges into constant 0 add nothing.  The ranks are
    those of ``traversal.node_ranks``.  Θ(edges × span) set insertions.
    """
    t = bdd.num_vars
    sections: list[set[int]] = [set() for _ in range(t + 1)]

    def record(target: int, from_level: int) -> None:
        if target != FALSE:
            for section in range(from_level + 1, min(bdd.level(target), t) + 1):
                sections[section].add(target)

    rank: dict[int, int] = {}
    root_list = list(roots)
    for r in root_list:
        record(r, -1)
    stack = root_list[::-1]
    while stack:
        u = stack.pop()
        if u in rank:
            continue
        rank[u] = len(rank)
        if u <= 1:
            continue
        level = bdd.level(u)
        lo, hi = bdd._lo[u], bdd._hi[u]
        record(lo, level)
        record(hi, level)
        if hi not in rank:
            stack.append(hi)
        if lo not in rank:
            stack.append(lo)
    return sections, rank


# ----------------------------------------------------------------------
# The seed engine as a context
# ----------------------------------------------------------------------

#: (method name, seed implementation) pairs installed by seed_engine().
_PATCHED_OPS = (
    ("apply_and", ref_apply_and),
    ("apply_or", ref_apply_or),
    ("apply_xor", ref_apply_xor),
    ("apply_not", ref_apply_not),
    ("ite", ref_ite),
    ("cofactor", ref_cofactor),
)


@contextmanager
def seed_engine():
    """Run the seed engine for the duration of the block.

    Patches the recursive operation bodies onto :class:`BDD`, restores
    the seed maintenance policy (the flat cache is cleared wholesale on
    every reorder swap and on any GC that frees nodes), and flips
    :data:`SEED_MODE` so the analyses take their seed code paths.
    Instantiated managers keep working after the block ends — only the
    class-level behaviour is swapped.
    """
    global SEED_MODE
    from repro.bdd.manager import BDD

    saved = {name: BDD.__dict__[name] for name, _ in _PATCHED_OPS}
    saved["clear_cache"] = BDD.__dict__["clear_cache"]
    saved["collect"] = BDD.__dict__["collect"]
    saved["_note_reorder"] = BDD.__dict__["_note_reorder"]

    def seed_clear_cache(self):
        _cache(self).clear()
        saved["clear_cache"](self)

    def seed_collect(self, roots):
        freed = saved["collect"](self, roots)
        if freed:
            _cache(self).clear()
        return freed

    def seed_note_reorder(self):
        _cache(self).clear()
        saved["_note_reorder"](self)

    try:
        for name, fn in _PATCHED_OPS:
            setattr(BDD, name, fn)
        BDD.clear_cache = seed_clear_cache
        BDD.collect = seed_collect
        BDD._note_reorder = seed_note_reorder
        SEED_MODE = True
        yield
    finally:
        SEED_MODE = False
        for name, fn in saved.items():
            setattr(BDD, name, fn)
