"""Generalized cofactors: Coudert-Madre ``constrain`` and ``restrict``.

These are the classic *node-count-oriented* don't-care minimizers the
paper contrasts with (its references [3], [6], [22] all build on them):
given a function ``f`` and a care set ``c``, find a function that
agrees with ``f`` on ``c`` and is (heuristically) small.

* ``constrain(f, c)`` — the generalized cofactor: maps each input
  outside ``c`` to the value of ``f`` at the "nearest" care input
  (distance in the current variable order).  Exactly agrees on ``c``.
* ``restrict(f, c)`` — Coudert-Madre's sibling that additionally
  existentially collapses care-set levels not in ``f``'s support,
  usually yielding smaller results.

Both are exposed as engine primitives and used by
``benchmarks/bench_ablation_restrict.py`` to compare node-oriented
don't-care assignment against the paper's width-oriented Algorithm 3.3.

Results are memoized in the ``gcf`` / ``rgc`` cache tiers.  Because
"nearest care input" is measured in the *current* variable order, the
entries are epoch-tagged on top of the usual generation stamps: a
reorder lazily retires them, while GC only retires entries touching
swept nodes.
"""

from __future__ import annotations

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.errors import BDDError


def _validate_gcf(key, v, gen, epoch):
    return (
        v[1] == epoch
        and gen[key[0]] == v[2]
        and gen[key[1]] == v[3]
        and gen[v[0]] == v[4]
    )


def constrain(bdd: BDD, f: int, c: int) -> int:
    """Generalized cofactor ``f ↓ c`` (Coudert-Madre constrain).

    Requires a non-empty care set ``c``; the result agrees with ``f``
    on ``c`` and is a valid completely specified extension of the ISF
    ``(f·c, ¬f·c)``.
    """
    if c == FALSE:
        raise BDDError("constrain() requires a non-empty care set")

    tier = bdd.op_cache("gcf", _validate_gcf)
    data = tier.data
    gen = bdd._gen
    epoch = bdd._epoch

    def walk(f_: int, c_: int) -> int:
        if c_ == TRUE or f_ <= 1:
            return f_
        if c_ == f_:
            return TRUE
        key = (f_, c_)
        entry = data.get(key)
        if (
            entry is not None
            and entry[1] == epoch
            and gen[f_] == entry[2]
            and gen[c_] == entry[3]
            and gen[entry[0]] == entry[4]
        ):
            tier.hits += 1
            return entry[0]
        tier.misses += 1
        lf, lc = bdd.level(f_), bdd.level(c_)
        if lc < lf:
            vid = bdd.var_of(c_)
            c0, c1 = bdd.lo(c_), bdd.hi(c_)
            if c0 == FALSE:
                r = walk(f_, c1)
            elif c1 == FALSE:
                r = walk(f_, c0)
            else:
                r = bdd.mk(vid, walk(f_, c0), walk(f_, c1))
        else:
            vid = bdd.var_of(f_)
            f0, f1 = bdd.lo(f_), bdd.hi(f_)
            if lc == lf:
                c0, c1 = bdd.lo(c_), bdd.hi(c_)
            else:
                c0 = c1 = c_
            if c0 == FALSE:
                r = walk(f1, c1)
            elif c1 == FALSE:
                r = walk(f0, c0)
            else:
                r = bdd.mk(vid, walk(f0, c0), walk(f1, c1))
        tier.insert(key, (r, epoch, gen[f_], gen[c_], gen[r]))
        return r

    try:
        return walk(f, c)
    finally:
        del walk  # the closure refers to itself: free it without the cyclic GC


def restrict_gc(bdd: BDD, f: int, c: int) -> int:
    """Coudert-Madre ``restrict``: constrain + care-set smoothing.

    Care-set levels that ``f`` does not branch on are existentially
    quantified away before descending, which prevents the care set from
    *adding* variables to the result.
    """
    if c == FALSE:
        raise BDDError("restrict() requires a non-empty care set")

    tier = bdd.op_cache("rgc", _validate_gcf)
    data = tier.data
    gen = bdd._gen
    epoch = bdd._epoch

    def walk(f_: int, c_: int) -> int:
        if c_ == TRUE or f_ <= 1:
            return f_
        if c_ == f_:
            return TRUE
        key = (f_, c_)
        entry = data.get(key)
        if (
            entry is not None
            and entry[1] == epoch
            and gen[f_] == entry[2]
            and gen[c_] == entry[3]
            and gen[entry[0]] == entry[4]
        ):
            tier.hits += 1
            return entry[0]
        tier.misses += 1
        lf, lc = bdd.level(f_), bdd.level(c_)
        if lc < lf:
            # f does not depend on c's top variable: smooth it out.
            r = walk(f_, bdd.apply_or(bdd.lo(c_), bdd.hi(c_)))
        else:
            vid = bdd.var_of(f_)
            f0, f1 = bdd.lo(f_), bdd.hi(f_)
            if lc == lf:
                c0, c1 = bdd.lo(c_), bdd.hi(c_)
            else:
                c0 = c1 = c_
            if c0 == FALSE:
                r = walk(f1, c1)
            elif c1 == FALSE:
                r = walk(f0, c0)
            else:
                r = bdd.mk(vid, walk(f0, c0), walk(f1, c1))
        tier.insert(key, (r, epoch, gen[f_], gen[c_], gen[r]))
        return r

    try:
        return walk(f, c)
    finally:
        del walk  # the closure refers to itself: free it without the cyclic GC
