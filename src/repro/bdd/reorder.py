"""In-place variable reordering: adjacent swaps and Rudell sifting.

The paper (Sect. 5.1) optimizes the BDD_for_CF variable order with the
sifting algorithm of Rudell [12], using the *sum of the widths* as the
cost function, under the Definition 2.4 constraint that an output
variable stays below the support variables of its function.  This
module implements:

* :class:`SiftSession` — a reordering session that performs
  adjacent-level swaps in place, physically reclaiming nodes that die
  during a swap so that the live size is tracked exactly.  Its one
  record of the edges into a node is the level of the node's highest
  incoming edge: a swap reads from it which nodes die, and keeps it,
  the crossing count of every section and so the sum of widths up to
  date with two passes over the two swapped levels.
* :func:`sift` — sifting with optional precedence constraints
  ``(above_vid, below_vid)`` by the live node count or, with
  ``widths=True``, by the sum of widths (the experiment pipeline's
  choice for small enough BDDs, per ``repro._config.LIMITS``).  A sift
  does not explore: one look-ahead walk per direction
  (:func:`_walk_down`, :func:`_walk_up`) predicts the exact cost of
  every position in it without a swap, and the variable swaps only
  toward its best level.
* :func:`set_order` — reach an arbitrary target order by bubbling.

All reordering mutates nodes in place, so node ids held by the caller
remain valid and keep denoting the same Boolean functions.  Any node
*not* reachable from the session roots may be reclaimed.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bdd import check, reference
from repro.bdd import governor as _governor
from repro.bdd.manager import BDD, FALSE, check_capacity
from repro.bdd.traversal import highest_edges, section_counts
from repro.errors import IntegrityError, OrderingError
from repro._config import LIMITS


class SiftSession:
    """Performs adjacent swaps for one reorder, keeping each node's highest in-edge.

    The session must be the only thing creating or destroying nodes
    while it is active: its swaps allocate and free nodes in the
    manager's arrays directly.  Its one record of who points at a node
    is the level of the node's highest incoming edge (Definition 3.5,
    as :func:`~repro.bdd.traversal.highest_edges` records it).  From
    it the session also keeps :attr:`counts` — what
    ``crossing_counts(bdd, roots)`` would return — and their sum of
    widths :attr:`width_sum` up to date across every swap
    (:meth:`check` audits all three).
    """

    def __init__(self, bdd: BDD, roots: Sequence[int]):
        self.bdd = bdd
        self.roots = list(dict.fromkeys(roots))  # dedupe, keep order
        # Reclaim any garbage not reachable from the roots, so that
        # every live node has a highest edge and the manager's alive
        # counter is the live size.
        bdd.collect(self.roots)
        # _mf[u]: the level of the highest edge into u (-1 for a root)
        # for every live node but FALSE; the swaps keep it exact.
        self._mf = highest_edges(bdd, self.roots)[0]
        self.counts = section_counts(bdd, self._mf)
        self.width_sum = 1 + sum(self.counts[: bdd.num_vars])

    @property
    def size(self) -> int:
        """The live node count: every live node is reachable from the roots."""
        return self.bdd._n_alive

    def check(self) -> None:
        """Raise :class:`IntegrityError` unless the session's records are exact.

        Recomputes them with the seed walk
        (:func:`~repro.bdd.reference.crossing_walk`), which shares no
        code with the walk the session started from.  The nodes the
        roots reach must be the nodes in the unique tables, and as many
        as :attr:`size`; each one's highest edge lies just above the
        first section it crosses; :attr:`counts` and :attr:`width_sum`
        are the sections' sizes and their sum.
        """
        bdd = self.bdd
        sections, ranks = reference.crossing_walk(bdd, self.roots)
        fresh_mf: dict[int, int] = {}
        for s, targets in enumerate(sections):
            for u in targets:
                fresh_mf.setdefault(u, s - 1)
        fresh_counts = [len(targets) for targets in sections]
        fresh_sum = 1 + sum(fresh_counts[: bdd.num_vars])
        reached = {u for u in ranks if u > 1}
        live = {u for table in bdd._unique for u in table.values()}
        mf = self._mf
        found = [
            (f"node {u}", f"kept highest edge {mf.get(u)}, seed walk {fresh_mf.get(u)}")
            for u in sorted(mf.keys() | fresh_mf.keys())
            if mf.get(u) != fresh_mf.get(u)
        ]
        found += [(f"node {u}", "live, but no root reaches it") for u in sorted(live - reached)]
        found += [(f"node {u}", "reached, but in no unique table") for u in sorted(reached - live)]
        if self.size != len(reached):
            found.append(("live size", f"kept {self.size}, seed walk {len(reached)}"))
        found += [
            (f"section {s}", f"kept crossing count {k}, seed walk {f}")
            for s, (k, f) in enumerate(zip(self.counts, fresh_counts))
            if k != f
        ]
        if self.width_sum != fresh_sum:
            found.append(("width sum", f"kept {self.width_sum}, seed walk {fresh_sum}"))
        if found:
            violations = tuple(check.InvariantViolation("counter", *v) for v in found)
            raise IntegrityError(
                f"sift session failed self-check: {violations[0]}", violations=violations
            )

    # -- the swap ------------------------------------------------------
    #
    # A swap of levels l and l+1 changes one crossing count: counts[l+1].
    # A section's count is the number of distinct non-zero cofactors of
    # the roots over the variables above it, and every other section
    # has the same variables above it before and after the swap.
    # counts[l+1] is the number of nodes at level l+1 plus the nodes
    # below the pair with _mf <= l.  Those with _mf < l keep it; the
    # rest are children of the pair, whose _mf is l or l+1.  So two
    # passes, one before the rewrite and one after, read only the two
    # swapped levels.  The same record tells which nodes die: only an
    # old y-node can (a node below the pair is still pointed at from
    # the new x-node or mover that took over its parent's edge), and it
    # does iff every edge into it comes from level l, that is _mf == l.

    def swap(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place."""
        bdd = self.bdd
        if level < 0 or level + 1 >= bdd.num_vars:
            raise OrderingError(f"cannot swap level {level} of {bdd.num_vars} variables")
        x = bdd._var_at_level[level]
        y = bdd._var_at_level[level + 1]
        vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
        mf = self._mf
        x_data = bdd._unique[x]
        y_data = bdd._unique[y]
        below = level + 1

        # Before: the nodes at level + 1, plus the nodes below the pair
        # whose highest edge comes from ``level``.  Those are reset to
        # ``below``; the pass after the rewrite lowers the ones still
        # under a node at ``level`` again.  dying: each old y-node whose
        # every edge comes from ``level``, with the number of those
        # edges; it is freed at the last of them.
        dying = {u: 0 for u in y_data.values() if mf[u] == level}
        for u in dying:
            del mf[u]
        crossing = -len(y_data)
        movers = []
        for u in x_data.values():
            moves = False
            for child in (lo_arr[u], hi_arr[u]):
                if vid_arr[child] == y:
                    moves = True
                    if child in dying:
                        dying[child] += 1
                elif child != FALSE and mf[child] == level:
                    mf[child] = below
                    crossing -= 1
            if moves:
                movers.append(u)
        for u in movers:
            del x_data[(lo_arr[u] << 32) | hi_arr[u]]
        # No helper calls: the new x-nodes are found or allocated in
        # place with BDD.mk's policy (free list first, then a fresh id).
        # The order of allocations and frees decides node ids.  No
        # result depends on them (Alg. 3.3 ranks columns by structure),
        # but tests/bdd/test_reorder.py pins the resulting managers'
        # digests to guard the allocation history.
        gen, free = bdd._gen, bdd._free
        alive, peak = bdd._n_alive, bdd._peak_alive
        for u in movers:
            f0, f1 = lo_arr[u], hi_arr[u]
            if vid_arr[f0] == y:
                f00, f01 = lo_arr[f0], hi_arr[f0]
            else:
                f00 = f01 = f0
            if vid_arr[f1] == y:
                f10, f11 = lo_arr[f1], hi_arr[f1]
            else:
                f10 = f11 = f1
            # new_lo = (x, f00, f10).
            if f00 == f10:
                new_lo = f00
            else:
                key = (f00 << 32) | f10
                new_lo = x_data.get(key)
                if new_lo is None:
                    if free:
                        new_lo = free.pop()
                        vid_arr[new_lo] = x
                        lo_arr[new_lo] = f00
                        hi_arr[new_lo] = f10
                    else:
                        new_lo = len(vid_arr)
                        check_capacity(new_lo)
                        vid_arr.append(x)
                        lo_arr.append(f00)
                        hi_arr.append(f10)
                        gen.append(0)
                    x_data[key] = new_lo
                    alive += 1
                    if alive > peak:
                        peak = alive
            # new_hi = (x, f01, f11), likewise.
            if f01 == f11:
                new_hi = f01
            else:
                key = (f01 << 32) | f11
                new_hi = x_data.get(key)
                if new_hi is None:
                    if free:
                        new_hi = free.pop()
                        vid_arr[new_hi] = x
                        lo_arr[new_hi] = f01
                        hi_arr[new_hi] = f11
                    else:
                        new_hi = len(vid_arr)
                        check_capacity(new_hi)
                        vid_arr.append(x)
                        lo_arr.append(f01)
                        hi_arr.append(f11)
                        gen.append(0)
                    x_data[key] = new_hi
                    alive += 1
                    if alive > peak:
                        peak = alive
            key = (new_lo << 32) | new_hi
            if key in y_data:  # pragma: no cover - impossible by construction
                raise OrderingError("swap produced a duplicate node")
            vid_arr[u] = y
            lo_arr[u] = new_lo
            hi_arr[u] = new_hi
            y_data[key] = u
            # Release the old children, f0 then f1: a dying y-node is
            # freed at its last edge.  Freeing bumps the generation,
            # which lazily invalidates cache entries touching the id.
            for f in (f0, f1):
                n = dying.get(f)
                if n == 1:
                    del y_data[(lo_arr[f] << 32) | hi_arr[f]]
                    vid_arr[f] = lo_arr[f] = hi_arr[f] = -1
                    gen[f] += 1
                    free.append(f)
                    alive -= 1
                elif n:
                    dying[f] = n - 1
        bdd._n_alive = alive
        bdd._peak_alive = peak

        bdd._var_at_level[level] = y
        bdd._var_at_level[level + 1] = x
        bdd._level_of[x] = level + 1
        bdd._level_of[y] = level
        # After: the nodes at level + 1, now x-nodes, plus the nodes
        # below the pair still under a node at ``level``.  A new x-node
        # has only nodes at ``level`` above it.
        crossing += len(x_data)
        for u in y_data.values():
            for child in (lo_arr[u], hi_arr[u]):
                if vid_arr[child] == x:
                    mf.setdefault(child, level)
                elif child != FALSE and mf[child] == below:
                    mf[child] = level
                    crossing += 1
        self.counts[below] += crossing
        self.width_sum += crossing
        # No clear_cache(): node ids keep denoting the same functions,
        # so semantic cache entries stay valid.  Entries touching nodes
        # freed above die via their generation stamps; order-sensitive
        # tiers retire on the epoch bump.
        bdd._note_reorder()

    def move_var(self, vid: int, target_level: int) -> None:
        """Move one variable to ``target_level`` by repeated swaps."""
        bdd = self.bdd
        while bdd._level_of[vid] < target_level:
            self.swap(bdd._level_of[vid])
        while bdd._level_of[vid] > target_level:
            self.swap(bdd._level_of[vid] - 1)


def set_order(bdd: BDD, roots: Sequence[int], order: Sequence[str | int]) -> None:
    """Reorder in place to exactly ``order`` (names or vids, top first)."""
    vids = [bdd.vid(v) if isinstance(v, str) else v for v in order]
    if sorted(vids) != list(range(bdd.num_vars)):
        raise OrderingError("order must be a permutation of all variables")
    session = SiftSession(bdd, roots)
    for target_level, vid in enumerate(vids):
        session.move_var(vid, target_level)


def _bounds(
    bdd: BDD, vid: int, precedence: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Allowed level range for ``vid`` given precedence constraints."""
    lb = 0
    ub = bdd.num_vars - 1
    for above, below in precedence:
        if below == vid:
            lb = max(lb, bdd.level_of_vid(above) + 1)
        if above == vid:
            ub = min(ub, bdd.level_of_vid(below) - 1)
    return lb, ub


def sift(
    bdd: BDD,
    roots: Sequence[int],
    *,
    precedence: Sequence[tuple[int, int]] = (),
    widths: bool = False,
) -> float:
    """Rudell sifting under precedence constraints; returns final cost.

    The cost is the live node count or, with ``widths=True``, the sum
    of widths of ``roots`` over every height (Sect. 5.1's cost: the
    crossing counts of heights ``1 .. t``, plus 1 for height 0), which
    the session keeps up to date inside each swap.  The Table 4
    pipeline sifts by the width sum for BDDs under
    ``LIMITS.sift_widthsum_node_limit`` nodes.

    Each variable in turn, busiest level first, is moved toward the
    closer end of its admissible level range, then toward the other
    end, and parked at the cheapest position (on equal cost, the one
    nearest its start).  A direction ends at the end of the range, or
    at the first position where the live size exceeds
    ``LIMITS.sift_max_growth`` times its size when the variable's turn
    began.  The sift does not explore: before a direction's first swap,
    one walk over the levels the variable would pass
    (:func:`_walk_down`, :func:`_walk_up`) predicts the exact node count
    and width sum of every position in it, and the variable swaps
    straight to its best level.  Under an active
    :class:`~repro.bdd.governor.Budget` every swap, and every level a
    walk crosses, is charged one step.  Under ``REPRO_SELFCHECK=1``
    every position a sift reaches compares the session's cost with the
    prediction, and every sift ends by auditing the session's records
    against the seed walk (:meth:`SiftSession.check`).
    """
    for above, below in precedence:
        if bdd.level_of_vid(above) >= bdd.level_of_vid(below):
            raise OrderingError(
                f"initial order violates precedence: {bdd.name_of(above)} "
                f"must be above {bdd.name_of(below)}"
            )
    session = SiftSession(bdd, roots)
    audit = check.selfcheck_enabled()
    cost = session.width_sum if widths else session.size
    # Sift variables in decreasing order of their level population:
    # busiest levels first, as in Rudell's heuristic.
    for vid in sorted(range(bdd.num_vars), key=lambda v: -len(bdd._unique[v])):
        # Cooperative budget check between variables: a raise here
        # (or inside _sift_one, between swaps and walked levels)
        # leaves the manager consistent — just under a partially
        # improved order.
        if _governor._ACTIVE:
            _governor.checkpoint(bdd)
        cost = _sift_one(session, vid, precedence, widths, audit)
    if audit:
        session.check()
    return float(cost)


def _sift_one(
    session: SiftSession,
    vid: int,
    precedence: Sequence[tuple[int, int]],
    widths: bool,
    audit: bool,
) -> int:
    """Park ``vid`` at its cheapest admissible level; returns the cost there."""
    bdd = session.bdd
    lb, ub = _bounds(bdd, vid, precedence)
    start_level = bdd.level_of_vid(vid)
    best_cost = session.width_sum if widths else session.size
    best_level = start_level
    max_size = LIMITS.sift_max_growth * session.size

    # Walk toward the closer boundary first (classic sifting heuristic).
    go_down_first = (ub - start_level) <= (start_level - lb)
    level = start_level
    for direction in ((1, -1) if go_down_first else (-1, 1)):
        limit = ub if direction == 1 else lb
        if level == limit:
            continue
        walk = _walk_down if direction == 1 else _walk_up
        sizes, sums = walk(session, level, limit, max_size, widths)
        position = level
        for c in sums if widths else sizes:
            position += direction
            if c < best_cost or (
                c == best_cost
                and abs(position - start_level) < abs(best_level - start_level)
            ):
                best_cost = c
                best_level = position
        # Swap ahead to the best level.  One adjacent swap ~ one
        # charged step.
        for i in range(abs(best_level - level)):
            if _governor._ACTIVE:
                _governor.checkpoint(bdd, 1)
            session.swap(level + i if direction == 1 else level - i - 1)
            if audit:
                _check_prediction(session, vid, sizes[i], sums[i] if widths else None)
        level = best_level
    return best_cost


def _check_prediction(session: SiftSession, vid: int, size: int, width: int | None) -> None:
    """Raise :class:`IntegrityError` unless the session's costs equal a walk's prediction."""
    bdd = session.bdd
    where = f"{bdd.name_of(vid)} at level {bdd.level_of_vid(vid)}"
    violations = []
    if session.size != size:
        violations.append(
            check.InvariantViolation(
                "counter", where, f"predicted node count {size}, swapped {session.size}"
            )
        )
    if width is not None and session.width_sum != width:
        violations.append(
            check.InvariantViolation(
                "counter", where, f"predicted width sum {width}, swapped {session.width_sum}"
            )
        )
    if violations:
        raise IntegrityError(
            f"sift prediction failed self-check: {violations[0]}",
            violations=tuple(violations),
        )


# Look-ahead walks.  Both rest on one fact: the nodes of a level, and
# the targets crossing a section, are the distinct cofactors of the
# roots over the *set* of variables above it (nodes: those that depend
# on the level's variable; sections: those that are not FALSE).  So
# the cost of every position of a variable x follows from cofactors of
# the current BDD, without a swap.
#
# Moving x down from level l, the variables y_{l+1} .. y_j it passes
# move up one level each.  A cofactor h over the variables above l
# plus y_{l+1} .. y_i is fixed by its pair (h|x=0, h|x=1), and those
# pairs are the current BDD's nodes cofactored by y_{l+1} .. y_i: the
# pairs over the variables above l, split at each level passed.  So
# y_i keeps one node per pair split at level i, x at level j has one
# node per pair (a, b) with a != b, and the new section i counts the
# pairs left after the split at i, (FALSE, FALSE) excluded.
#
# Moving x up from level l to level k, the variables z_k .. z_{l-1}
# move down one level each, and the sets above them gain x.  x gets
# one node per target crossing section k that depends on x, z_i one
# node per distinct x-cofactor of a node at level i that depends on
# z_i, and the new section i + 1 counts the distinct non-FALSE
# x-cofactors of the targets crossing section i.  The cofactors are
# built bottom-up and hash-consed: a result whose children are live
# nodes is that live node if the unique table holds it, and any other
# new function gets a fresh negative id, so equal ids are equal
# functions.
#
# A target crosses a section when a root or an edge from above it
# points to it: the section above level s when its ``_mf`` is below s.


def _walk_down(
    session: SiftSession, level: int, limit: int, max_size: float, widths: bool
) -> tuple[list[int], list[int] | None]:
    """The costs of moving the variable at ``level`` to ``level + 1 .. limit``.

    Returns the live node count at each position and, with ``widths``,
    the width sum (None otherwise).  The walk stops at the first
    position whose node count exceeds ``max_size``.
    """
    bdd = session.bdd
    var_at, level_of, unique = bdd._var_at_level, bdd._level_of, bdd._unique
    vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
    mf, counts = session._mf, session.counts
    bottom = bdd.num_vars  # the terminals' level
    # Pairs (a << 32 | b), bucketed by the level of their upper member;
    # the levels below ``limit`` share one set, whose pairs never split.
    settled: set[int] = set()
    buckets = [set() for _ in range(limit + 1)] + [settled] * (bottom - limit)
    x_nodes = unique[var_at[level]].values()
    for u in x_nodes:
        a, b = lo_arr[u], hi_arr[u]
        la = level_of[vid_arr[a]] if a > 1 else bottom
        lb = level_of[vid_arr[b]] if b > 1 else bottom
        buckets[min(la, lb)].add(a << 32 | b)
    # xcount: the nodes x has, one per pair with a != b.  n: the pairs
    # in the buckets.  above: the other targets that cross the section
    # above x and have not entered a bucket yet; each stands for its
    # own pair (w, w).
    xcount = n = len(x_nodes)
    above = counts[level] - n
    size = session.size - n
    width = session.width_sum
    sizes: list[int] = []
    sums: list[int] | None = [] if widths else None
    for j in range(level + 1, limit + 1):
        if _governor._ACTIVE:
            _governor.checkpoint(bdd, 1)
        y = var_at[j]
        y_nodes = unique[y].values()
        bucket = buckets[j]
        # A node at j that crosses section ``level`` enters as (w, w).
        for w in y_nodes:
            if mf[w] < level:
                bucket.add(w << 32 | w)
                above -= 1
                n += 1
        size += len(bucket) - len(y_nodes)
        n -= len(bucket)
        for key in bucket:
            a = key >> 32
            b = key & 0xFFFFFFFF
            if a != b:
                xcount -= 1
            if a > 1 and vid_arr[a] == y:
                a0, a1 = lo_arr[a], hi_arr[a]
            else:
                a0 = a1 = a
            if b > 1 and vid_arr[b] == y:
                b0, b1 = lo_arr[b], hi_arr[b]
            else:
                b0 = b1 = b
            for a, b in ((a0, b0), (a1, b1)):
                la = level_of[vid_arr[a]] if a > 1 else bottom
                if a == b:
                    # (w, w) of a target still counted in ``above``
                    # enters at its own level, as above.
                    if a == FALSE or mf[a] < level:
                        continue
                else:
                    lb = level_of[vid_arr[b]] if b > 1 else bottom
                    if lb < la:
                        la = lb
                target = buckets[la]
                key = a << 32 | b
                if key not in target:
                    target.add(key)
                    n += 1
                    if a != b:
                        xcount += 1
        bucket.clear()
        sizes.append(size + xcount)
        if sums is not None:
            width += above + n - counts[j]
            sums.append(width)
        if size + xcount > max_size:
            break
    return sizes, sums


def _walk_up(
    session: SiftSession, level: int, limit: int, max_size: float, widths: bool
) -> tuple[list[int], list[int] | None]:
    """The costs of moving the variable at ``level`` to ``level - 1 .. limit``.

    Returns the live node count at each position and, with ``widths``,
    the width sum (None otherwise).  The walk stops at the first
    position whose node count exceeds ``max_size``.
    """
    bdd = session.bdd
    var_at, unique = bdd._var_at_level, bdd._unique
    lo_arr, hi_arr = bdd._lo, bdd._hi
    mf, counts = session._mf, session.counts
    x_nodes = unique[var_at[level]].values()
    # cof0[u], cof1[u]: the x-cofactors of every node u from the level
    # walked last down to x; any other node is its own cofactor.
    cof0 = {u: lo_arr[u] for u in x_nodes}
    cof1 = {u: hi_arr[u] for u in x_nodes}
    fresh = -1
    # The x-dependent nodes still crossing the section above the walk.
    xcount = len(x_nodes)
    size = session.size - xcount
    sizes: list[int] = []
    sums: list[int] | None = None
    if widths:
        # The new section below x counts the distinct non-FALSE
        # x-cofactors of the targets crossing the section above x:
        # ``below`` targets under level ``level`` that cross it (their
        # own cofactors), and the keys of ``mult``, the cofactors of the
        # crossing targets from the walk's level down to x, that are
        # not among them.
        sums = []
        width = session.width_sum
        mult: dict[int, int] = {}
        for u in x_nodes:
            for c in (lo_arr[u], hi_arr[u]):
                if c != FALSE:
                    mult[c] = mult.get(c, 0) + 1
        below = counts[level + 1] - sum(1 for c in mult if mf[c] == level)
    for k in range(level - 1, limit - 1, -1):
        if _governor._ACTIVE:
            _governor.checkpoint(bdd, 1)
        y_unique = unique[var_at[k]]
        made: dict[tuple[int, int], int] = {}
        results: set[int] = set()
        # The children whose highest edge comes from level k: they stop
        # crossing the section above the walk.
        leaving: set[int] = set()
        for g in y_unique.values():
            g0, g1 = lo_arr[g], hi_arr[g]
            # Both cofactors of g by x, hash-consed as described above.
            e0, e1 = cof0.get(g0, g0), cof0.get(g1, g1)
            if e0 == e1:
                r0 = e0
            else:
                r0 = y_unique.get(e0 << 32 | e1) if e0 >= 0 and e1 >= 0 else None
                if r0 is None:
                    r0 = made.get((e0, e1))
                    if r0 is None:
                        r0 = made[e0, e1] = fresh
                        fresh -= 1
                results.add(r0)
            e0, e1 = cof1.get(g0, g0), cof1.get(g1, g1)
            if e0 == e1:
                r1 = e0
            else:
                r1 = y_unique.get(e0 << 32 | e1) if e0 >= 0 and e1 >= 0 else None
                if r1 is None:
                    r1 = made.get((e0, e1))
                    if r1 is None:
                        r1 = made[e0, e1] = fresh
                        fresh -= 1
                results.add(r1)
            if r0 != r1:
                xcount += 1
            for c in (g0, g1):
                if c != FALSE and mf[c] == k:
                    leaving.add(c)
            cof0[g] = r0
            cof1[g] = r1
        size += len(results) - len(y_unique)
        for c in leaving:
            if c in cof0 and cof0[c] != cof1[c]:
                xcount -= 1
        if sums is not None:
            for c in leaving:
                if c not in cof0:
                    below -= 1
                    continue
                for r in (cof0[c], cof1[c]):
                    if r != FALSE:
                        m = mult[r] - 1
                        if m:
                            mult[r] = m
                        else:
                            del mult[r]
            for g in y_unique.values():
                for r in (cof0[g], cof1[g]):
                    if r != FALSE:
                        mult[r] = mult.get(r, 0) + 1
            # Skip the keys already counted in ``below``: live nodes
            # under level ``level`` (or TRUE) with mf < k.
            extra = sum(1 for r in mult if r < 0 or r in cof0 or mf[r] >= k)
            width += below + extra - counts[k + 1]
            sums.append(width)
        sizes.append(size + xcount)
        if size + xcount > max_size:
            break
    return sizes, sums
