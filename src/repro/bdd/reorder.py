"""In-place variable reordering: adjacent swaps and Rudell sifting.

The paper (Sect. 5.1) optimizes the BDD_for_CF variable order with the
sifting algorithm of Rudell [12], using the *sum of the widths* as the
cost function, under the Definition 2.4 constraint that an output
variable stays below the support variables of its function.  This
module implements:

* :class:`SiftSession` — a reference-counted reordering session that
  performs adjacent-level swaps in place, physically reclaiming nodes
  that die during a swap so that the live size is tracked exactly.
* :func:`sift` — sifting with optional precedence constraints
  ``(above_vid, below_vid)`` and a pluggable cost function (live node
  count by default; the experiment pipeline passes :func:`width_sum`
  for small enough BDDs, per ``repro._config.LIMITS``).  Under these
  two costs a direction ends early once a lower bound shows that no
  position left in it can beat the best one.
* :func:`width_sum` — the sum of widths over all sections.  A sift
  under this cost never calls it: its session keeps the crossing count
  of every section up to date inside each swap, at the price of two
  passes over the two swapped levels.
* :func:`set_order` — reach an arbitrary target order by bubbling.

All reordering mutates nodes in place, so node ids held by the caller
remain valid and keep denoting the same Boolean functions.  Any node
*not* reachable from the session roots may be reclaimed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import isqrt

from repro.bdd import check, reference
from repro.bdd import governor as _governor
from repro.bdd.manager import BDD, FALSE, check_capacity
from repro.bdd.traversal import crossing_counts, highest_edges, section_counts
from repro.errors import IntegrityError, OrderingError
from repro._config import LIMITS

CostFn = Callable[[BDD, Sequence[int]], float]


def _count_refs(bdd: BDD, nodes: Sequence[int], roots: Sequence[int]) -> dict[int, int]:
    """For each of ``nodes``: edges into it from ``nodes``, plus one per root.

    A child or root outside ``nodes`` gets an entry too, so an audit
    sees it.
    """
    lo_arr, hi_arr = bdd._lo, bdd._hi
    ref = dict.fromkeys(nodes, 0)
    for u in nodes:
        for child in (lo_arr[u], hi_arr[u]):
            if child > 1:
                ref[child] = ref.get(child, 0) + 1
    for r in roots:
        if r > 1:
            ref[r] = ref.get(r, 0) + 1
    return ref


class SiftSession:
    """Owns reference counts and performs adjacent swaps for one reorder.

    The session must be the only thing creating or destroying nodes
    while it is active: its swaps allocate and free nodes in the
    manager's arrays directly and keep the reference counts consistent
    (:meth:`check_refs` audits them).

    With ``widths=True`` the session also keeps :attr:`counts` — what
    ``crossing_counts(bdd, roots)`` would return — and their sum of
    widths :attr:`width_sum` up to date across every swap.
    """

    def __init__(self, bdd: BDD, roots: Sequence[int], *, widths: bool = False):
        self.bdd = bdd
        self.roots = list(dict.fromkeys(roots))  # dedupe, keep order
        self._ref = _count_refs(
            bdd, [u for u in bdd.reachable(self.roots) if u > 1], self.roots
        )
        self.size = len(self._ref)
        # Reclaim any garbage not reachable from the roots so that the
        # unique tables agree with the reference counts.
        bdd.collect(self.roots)
        self.counts: list[int] | None = None
        self.width_sum = 0
        # _mf[u]: the level of the highest edge into u (-1 for a root)
        # for every live node but FALSE, as traversal.highest_edges
        # records it; the swaps keep it exact.
        self._mf: dict[int, int] | None = None
        if widths:
            self._mf = highest_edges(bdd, self.roots)[0]
            self.counts = section_counts(bdd, self._mf)
            self.width_sum = 1 + sum(self.counts[: bdd.num_vars])

    def check_widths(self) -> None:
        """Raise :class:`IntegrityError` unless the kept counts are exact.

        Compares :attr:`counts` and :attr:`width_sum` with the crossing
        sets of the seed walk
        (:func:`~repro.bdd.reference.crossing_walk`), which shares no
        code with the walk the session started from.
        """
        fresh = [len(s) for s in reference.crossing_walk(self.bdd, self.roots)[0]]
        kept = self.counts
        violations = [
            check.InvariantViolation(
                "counter", f"section {s}", f"kept crossing count {k}, seed walk {f}"
            )
            for s, (k, f) in enumerate(zip(kept, fresh))
            if k != f
        ]
        fresh_sum = 1 + sum(fresh[: self.bdd.num_vars])
        if self.width_sum != fresh_sum:
            violations.append(
                check.InvariantViolation(
                    "counter", "width sum", f"kept {self.width_sum}, seed walk {fresh_sum}"
                )
            )
        if violations:
            raise IntegrityError(
                f"sift session widths failed self-check: {violations[0]}",
                violations=tuple(violations),
            )

    def check_refs(self) -> None:
        """Raise :class:`IntegrityError` unless the reference counts are exact.

        Recounts, for every live node, the edges from live parents plus
        one per root, and compares the result with the kept counts.  The
        kept live size must also equal the manager's node count and its
        alive-node counter.
        """
        bdd = self.bdd
        live = [u for table in bdd._unique for u in table.values()]
        fresh = _count_refs(bdd, live, self.roots)
        kept = self._ref
        violations = [
            check.InvariantViolation(
                "counter", f"node {u}", f"kept reference count {kept.get(u)}, recount {n}"
            )
            for u, n in fresh.items()
            if n == 0 or kept.get(u) != n
        ]
        violations += [
            check.InvariantViolation(
                "counter", f"node {u}", f"kept reference count {kept[u]} for a dead node"
            )
            for u in kept
            if u not in fresh
        ]
        alive = bdd.num_alive_nodes()
        if not self.size == alive == bdd._n_alive:
            violations.append(
                check.InvariantViolation(
                    "counter",
                    "live size",
                    f"kept {self.size}, unique tables {alive}, manager counter {bdd._n_alive}",
                )
            )
        if violations:
            raise IntegrityError(
                f"sift session reference counts failed self-check: {violations[0]}",
                violations=tuple(violations),
            )

    # -- the swap ------------------------------------------------------

    def swap(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place."""
        bdd = self.bdd
        if level < 0 or level + 1 >= bdd.num_vars:
            raise OrderingError(f"cannot swap level {level} of {bdd.num_vars} variables")
        x = bdd._var_at_level[level]
        y = bdd._var_at_level[level + 1]
        vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
        x_data = bdd._unique[x]
        y_data = bdd._unique[y]
        if self._mf is not None:
            crossing_before = self._widths_before(level, x_data, y_data, y)

        movers = [
            u
            for u in x_data.values()
            if (lo_arr[u] > 1 and vid_arr[lo_arr[u]] == y)
            or (hi_arr[u] > 1 and vid_arr[hi_arr[u]] == y)
        ]
        for u in movers:
            del x_data[(lo_arr[u] << 32) | hi_arr[u]]
        # No helper calls: the new x-nodes are found or allocated in
        # place with BDD.mk's policy (free list first, then a fresh id).
        # The order of allocations and frees decides node ids.  No
        # result depends on them (Alg. 3.3 ranks columns by structure),
        # but tests/bdd/test_reorder.py pins the resulting managers'
        # digests to guard the allocation history.
        ref = self._ref
        gen, free = bdd._gen, bdd._free
        size, alive, peak = self.size, bdd._n_alive, bdd._peak_alive
        for u in movers:
            f0, f1 = lo_arr[u], hi_arr[u]
            if f0 > 1 and vid_arr[f0] == y:
                f00, f01 = lo_arr[f0], hi_arr[f0]
            else:
                f00 = f01 = f0
            if f1 > 1 and vid_arr[f1] == y:
                f10, f11 = lo_arr[f1], hi_arr[f1]
            else:
                f10 = f11 = f1
            # new_lo = (x, f00, f10), holding one reference from u.
            if f00 == f10:
                new_lo = f00
                if new_lo > 1:
                    ref[new_lo] += 1
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
                    ref[new_lo] = 1
                    size += 1
                    alive += 1
                    if alive > peak:
                        peak = alive
                    if f00 > 1:
                        ref[f00] += 1
                    if f10 > 1:
                        ref[f10] += 1
                else:
                    ref[new_lo] += 1
            # new_hi = (x, f01, f11), likewise.
            if f01 == f11:
                new_hi = f01
                if new_hi > 1:
                    ref[new_hi] += 1
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
                    ref[new_hi] = 1
                    size += 1
                    alive += 1
                    if alive > peak:
                        peak = alive
                    if f01 > 1:
                        ref[f01] += 1
                    if f11 > 1:
                        ref[f11] += 1
                else:
                    ref[new_hi] += 1
            key = (new_lo << 32) | new_hi
            if key in y_data:  # pragma: no cover - impossible by construction
                raise OrderingError("swap produced a duplicate node")
            vid_arr[u] = y
            lo_arr[u] = new_lo
            hi_arr[u] = new_hi
            y_data[key] = u
            # Release the old children, f0 then f1.  Only an old y-node
            # can die: a child below the pair is still referenced from
            # new_lo or new_hi (or from u itself).  A dying y-node's own
            # children each gained such a reference above, so their
            # counts stay positive and no death cascades further down.
            # Freeing bumps the generation, which lazily invalidates
            # cache entries touching the id.
            if f0 > 1:
                n = ref[f0] - 1
                if n:
                    ref[f0] = n
                else:
                    del ref[f0]
                    g0, g1 = lo_arr[f0], hi_arr[f0]
                    del y_data[(g0 << 32) | g1]
                    vid_arr[f0] = lo_arr[f0] = hi_arr[f0] = -1
                    gen[f0] += 1
                    free.append(f0)
                    size -= 1
                    alive -= 1
                    if g0 > 1:
                        ref[g0] -= 1
                    if g1 > 1:
                        ref[g1] -= 1
            if f1 > 1:
                n = ref[f1] - 1
                if n:
                    ref[f1] = n
                else:
                    del ref[f1]
                    g0, g1 = lo_arr[f1], hi_arr[f1]
                    del y_data[(g0 << 32) | g1]
                    vid_arr[f1] = lo_arr[f1] = hi_arr[f1] = -1
                    gen[f1] += 1
                    free.append(f1)
                    size -= 1
                    alive -= 1
                    if g0 > 1:
                        ref[g0] -= 1
                    if g1 > 1:
                        ref[g1] -= 1
        self.size = size
        bdd._n_alive = alive
        bdd._peak_alive = peak

        bdd._var_at_level[level] = y
        bdd._var_at_level[level + 1] = x
        bdd._level_of[x] = level + 1
        bdd._level_of[y] = level
        if self._mf is not None:
            delta = self._widths_after(level, x_data, y_data, x) - crossing_before
            self.counts[level + 1] += delta
            self.width_sum += delta
        # No clear_cache(): node ids keep denoting the same functions,
        # so semantic cache entries stay valid.  Entries touching nodes
        # freed above die via their generation stamps; order-sensitive
        # tiers retire on the epoch bump.
        bdd._note_reorder()

    # A swap of levels l and l+1 changes one crossing count: counts[l+1].
    # A section's count is the number of distinct non-zero cofactors of
    # the roots over the variables above it, and every other section
    # has the same variables above it before and after the swap.
    # counts[l+1] is the number of nodes at level l+1 plus the nodes
    # below the pair with _mf <= l.  Those with _mf < l keep it; the
    # rest are children of the pair, whose _mf is l or l+1.  So the two
    # passes below, one before the rewrite and one after, read only the
    # two swapped levels.

    def _widths_before(self, level: int, x_data, y_data, y: int) -> int:
        """The part of ``counts[level + 1]`` a swap can change, before it.

        That is the nodes at ``level + 1`` plus the nodes below the pair
        whose highest edge comes from ``level``.  Those are reset to
        ``_mf == level + 1``; :meth:`_widths_after` lowers the ones
        still under a node at ``level`` again.
        """
        mf = self._mf
        vid_arr, lo_arr, hi_arr = self.bdd._vid, self.bdd._lo, self.bdd._hi
        below = level + 1
        n = len(y_data)
        for u in x_data.values():
            child = lo_arr[u]
            if child != FALSE and vid_arr[child] != y and mf[child] == level:
                mf[child] = below
                n += 1
            child = hi_arr[u]
            if child != FALSE and vid_arr[child] != y and mf[child] == level:
                mf[child] = below
                n += 1
        for u in y_data.values():
            # Only nodes at ``level`` point at u, and after the swap
            # none does: u dies, and its id may come back as a new node.
            if mf[u] == level:
                del mf[u]
        return n

    def _widths_after(self, level: int, x_data, y_data, x: int) -> int:
        """The part of ``counts[level + 1]`` a swap can change, after it."""
        mf = self._mf
        vid_arr, lo_arr, hi_arr = self.bdd._vid, self.bdd._lo, self.bdd._hi
        below = level + 1
        n = len(x_data)
        for u in y_data.values():
            for child in (lo_arr[u], hi_arr[u]):
                if child == FALSE:
                    continue
                if vid_arr[child] == x:
                    # New in this swap (only nodes at ``level`` point at
                    # it) unless it already has an entry.
                    mf.setdefault(child, level)
                elif mf[child] == below:
                    mf[child] = level
                    n += 1
        return n

    def move_var(self, vid: int, target_level: int) -> None:
        """Move one variable to ``target_level`` by repeated swaps."""
        bdd = self.bdd
        while bdd._level_of[vid] < target_level:
            self.swap(bdd._level_of[vid])
        while bdd._level_of[vid] > target_level:
            self.swap(bdd._level_of[vid] - 1)


def width_sum(bdd: BDD, roots: Sequence[int]) -> float:
    """Sum of widths of ``roots`` over every height (Sect. 5.1's cost).

    The widths of heights ``1 .. t`` are the crossing counts of
    :func:`~repro.bdd.traversal.crossing_counts`; height 0 has width 1
    by definition.  As the ``cost_fn`` of :func:`sift` this function is
    not called: the sift reads the same value from its session, which
    keeps it up to date inside every swap.
    """
    return float(1 + sum(crossing_counts(bdd, roots)[: bdd.num_vars]))


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
    cost_fn: CostFn | None = None,
    max_rounds: int = 1,
    max_growth: float | None = None,
) -> float:
    """Rudell sifting under precedence constraints; returns final cost.

    Each variable in turn, busiest level first, is moved toward the
    closer end of its admissible level range, then toward the other
    end, the cost is sampled at every position, and the variable is
    parked at the best one (on equal cost, the one nearest its start).
    A direction ends at the end of the range, or once the live size
    exceeds ``max_growth`` times its size when the variable's turn
    began, or once a lower bound on the cost of every position left in
    it shows that none can beat the best one.  The bound only skips
    swaps: every variable lands where it would without it.
    ``cost_fn`` defaults to the live node count; the Table 4 pipeline
    passes :func:`width_sum` for BDDs under
    ``LIMITS.sift_widthsum_node_limit`` nodes, matching the paper's
    cost function.  The session keeps both of these, and the per-level
    counts their bounds read, up to date inside its swaps, so sampling
    them reads a number; any other ``cost_fn`` is called at every
    position and gets no bound.  Under an active
    :class:`~repro.bdd.governor.Budget` every swap, including those
    that walk a variable back to its best level, is charged one step.
    Under ``REPRO_SELFCHECK=1`` every sift ends by recounting its
    reference counts (:meth:`SiftSession.check_refs`), and a width-sum
    sift also audits its kept counts against the seed walk
    (:meth:`SiftSession.check_widths`).
    """
    if max_growth is None:
        max_growth = LIMITS.sift_max_growth
    for above, below in precedence:
        if bdd.level_of_vid(above) >= bdd.level_of_vid(below):
            raise OrderingError(
                f"initial order violates precedence: {bdd.name_of(above)} "
                f"must be above {bdd.name_of(below)}"
            )
    session = SiftSession(bdd, roots, widths=cost_fn is width_sum)
    lower_bound = (
        _node_lower_bound if cost_fn is None
        else _width_lower_bound if cost_fn is width_sum
        else None
    )

    def cost() -> float:
        if cost_fn is None:
            return float(session.size)
        if cost_fn is width_sum:
            return float(session.width_sum)
        return float(cost_fn(bdd, roots))

    current = cost()
    for _ in range(max_rounds):
        round_start = current
        # Sift variables in decreasing order of their level population:
        # busiest levels first, as in Rudell's heuristic.
        order = sorted(range(bdd.num_vars), key=lambda v: -len(bdd._unique[v]))
        for vid in order:
            # Cooperative budget check between variables: a raise here
            # (or inside _sift_one, between swaps) leaves the manager
            # consistent — just under a partially improved order.
            if _governor._ACTIVE:
                _governor.checkpoint(bdd)
            current = _sift_one(bdd, session, vid, precedence, cost, max_growth, lower_bound)
        if current >= round_start:
            break
    if check.selfcheck_enabled():
        session.check_refs()
        if session.counts is not None:
            session.check_widths()
    return current


# Lower bounds for sifting (Drechsler, Günther and Somenzi, "Using
# lower bounds during dynamic BDD minimization", IEEE TCAD 20(1), 2001).
# Two facts carry them.  The node count of a level, and the crossing
# count of a section, depend only on the *set* of variables above it.
# Adding one variable x to that set at most doubles either count, since
# every new cofactor is an old one restricted by x; and a non-zero
# crossing cofactor over B is fixed by its pair of cofactors over
# B ∪ {x}, so count(B) <= (count(B ∪ {x}) + 1)² - 1.  Each bound holds
# for every position of the variable at ``level`` strictly beyond it,
# up to and including ``limit``; the unchanged levels or sections get
# their exact count, which is never below the bound's term for them.


def _node_lower_bound(session: SiftSession, level: int, limit: int) -> int:
    """A lower bound on the live node count, the variable at ``level`` moved toward ``limit``.

    The moving variable keeps a node iff it has one now.  Moving down,
    each variable it passes loses it from the set above, so keeps at
    least half its nodes; moving up, each one it passes keeps a node
    iff it has one now.  Levels outside the range keep their count.
    """
    unique, var_at = session.bdd._unique, session.bdd._var_at_level
    c = len(unique[var_at[level]])
    bound = session.size - c + (c > 0)
    if limit > level:
        return bound - sum(len(unique[var_at[lv]]) >> 1 for lv in range(level + 1, limit + 1))
    for lv in range(limit, level):
        c = len(unique[var_at[lv]])
        bound -= c - (c > 0)
    return bound


def _width_lower_bound(session: SiftSession, level: int, limit: int) -> int:
    """A lower bound on the kept width sum, the variable at ``level`` moved toward ``limit``.

    Moving down past level ``k``, section ``k`` trades the variable for
    the one below it: its new set above is that of section ``k + 1``
    less the variable, so at least half of ``counts[k + 1]`` (not of
    ``counts[k]``).  Moving up to ``limit`` or above it, section ``k``
    (``limit < k <= level``) gets the set above section ``k - 1`` plus
    the variable: at least 1 if any root is non-zero, at least
    ``counts[level + 1]`` halved once per variable it lacks of section
    ``level + 1``'s set, and at least ``isqrt(counts[k - 1] + 1) - 1``.
    """
    counts = session.counts
    bound = session.width_sum
    if limit > level:
        return bound - sum(
            counts[k] - ((counts[k + 1] + 1) >> 1) for k in range(level + 1, limit + 1)
        )
    nonzero = counts[0] > 0
    below = counts[level + 1]
    for k in range(limit + 1, level + 1):
        least = max(nonzero, -(-below >> (level + 1 - k)), isqrt(counts[k - 1] + 1) - 1)
        bound -= counts[k] - least
    return bound


def _sift_one(
    bdd: BDD,
    session: SiftSession,
    vid: int,
    precedence: Sequence[tuple[int, int]],
    cost: Callable[[], float],
    max_growth: float,
    lower_bound: Callable[[SiftSession, int, int], int] | None,
) -> float:
    lb, ub = _bounds(bdd, vid, precedence)
    start_level = bdd.level_of_vid(vid)
    best_cost = cost()
    best_level = start_level
    start_size = session.size

    # Explore the closer boundary first (classic sifting heuristic),
    # returning to the best-so-far position between directions.
    go_down_first = (ub - start_level) <= (start_level - lb)
    level = start_level
    for direction in ((1, -1) if go_down_first else (-1, 1)):
        limit = ub if direction == 1 else lb
        while level != limit:
            # End the direction once no position ahead can beat the
            # best: the bound on their costs exceeds best_cost, or
            # equals it while every position ahead is farther from the
            # start than best_level and so loses the tie-break.  A
            # position's cost depends on the order alone, so the
            # variable lands where it would without the exit.
            if lower_bound is not None:
                bound = lower_bound(session, level, limit)
                if bound > best_cost or (
                    bound == best_cost
                    and (level - start_level) * direction >= 0
                    and abs(level - start_level) + 1 >= abs(best_level - start_level)
                ):
                    break
            # One adjacent swap ~ one charged step: a ``max_steps``
            # budget bounds sifting work, not just kernel evaluations.
            if _governor._ACTIVE:
                _governor.checkpoint(bdd, 1)
            session.swap(level if direction == 1 else level - 1)
            level += direction
            c = cost()
            if c < best_cost or (
                c == best_cost
                and abs(level - start_level) < abs(best_level - start_level)
            ):
                best_cost = c
                best_level = level
            if session.size > max_growth * start_size:
                break
        # Walk back to the best level, charging these swaps too.
        back = 1 if level < best_level else -1
        while level != best_level:
            if _governor._ACTIVE:
                _governor.checkpoint(bdd, 1)
            session.swap(level if back == 1 else level - 1)
            level += back
    return best_cost
