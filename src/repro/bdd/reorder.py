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
  for small enough BDDs, per ``repro._config.LIMITS``).
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
from itertools import accumulate

from repro.bdd import check
from repro.bdd import governor as _governor
from repro.bdd.manager import BDD, FALSE
from repro.bdd.traversal import crossing_counts
from repro.errors import IntegrityError, OrderingError
from repro._config import LIMITS

CostFn = Callable[[BDD, Sequence[int]], float]


class SiftSession:
    """Owns reference counts and performs adjacent swaps for one reorder.

    The session must be the only thing creating or destroying nodes
    while it is active (its methods call ``bdd.mk`` internally and keep
    the reference counts consistent).

    With ``widths=True`` the session also keeps :attr:`counts` — what
    ``crossing_counts(bdd, roots)`` would return — and their sum of
    widths :attr:`width_sum` up to date across every swap.
    """

    def __init__(self, bdd: BDD, roots: Sequence[int], *, widths: bool = False):
        self.bdd = bdd
        self.roots = list(dict.fromkeys(roots))  # dedupe, keep order
        self._ref: dict[int, int] = {}
        self.size = 0
        self._init_refs()
        self.counts: list[int] | None = None
        self.width_sum = 0
        self._mf: dict[int, int] | None = None
        if widths:
            self._init_widths()

    def _init_refs(self) -> None:
        bdd = self.bdd
        ref = self._ref
        for u in bdd.reachable(self.roots):
            if u > 1:
                ref[u] = 0
                self.size += 1
        for u in list(ref):
            for child in (bdd.lo(u), bdd.hi(u)):
                if child > 1:
                    ref[child] += 1
        for r in self.roots:
            if r > 1:
                ref[r] += 1
        # Reclaim any garbage not reachable from the roots so that the
        # unique tables agree with the reference counts.
        bdd.collect(self.roots)

    def _init_widths(self) -> None:
        # _mf[u]: the level of the highest edge into u, -1 for a root,
        # for every live node but FALSE.  u crosses the sections
        # _mf[u] + 1 .. level(u), with TRUE at level t, so a difference
        # array over levels yields every count (as crossing_counts).
        bdd = self.bdd
        t = bdd.num_vars
        level_of, vid_arr = bdd._level_of, bdd._vid
        lo_arr, hi_arr = bdd._lo, bdd._hi
        mf: dict[int, int] = {}
        for u in self._ref:
            level = level_of[vid_arr[u]]
            for child in (lo_arr[u], hi_arr[u]):
                if child != FALSE and mf.get(child, t) > level:
                    mf[child] = level
        for r in self.roots:
            if r != FALSE:
                mf[r] = -1
        diff = [0] * (t + 2)
        for u, m in mf.items():
            diff[m + 1] += 1
            diff[(level_of[vid_arr[u]] if u > 1 else t) + 1] -= 1
        self._mf = mf
        self.counts = list(accumulate(diff[: t + 1]))
        self.width_sum = 1 + sum(self.counts[:t])

    def check_widths(self) -> None:
        """Raise :class:`IntegrityError` unless the kept counts are exact.

        Compares :attr:`counts` and :attr:`width_sum` with one fresh
        :func:`~repro.bdd.traversal.crossing_counts` pass.
        """
        fresh = crossing_counts(self.bdd, self.roots)
        kept = self.counts
        violations = [
            check.InvariantViolation(
                "counter", f"section {s}", f"kept crossing count {k}, fresh pass {f}"
            )
            for s, (k, f) in enumerate(zip(kept, fresh))
            if k != f
        ]
        fresh_sum = 1 + sum(fresh[: self.bdd.num_vars])
        if self.width_sum != fresh_sum:
            violations.append(
                check.InvariantViolation(
                    "counter", "width sum", f"kept {self.width_sum}, fresh pass {fresh_sum}"
                )
            )
        if violations:
            raise IntegrityError(
                f"sift session widths failed self-check: {violations[0]}",
                violations=tuple(violations),
            )

    # -- reference-count helpers --------------------------------------

    def _incref(self, u: int) -> None:
        if u > 1:
            self._ref[u] = self._ref.get(u, 0) + 1

    def _decref(self, u: int) -> None:
        if u <= 1:
            return
        ref = self._ref
        bdd = self.bdd
        stack = [u]
        while stack:
            v = stack.pop()
            if v <= 1:
                continue
            n = ref[v] - 1
            if n:
                ref[v] = n
                continue
            # Node died: remove it physically and release its children.
            # Deaths can cascade arbitrarily deep, hence the explicit
            # stack.  _free_node bumps the node's generation, which is
            # what lazily invalidates cache entries touching it.
            del ref[v]
            self.size -= 1
            stack.append(bdd._lo[v])
            stack.append(bdd._hi[v])
            bdd._free_node(v)

    def _mk(self, vid: int, lo: int, hi: int) -> int:
        """mk() that keeps reference counts and the live size exact."""
        if lo == hi:
            return lo
        bdd = self.bdd
        u = bdd._unique[vid].data.get((lo << 32) | hi)
        if u is not None:
            return u
        u = bdd.mk(vid, lo, hi)
        self._ref[u] = 0
        self.size += 1
        self._incref(lo)
        self._incref(hi)
        return u

    # -- the swap ------------------------------------------------------

    def swap(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place."""
        bdd = self.bdd
        if level < 0 or level + 1 >= bdd.num_vars:
            raise OrderingError(f"cannot swap level {level} of {bdd.num_vars} variables")
        x = bdd._var_at_level[level]
        y = bdd._var_at_level[level + 1]
        vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
        x_data = bdd._unique[x].data
        y_data = bdd._unique[y].data
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
            new_lo = self._mk(x, f00, f10)
            new_hi = self._mk(x, f01, f11)
            key = (new_lo << 32) | new_hi
            if key in y_data:  # pragma: no cover - impossible by construction
                raise OrderingError("swap produced a duplicate node")
            self._incref(new_lo)
            self._incref(new_hi)
            vid_arr[u] = y
            lo_arr[u] = new_lo
            hi_arr[u] = new_hi
            y_data[key] = u
            self._decref(f0)
            self._decref(f1)

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
        # freed by the _decref cascade above die via their generation
        # stamps; order-sensitive tiers retire on the epoch bump.
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

    Each variable in turn is moved across its admissible level range
    (down first, then up), the cost is sampled at every position, and
    the variable is parked at the best one.  ``cost_fn`` defaults to the
    live node count; the Table 4 pipeline passes :func:`width_sum` for
    BDDs under ``LIMITS.sift_widthsum_node_limit`` nodes, matching the
    paper's cost function.  The session keeps both of these up to
    date inside its swaps, so sampling them reads a number; any other
    ``cost_fn`` is called at every position.  Under ``REPRO_SELFCHECK=1`` a width-sum sift ends
    by auditing its kept counts against one fresh pass
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
        population: dict[int, int] = {v: 0 for v in range(bdd.num_vars)}
        for v in range(bdd.num_vars):
            population[v] = len(bdd._unique[v])
        order = sorted(range(bdd.num_vars), key=lambda v: -population[v])
        for vid in order:
            # Cooperative budget check between variables: a raise here
            # (or inside _sift_one, between swaps) leaves the manager
            # consistent — just under a partially improved order.
            if _governor._ACTIVE:
                _governor.checkpoint(bdd)
            current = _sift_one(bdd, session, vid, precedence, cost, max_growth)
        if current >= round_start:
            break
    if session.counts is not None and check.selfcheck_enabled():
        session.check_widths()
    return current


def _sift_one(
    bdd: BDD,
    session: SiftSession,
    vid: int,
    precedence: Sequence[tuple[int, int]],
    cost: Callable[[], float],
    max_growth: float,
) -> float:
    lb, ub = _bounds(bdd, vid, precedence)
    start_level = bdd.level_of_vid(vid)
    best_cost = cost()
    best_level = start_level
    start_size = session.size

    # Explore the closer boundary first (classic sifting heuristic),
    # returning to the best-so-far position between directions.
    go_down_first = (ub - start_level) <= (start_level - lb)
    for direction in ((1, -1) if go_down_first else (-1, 1)):
        level = bdd.level_of_vid(vid)
        limit = ub if direction == 1 else lb
        while level != limit:
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
        session.move_var(vid, best_level)
    return best_cost
