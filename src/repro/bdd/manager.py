"""A from-scratch ROBDD manager.

This is the substrate for the whole reproduction: no external BDD
library is used.  Design notes:

* Nodes are small integers.  ``0`` is the constant FALSE, ``1`` the
  constant TRUE; every other node ``u`` has a variable ``vid(u)`` and
  two children ``lo(u)`` / ``hi(u)`` (else/then).
* Variables are identified by a *vid* (dense int) and carry a name and a
  kind (``"input"`` or ``"output"``).  The kind matters for the paper's
  characteristic-function semantics: output variables are
  existentially quantified in totality/compatibility checks and their
  edges into constant 0 are excluded from width counts (Theorem 3.1).
* The variable order is a mutable mapping vid <-> level.  Nodes store
  vids, not levels, so an adjacent-level swap (see
  :mod:`repro.bdd.reorder`) only rewrites nodes at the upper level.
* Reduced and ordered invariants are maintained by :meth:`BDD.mk`;
  structural equality of functions is id equality.
* There is no reference counting.  :meth:`BDD.collect` takes the set of
  roots the caller still needs and sweeps everything else, recycling
  node ids through a free list.
* All Boolean operations and cofactors are evaluated by the iterative
  kernel in :mod:`repro.bdd.kernel` — one explicit-stack evaluator
  driven by a six-row operator table, so no operation can hit
  Python's recursion limit; :meth:`BDD.compose` is one ITE over two
  cofactors.  Each operator owns a bounded computed table
  (:class:`~repro.bdd.kernel.OpCache`); entries are generation-stamped
  so reordering and garbage collection invalidate *selectively*
  instead of clearing the tables (see :meth:`cache_stats`).  The
  operation wrappers count the call and enter the kernel, whose first
  visit frame applies the terminal rules and probes the tier.
* Unique tables and kernel cache keys pack node ids into 32-bit
  fields (``(lo << 32) | hi`` per variable), so a probe hashes one
  int and allocates no tuple; :func:`check_capacity` keeps ids inside
  that range.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.bdd import stats
from repro.bdd.kernel import (
    FALSE,
    TRUE,
    OP_AND,
    OP_COFACTOR,
    OP_ITE,
    OP_NOT,
    OP_OR,
    OP_XOR,
    TERMINAL_LEVEL,
    OpCache,
    make_kernel_tiers,
    run,
)
from repro.errors import CapacityError, ForeignNodeError, VariableError

__all__ = ["BDD", "FALSE", "TRUE", "TERMINAL_LEVEL"]

#: Default capacity of each operation-cache tier.
DEFAULT_CACHE_CAPACITY = 1 << 18

#: Largest node id a packed 32-bit key field can carry.  Ids 0/1 are
#: the constants and ``2**32 - 1`` is kept unallocatable, so allocation
#: must stop at ``2**32 - 2``.
MAX_NODE_ID = (1 << 32) - 2


def check_capacity(next_id: int) -> None:
    """Refuse to allocate a node id the packed keys cannot represent.

    Called by ``BDD.mk`` (and the other allocation sites) before growing
    the node arrays; one integer compare on the (rare) fresh-allocation
    branch.  Raising here — at the 2³² boundary — replaces silently
    packing a 33-bit id into a 32-bit field and colliding with an
    unrelated node.
    """
    if next_id > MAX_NODE_ID:
        raise CapacityError(
            f"node-id space exhausted: cannot allocate id {next_id} "
            f"(packed 32-bit keys bound ids at {MAX_NODE_ID})",
            limit=MAX_NODE_ID,
        )


class BDD:
    """Manager owning a shared, reduced, ordered BDD forest."""

    FALSE = FALSE
    TRUE = TRUE

    def __init__(self, cache_capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        # Parallel arrays indexed by node id.  Slots 0/1 are terminals.
        self._vid: list[int] = [-1, -1]
        self._lo: list[int] = [-1, -1]
        self._hi: list[int] = [-1, -1]
        # Per-node generation counters: bumped when the id is freed, so
        # cache entries referencing a recycled id read as stale.
        self._gen: list[int] = [0, 0]
        self._free: list[int] = []
        # Per-variable unique tables: vid -> {(lo << 32) | hi: node}.
        self._unique: list[dict[int, int]] = []
        # Variable metadata.
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._name2vid: dict[str, int] = {}
        self._level_of: list[int] = []
        self._var_at_level: list[int] = []
        # Tiered operation caches: one per kernel opcode, plus named
        # tiers created on demand by the analyses (tot/compat/gcf/...).
        self._cache_capacity = cache_capacity
        self._kernel_tiers: tuple[OpCache, ...] = make_kernel_tiers(cache_capacity)
        self._named_tiers: dict[str, OpCache] = {}
        # Reorder epoch: bumped by every adjacent-level swap.  Node ids
        # keep denoting the same function across swaps, so the kernel
        # tiers survive; order-*sensitive* tiers tag entries with the
        # epoch and lazily drop them when it moves on.
        self._epoch = 0
        # Memo for crossing-section queries (see repro.bdd.traversal).
        self._sections_memo: dict = {}
        # Instrumentation counters (surfaced via cache_stats / stats.py).
        self._op_calls = 0
        self._kernel_steps = 0
        self._n_alive = 0
        self._peak_alive = 0
        stats.register(self)

    def __del__(self) -> None:
        try:
            stats.fold_dead(self)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Variables and ordering
    # ------------------------------------------------------------------

    def add_var(self, name: str, kind: str = "input") -> int:
        """Create a new variable at the bottom of the order; return its vid."""
        if name in self._name2vid:
            raise VariableError(f"variable {name!r} already exists")
        if kind not in ("input", "output"):
            raise VariableError(f"variable kind must be input/output, got {kind!r}")
        vid = len(self._names)
        self._names.append(name)
        self._kinds.append(kind)
        self._name2vid[name] = vid
        self._level_of.append(len(self._var_at_level))
        self._var_at_level.append(vid)
        self._unique.append({})
        return vid

    def add_vars(self, names: Iterable[str], kind: str = "input") -> list[int]:
        """Create several variables in order; return their vids."""
        return [self.add_var(name, kind) for name in names]

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._names)

    def vid(self, name: str) -> int:
        """Vid of a variable by name."""
        try:
            return self._name2vid[name]
        except KeyError:
            raise VariableError(f"unknown variable {name!r}") from None

    def name_of(self, vid: int) -> str:
        """Name of a variable by vid."""
        return self._names[vid]

    def kind_of(self, vid: int) -> str:
        """Kind ('input' or 'output') of a variable by vid."""
        return self._kinds[vid]

    def is_output_vid(self, vid: int) -> bool:
        """True when the variable is an output (y) variable."""
        return self._kinds[vid] == "output"

    def level_of_vid(self, vid: int) -> int:
        """Current level of a variable (0 = top of the order)."""
        return self._level_of[vid]

    def vid_at_level(self, level: int) -> int:
        """Vid of the variable currently at ``level``."""
        return self._var_at_level[level]

    def order(self) -> list[str]:
        """Variable names from the top of the order to the bottom."""
        return [self._names[v] for v in self._var_at_level]

    def level(self, u: int) -> int:
        """Level of a node (terminals sit below every variable)."""
        if u <= 1:
            return TERMINAL_LEVEL
        return self._level_of[self._vid[u]]

    # ------------------------------------------------------------------
    # Node structure
    # ------------------------------------------------------------------

    def var_of(self, u: int) -> int:
        """Vid labelling an internal node."""
        if u <= 1:
            raise ForeignNodeError("terminal nodes have no variable")
        return self._vid[u]

    def lo(self, u: int) -> int:
        """Else-child (variable = 0) of an internal node."""
        if u <= 1:
            raise ForeignNodeError("terminal nodes have no children")
        return self._lo[u]

    def hi(self, u: int) -> int:
        """Then-child (variable = 1) of an internal node."""
        if u <= 1:
            raise ForeignNodeError("terminal nodes have no children")
        return self._hi[u]

    def is_terminal(self, u: int) -> bool:
        """True for the constant nodes 0 and 1."""
        return u <= 1

    def mk(self, vid: int, lo: int, hi: int) -> int:
        """Find-or-create the reduced node ``(vid, lo, hi)``.

        Maintains the two ROBDD invariants: returns ``lo`` directly when
        the children coincide, and hash-conses every other node.
        """
        if lo == hi:
            return lo
        # Packed key: the hottest path in the engine allocates no tuple.
        table = self._unique[vid]
        key = (lo << 32) | hi
        u = table.get(key)
        if u is not None:
            return u
        if self._free:
            u = self._free.pop()
            self._vid[u] = vid
            self._lo[u] = lo
            self._hi[u] = hi
        else:
            u = len(self._vid)
            check_capacity(u)
            self._vid.append(vid)
            self._lo.append(lo)
            self._hi.append(hi)
            self._gen.append(0)
        table[key] = u
        n = self._n_alive + 1
        self._n_alive = n
        if n > self._peak_alive:
            self._peak_alive = n
        return u

    def var(self, name_or_vid: int | str) -> int:
        """The function of a single variable."""
        vid = self.vid(name_or_vid) if isinstance(name_or_vid, str) else name_or_vid
        return self.mk(vid, FALSE, TRUE)

    def nvar(self, name_or_vid: int | str) -> int:
        """The complemented single-variable function."""
        vid = self.vid(name_or_vid) if isinstance(name_or_vid, str) else name_or_vid
        return self.mk(vid, TRUE, FALSE)

    # ------------------------------------------------------------------
    # Boolean operations (all evaluated by the iterative kernel)
    # ------------------------------------------------------------------

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction of two functions."""
        self._op_calls += 1
        return run(self, OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction of two functions."""
        self._op_calls += 1
        return run(self, OP_OR, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive-or of two functions."""
        self._op_calls += 1
        return run(self, OP_XOR, f, g)

    def apply_not(self, f: int) -> int:
        """Complement of a function."""
        self._op_calls += 1
        return run(self, OP_NOT, f)

    def apply_and_many(self, fs: Iterable[int]) -> int:
        """Conjunction of many functions via balanced pairwise reduction.

        A balanced tree keeps intermediate results small and their
        cache keys reusable, unlike a left fold.
        """
        ops = [f for f in fs]
        if not ops:
            return TRUE
        while len(ops) > 1:
            nxt = [self.apply_and(ops[i], ops[i + 1]) for i in range(0, len(ops) - 1, 2)]
            if len(ops) % 2:
                nxt.append(ops[-1])
            ops = nxt
        return ops[0]

    def apply_or_many(self, fs: Iterable[int]) -> int:
        """Disjunction of many functions via balanced pairwise reduction."""
        ops = [f for f in fs]
        if not ops:
            return FALSE
        while len(ops) > 1:
            nxt = [self.apply_or(ops[i], ops[i + 1]) for i in range(0, len(ops) - 1, 2)]
            if len(ops) % 2:
                nxt.append(ops[-1])
            ops = nxt
        return ops[0]

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g ∨ ¬f·h``."""
        self._op_calls += 1
        return run(self, OP_ITE, f, g, h)

    def implies(self, f: int, g: int) -> bool:
        """Decide whether ``f → g`` is a tautology (``f·¬g = 0``)."""
        return self.apply_and(f, self.apply_not(g)) == FALSE

    # ------------------------------------------------------------------
    # Cofactors, restriction, composition
    # ------------------------------------------------------------------

    def cofactor(self, f: int, vid: int, value: int) -> int:
        """Shannon cofactor of ``f`` with respect to one variable."""
        self._op_calls += 1
        if f <= 1:
            return f
        return run(self, OP_COFACTOR, f, vid, 1 if value else 0)

    def restrict(self, f: int, assignment: Mapping[int, int]) -> int:
        """Restrict several variables at once; ``assignment`` maps vid -> bit."""
        for vid, value in sorted(assignment.items(), key=lambda kv: self._level_of[kv[0]]):
            f = self.cofactor(f, vid, 1 if value else 0)
        return f

    def compose(self, f: int, vid: int, g: int) -> int:
        """Substitute function ``g`` for variable ``vid`` in ``f``.

        Shannon form ``g·f|v=1 ∨ ¬g·f|v=0``: the two cofactors walk ``f``
        through the cofactor tier and one ITE merges ``g``.
        """
        return self.ite(g, self.cofactor(f, vid, 1), self.cofactor(f, vid, 0))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def support(self, f: int) -> set[int]:
        """Set of vids the function structurally depends on."""
        seen: set[int] = set()
        vids: set[int] = set()
        stack = [f]
        while stack:
            u = stack.pop()
            if u <= 1 or u in seen:
                continue
            seen.add(u)
            vids.add(self._vid[u])
            stack.append(self._lo[u])
            stack.append(self._hi[u])
        return vids

    def evaluate(self, f: int, assignment: Mapping[int, int]) -> int:
        """Evaluate ``f`` under a total assignment (vid -> bit)."""
        u = f
        while u > 1:
            vid = self._vid[u]
            try:
                bit = assignment[vid]
            except KeyError:
                raise VariableError(
                    f"assignment is missing variable {self._names[vid]!r}"
                ) from None
            u = self._hi[u] if bit else self._lo[u]
        return u

    def reachable(self, roots: Iterable[int]) -> set[int]:
        """All nodes (including terminals) reachable from ``roots``."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if u > 1:
                stack.append(self._lo[u])
                stack.append(self._hi[u])
        return seen

    def count_nodes(self, *roots: int) -> int:
        """Number of internal (non-terminal) nodes reachable from roots."""
        return sum(1 for u in self.reachable(roots) if u > 1)

    def sat_count(self, f: int, vids: Sequence[int] | None = None) -> int:
        """Number of satisfying assignments over a variable universe.

        ``vids`` (all declared variables when omitted) defines the
        universe and must contain the support of ``f``.
        """
        universe = list(vids) if vids is not None else list(range(self.num_vars))
        nvars = len(universe)
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << nvars
        levels = sorted(self._level_of[v] for v in universe)
        index_of_level = {lvl: i for i, lvl in enumerate(levels)}
        level_of = self._level_of
        vid_arr = self._vid

        # Iterative post-order: counts[u] = assignments of variables
        # strictly below u's universe position.
        counts: dict[int, int] = {FALSE: 0, TRUE: 1}
        stack = [f]
        while stack:
            u = stack[-1]
            if u in counts:
                stack.pop()
                continue
            lo, hi = self._lo[u], self._hi[u]
            ready = True
            if hi not in counts:
                stack.append(hi)
                ready = False
            if lo not in counts:
                stack.append(lo)
                ready = False
            if not ready:
                continue
            stack.pop()
            pos = index_of_level[level_of[vid_arr[u]]]
            total = 0
            for child in (lo, hi):
                child_pos = (
                    nvars if child <= 1 else index_of_level[level_of[vid_arr[child]]]
                )
                total += counts[child] << (child_pos - pos - 1)
            counts[u] = total
        top_pos = index_of_level[level_of[vid_arr[f]]]
        return counts[f] << top_pos

    # ------------------------------------------------------------------
    # Caches and maintenance
    # ------------------------------------------------------------------

    def op_cache(self, name: str, validator=None) -> OpCache:
        """Named cache tier for analyses layered on the engine.

        The tier shares the manager's capacity/eviction policy and is
        included in :meth:`cache_stats`, :meth:`clear_cache`, and the
        purge performed by :meth:`collect`.  ``validator`` (see
        :class:`~repro.bdd.kernel.OpCache`) decides entry liveness
        against node generations and the reorder epoch.
        """
        tier = self._named_tiers.get(name)
        if tier is None:
            tier = OpCache(name, self._cache_capacity, validator)
            self._named_tiers[name] = tier
        return tier

    def iter_cache_tiers(self) -> Iterator[OpCache]:
        """All cache tiers: kernel opcodes first, then named tiers."""
        yield from self._kernel_tiers
        yield from self._named_tiers.values()

    def cache_stats(self) -> dict:
        """Per-tier and aggregate cache statistics plus engine counters.

        Returns a dict with ``tiers`` (name -> size/hits/misses/
        inserts/evictions/invalidations/hit_rate), aggregate ``totals``,
        the reorder ``epoch``, ``op_calls``/``kernel_steps``, and the
        current/peak alive node counts.
        """
        tiers = {tier.name: tier.stats() for tier in self.iter_cache_tiers()}
        totals = {
            "hits": sum(t["hits"] for t in tiers.values()),
            "misses": sum(t["misses"] for t in tiers.values()),
            "inserts": sum(t["inserts"] for t in tiers.values()),
            "evictions": sum(t["evictions"] for t in tiers.values()),
            "invalidations": sum(t["invalidations"] for t in tiers.values()),
            "size": sum(t["size"] for t in tiers.values()),
        }
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = (totals["hits"] / lookups) if lookups else 0.0
        return {
            "tiers": tiers,
            "totals": totals,
            "epoch": self._epoch,
            "op_calls": self._op_calls,
            "kernel_steps": self._kernel_steps,
            "alive_nodes": self.num_alive_nodes(),
            "peak_nodes": self._peak_alive,
        }

    def clear_cache(self) -> None:
        """Drop every operation-cache tier (counters are kept)."""
        for tier in self.iter_cache_tiers():
            tier.clear()
        self._sections_memo.clear()

    def _note_reorder(self) -> None:
        """Record an adjacent-level swap.

        Node ids keep denoting the same function across an in-place
        swap, so the kernel tiers stay valid (entries touching nodes
        freed *during* the swap die via their generation stamps).  The
        epoch bump lazily retires order-sensitive tiers and the
        crossing-section memo.
        """
        self._epoch += 1
        self._sections_memo.clear()

    def collect(self, roots: Iterable[int]) -> int:
        """Sweep nodes unreachable from ``roots``; return the number freed.

        The caller promises that every node id it still holds is in
        (or reachable from) ``roots``.  Stale ids become invalid.
        Cache entries whose nodes all survive are kept; entries
        touching swept nodes are purged eagerly.
        """
        alive = self.reachable(roots)
        freed = 0
        for table in self._unique:
            dead = [key for key, u in table.items() if u not in alive]
            for key in dead:
                u = table.pop(key)
                self._vid[u] = -1
                self._lo[u] = -1
                self._hi[u] = -1
                self._gen[u] += 1
                self._free.append(u)
                freed += 1
        if freed:
            self._n_alive -= freed
            gen = self._gen
            epoch = self._epoch
            for tier in self.iter_cache_tiers():
                tier.purge(gen, epoch)
            self._sections_memo.clear()
        return freed

    def num_alive_nodes(self) -> int:
        """Number of internal nodes currently in the unique tables."""
        return sum(len(table) for table in self._unique)

    def check_invariants(self, roots: Iterable[int] = ()) -> None:
        """Raise :class:`~repro.errors.IntegrityError` when
        :func:`repro.bdd.check.check_manager` finds a violation."""
        from repro.bdd import check

        check.verify_manager(self, roots)
