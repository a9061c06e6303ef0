"""The iterative apply kernel and its tiered operation caches.

Every Boolean operation of :class:`repro.bdd.manager.BDD`
(``apply_and/or/xor/not``, ``ite``, ``cofactor``) is evaluated by one
explicit-stack evaluator, :func:`run`, driven by the operator table
:data:`OPS`; ``BDD.compose`` is one ITE over two cofactors.  Design
goals, in the style of mature BDD packages (CUDD/ABC):

* **No recursion.**  The evaluator keeps its own frame stack, so an
  operation over a 10,000-variable chain costs 10,000 loop iterations,
  not 10,000 Python frames — the word-list/scaling workloads push
  variable counts past Python's ~1000-frame recursion ceiling.
* **One kernel, six operators, two frame kinds.**  The operator table
  carries the terminal rules and operand normalization (commutative
  operand sorting so ``AND(f, g)`` and ``AND(g, f)`` share one cache
  line, and ITE standard-triple reduction: ``ite(f,g,g)=g``,
  ``ite(f,1,h)=f∨h``, ``ite(f,g,0)=f∧g``, ``ite(f,g,f)=f∧g``,
  ``ite(f,f,h)=f∨h``, ``ite(f,0,1)=¬f`` — delegations land in the
  AND/OR/NOT tiers where they share entries with direct calls).  A
  visit frame resolves or expands into two visits under a combine
  frame, which builds the node and caches it.
* **One computed-table class.**  Each operator owns an
  :class:`OpCache`, the bounded dict the named analysis tiers
  (tot/compat/gcf/rgc) use too.  Kernel keys pack the operand ids into
  one integer (32-bit fields), so a probe is one ``dict.get`` with no
  key tuple; a full tier drops its oldest quarter.
* **Selective invalidation.**  Cache entries are *generation-stamped*:
  every value records, for each node id it references, the node's
  generation counter at insert time.  Reordering swaps and garbage
  collection never clear the tables wholesale — freeing a node bumps
  its generation, which lazily invalidates exactly the entries
  touching it, while every surviving entry keeps serving hits because
  in-place reordering preserves the function denoted by a node id.
* **One path per operation.**  Every visit frame resolves by a
  terminal rule, hits its tier, or cofactors, so ``_kernel_steps``
  counts frame visits and :mod:`repro.bdd.reference` differentially
  checks the only code that runs.

The kernel reads the manager's parallel arrays directly; it lives in
its own module so the manager file stays the API surface.
"""

from __future__ import annotations

from itertools import islice

from repro.bdd import governor as _governor

_GOVERNED = _governor._ACTIVE  # the live budget stack (empty = ungoverned)
_CHECK_MASK = _governor.CHECK_INTERVAL - 1

#: Level assigned to terminal nodes: below every variable.
TERMINAL_LEVEL = 1 << 30

FALSE = 0
TRUE = 1

# Opcodes (dense ints: they index the operator and tier tables).
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_NOT = 3
OP_ITE = 4
OP_COFACTOR = 5


class OpCache:
    """One computed table: a bounded dict plus counters.

    Every tier is one: the six kernel opcodes' and the named analysis
    tiers (``tot``/``compat``/``gcf``/``rgc``).  Callers probe
    :attr:`data` directly and count their own hits and misses.  Kernel
    values are tuples ``(result, gen(node_1), ..., gen(node_k),
    gen(result))`` where ``node_1..k`` are the node-valued operands of
    the key; ``validator`` re-checks those generations (and, for
    order-sensitive tiers, the manager's reorder epoch) so stale
    entries read as misses.  Eviction is FIFO in batches of a quarter
    of the capacity — cheap, and old entries are exactly the ones
    least likely to be revisited by the sweep-style algorithms here.
    """

    __slots__ = (
        "name",
        "capacity",
        "data",
        "validator",
        "hits",
        "misses",
        "inserts",
        "evictions",
        "invalidations",
    )

    def __init__(self, name: str, capacity: int, validator=None):
        self.name = name
        self.capacity = capacity
        self.data: dict = {}
        self.validator = validator
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        self.invalidations = 0

    def insert(self, key, value) -> None:
        """Insert an entry, evicting the oldest quarter when full."""
        data = self.data
        data[key] = value
        self.inserts += 1
        if len(data) > self.capacity:
            drop = max(1, self.capacity >> 2)
            for stale in list(islice(iter(data), drop)):
                del data[stale]
            self.evictions += drop

    def purge(self, gen: list, epoch: int) -> int:
        """Eagerly drop entries that fail validation; keep the rest.

        Used by ``BDD.collect()`` so surviving entries keep serving
        hits while entries touching swept nodes stop occupying memory.
        Returns the number of entries dropped.
        """
        validator = self.validator
        data = self.data
        if validator is None:
            dropped = len(data)
            data.clear()
        else:
            dead = [k for k, v in data.items() if not validator(k, v, gen, epoch)]
            for k in dead:
                del data[k]
            dropped = len(dead)
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        self.invalidations += len(self.data)
        self.data.clear()

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "size": len(self.data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


# ----------------------------------------------------------------------
# Operator table: terminal rules and normalization
# ----------------------------------------------------------------------
#
# A terminal rule returns an int (the resolved result), a tuple
# ``(op, a, b, c)`` (delegate to another operator after
# normalization), or None (expand by cofactoring).  Operand sorting
# for the commutative operators is applied by the evaluator *after*
# the terminal rule, so the rules see the caller's operand order.


def _term_and(bdd, f, g, _c):
    if f == FALSE or g == FALSE:
        return FALSE
    if f == TRUE:
        return g
    if g == TRUE or f == g:
        return f
    return None


def _term_or(bdd, f, g, _c):
    if f == TRUE or g == TRUE:
        return TRUE
    if f == FALSE:
        return g
    if g == FALSE or f == g:
        return f
    return None


def _term_xor(bdd, f, g, _c):
    if f == g:
        return FALSE
    if f == FALSE:
        return g
    if g == FALSE:
        return f
    if f == TRUE:
        return (OP_NOT, g, -1, -1)
    if g == TRUE:
        return (OP_NOT, f, -1, -1)
    return None


def _term_not(bdd, f, _g, _c):
    if f <= 1:
        return 1 - f
    return None


def _term_ite(bdd, f, g, h):
    if f == TRUE:
        return g
    if f == FALSE:
        return h
    if g == h:
        return g
    if g == TRUE and h == FALSE:
        return f
    if g == FALSE and h == TRUE:
        return (OP_NOT, f, -1, -1)
    # Standard-triple reductions: route through the 2-operand tiers.
    if g == TRUE or f == g:
        return (OP_OR, f, h, -1)
    if h == FALSE or f == h:
        return (OP_AND, f, g, -1)
    return None


def _term_cofactor(bdd, f, vid, _value):
    if f <= 1:
        return f
    if bdd._level_of[bdd._vid[f]] > bdd._level_of[vid]:
        return f  # f does not depend on vid
    return None


# Generation validators over the packed kernel keys: ``OpCache.purge``
# (run by ``BDD.collect``) and the audit in repro.bdd.check re-check
# entries against these.


def _v_binary(key, v, gen, _epoch):  # key (a << 32) | b
    return gen[key >> 32] == v[1] and gen[key & 0xFFFFFFFF] == v[2] and gen[v[0]] == v[3]


def _v_unary(key, v, gen, _epoch):  # key a
    return gen[key] == v[1] and gen[v[0]] == v[2]


def _v_ite(key, v, gen, _epoch):  # key (f << 64) | (g << 32) | h
    return (
        gen[key >> 64] == v[1]
        and gen[(key >> 32) & 0xFFFFFFFF] == v[2]
        and gen[key & 0xFFFFFFFF] == v[3]
        and gen[v[0]] == v[4]
    )


def _v_cofactor(key, v, gen, _epoch):  # key (f << 64) | (vid << 32) | bit
    return gen[key >> 64] == v[1] and gen[v[0]] == v[2]


def validator_epoch_bool(key_nodes: int):
    """Validator factory for epoch-tagged predicate tiers (e.g. ``tot``).

    Entries are ``(value, epoch, gen(node_1), ..., gen(node_k))`` with
    ``key_nodes`` node ids in the key (the whole key when 1, else a
    tuple prefix).  Used by order-*sensitive* results — totality and
    generalized cofactors — which must additionally die on any reorder.
    """

    def validate(key, v, gen, epoch):
        if v[1] != epoch:
            return False
        if key_nodes == 1:
            return gen[key] == v[2]
        for i in range(key_nodes):
            if gen[key[i]] != v[2 + i]:
                return False
        return True

    return validate


def validator_epoch_bool_packed(key_nodes: int):
    """Like :func:`validator_epoch_bool` for packed-int keys.

    The ``tot``/``compat`` tiers pack their node operands as
    ``(a << 32) | b`` to skip tuple allocation on the pairwise sweeps;
    this validator unpacks the 32-bit fields inline.
    """

    if key_nodes == 1:
        return validator_epoch_bool(1)

    def validate(key, v, gen, epoch):
        if v[1] != epoch:
            return False
        return gen[key >> 32] == v[2] and gen[key & 0xFFFFFFFF] == v[3]

    return validate


class OpSpec:
    """One operator-table row: metadata driving the evaluator."""

    __slots__ = ("name", "commutative", "terminal", "validator")

    def __init__(self, name, commutative, terminal, validator):
        self.name = name
        self.commutative = commutative
        self.terminal = terminal
        self.validator = validator


#: The operator table, indexed by opcode.
OPS: tuple[OpSpec, ...] = (
    OpSpec("and", True, _term_and, _v_binary),
    OpSpec("or", True, _term_or, _v_binary),
    OpSpec("xor", True, _term_xor, _v_binary),
    OpSpec("not", False, _term_not, _v_unary),
    OpSpec("ite", False, _term_ite, _v_ite),
    OpSpec("cofactor", False, _term_cofactor, _v_cofactor),
)

_TERMINAL = tuple(spec.terminal for spec in OPS)
_COMMUTATIVE = tuple(spec.commutative for spec in OPS)


def make_kernel_tiers(capacity: int) -> tuple[OpCache, ...]:
    """Fresh per-operator computed tables, indexed by opcode."""
    return tuple(OpCache(spec.name, capacity, spec.validator) for spec in OPS)


# Frame tags for the explicit evaluation stack.
_VISIT = 0  # (0, op, a, b, c)                 evaluate, push result
_COMBINE = 1  # (1, op, key, vid, a, b, c)     pop hi/lo, mk, cache, push


def run(bdd, op: int, a: int, b: int = -1, c: int = -1) -> int:
    """Evaluate ``op`` over the operands with an explicit stack.

    The work stack holds frames (tagged tuples); ``out`` is the result
    stack.  A visit frame either resolves via the operator table's
    terminal rule, hits its tier, or pushes a combine frame plus the
    two cofactor visits; a combine frame pops the two results, makes
    the node, caches it and pushes it.

    When a :mod:`repro.bdd.governor` budget is active, the loop runs a
    checkpoint every :data:`~repro.bdd.governor.CHECK_INTERVAL` steps
    (once on entry, and the sub-interval remainder is charged on exit
    so budgets accumulate across many short runs).  A budget violation
    raises between iterations: the partial frames are discarded, every
    node and cache entry created so far is valid, and the charged steps
    still land in ``_kernel_steps`` — the manager stays consistent and
    usable.
    """
    vid_arr = bdd._vid
    lo_arr = bdd._lo
    hi_arr = bdd._hi
    level_of = bdd._level_of
    var_at_level = bdd._var_at_level
    gen = bdd._gen
    tiers = bdd._kernel_tiers
    mk = bdd.mk
    terminal_rules = _TERMINAL
    commutative = _COMMUTATIVE

    out: list[int] = []
    work: list[tuple] = [(_VISIT, op, a, b, c)]
    push = work.append
    pop = work.pop
    steps = 0
    governed = _GOVERNED
    if governed:
        _governor.checkpoint(bdd)

    try:
        while work:
            frame = pop()
            tag = frame[0]

            if tag == _VISIT:
                steps += 1
                if governed and not steps & _CHECK_MASK:
                    _governor.checkpoint(bdd, _CHECK_MASK + 1)
                op = frame[1]
                a = frame[2]
                b = frame[3]
                c = frame[4]
                t = terminal_rules[op](bdd, a, b, c)
                if t is not None:
                    if type(t) is int:
                        out.append(t)
                    else:  # normalized delegation (op2, a2, b2, c2)
                        push((_VISIT,) + t)
                    continue
                if commutative[op] and a > b:
                    a, b = b, a
                cache = tiers[op]

                if op <= OP_XOR:
                    key = (a << 32) | b
                    v = cache.data.get(key)
                    if (
                        v is not None
                        and gen[a] == v[1]
                        and gen[b] == v[2]
                        and gen[v[0]] == v[3]
                    ):
                        cache.hits += 1
                        out.append(v[0])
                        continue
                    cache.misses += 1
                    la = level_of[vid_arr[a]]
                    lb = level_of[vid_arr[b]]
                    if la <= lb:
                        vid = vid_arr[a]
                        a0 = lo_arr[a]
                        a1 = hi_arr[a]
                    else:
                        vid = vid_arr[b]
                        a0 = a1 = a
                    if lb <= la:
                        b0 = lo_arr[b]
                        b1 = hi_arr[b]
                    else:
                        b0 = b1 = b
                    push((_COMBINE, op, key, vid, a, b, -1))
                    push((_VISIT, op, a1, b1, -1))
                    push((_VISIT, op, a0, b0, -1))

                elif op == OP_NOT:
                    v = cache.data.get(a)
                    if v is not None and gen[a] == v[1] and gen[v[0]] == v[2]:
                        cache.hits += 1
                        out.append(v[0])
                        continue
                    cache.misses += 1
                    push((_COMBINE, op, a, vid_arr[a], a, -1, -1))
                    push((_VISIT, op, hi_arr[a], -1, -1))
                    push((_VISIT, op, lo_arr[a], -1, -1))

                elif op == OP_ITE:
                    key = (a << 64) | (b << 32) | c
                    v = cache.data.get(key)
                    if (
                        v is not None
                        and gen[a] == v[1]
                        and gen[b] == v[2]
                        and gen[c] == v[3]
                        and gen[v[0]] == v[4]
                    ):
                        cache.hits += 1
                        out.append(v[0])
                        continue
                    cache.misses += 1
                    la = level_of[vid_arr[a]]  # f is internal past the terminal rule
                    lb = TERMINAL_LEVEL if b <= 1 else level_of[vid_arr[b]]
                    lc = TERMINAL_LEVEL if c <= 1 else level_of[vid_arr[c]]
                    top = la if la <= lb else lb
                    if lc < top:
                        top = lc
                    vid = var_at_level[top]
                    if vid_arr[a] == vid:
                        a0, a1 = lo_arr[a], hi_arr[a]
                    else:
                        a0 = a1 = a
                    if b > 1 and vid_arr[b] == vid:
                        b0, b1 = lo_arr[b], hi_arr[b]
                    else:
                        b0 = b1 = b
                    if c > 1 and vid_arr[c] == vid:
                        c0, c1 = lo_arr[c], hi_arr[c]
                    else:
                        c0 = c1 = c
                    push((_COMBINE, op, key, vid, a, b, c))
                    push((_VISIT, op, a1, b1, c1))
                    push((_VISIT, op, a0, b0, c0))

                else:  # OP_COFACTOR
                    key = (a << 64) | (b << 32) | c
                    v = cache.data.get(key)
                    if v is not None and gen[a] == v[1] and gen[v[0]] == v[2]:
                        cache.hits += 1
                        out.append(v[0])
                        continue
                    cache.misses += 1
                    if level_of[vid_arr[a]] == level_of[b]:
                        r = hi_arr[a] if c else lo_arr[a]
                        cache.insert(key, (r, gen[a], gen[r]))
                        out.append(r)
                    else:
                        push((_COMBINE, op, key, vid_arr[a], a, -1, -1))
                        push((_VISIT, op, hi_arr[a], b, c))
                        push((_VISIT, op, lo_arr[a], b, c))

            else:  # _COMBINE
                op = frame[1]
                hi_r = out.pop()
                lo_r = out.pop()
                r = mk(frame[3], lo_r, hi_r)
                cache = tiers[op]
                key = frame[2]
                if op <= OP_XOR:
                    cache.insert(key, (r, gen[frame[4]], gen[frame[5]], gen[r]))
                elif op == OP_NOT:
                    cache.insert(key, (r, gen[key], gen[r]))
                    # Complement is an involution; prime the reverse entry.
                    cache.insert(r, (key, gen[r], gen[key]))
                elif op == OP_ITE:
                    cache.insert(
                        key, (r, gen[frame[4]], gen[frame[5]], gen[frame[6]], gen[r])
                    )
                else:  # OP_COFACTOR
                    cache.insert(key, (r, gen[frame[4]], gen[r]))
                out.append(r)

        # Charge the sub-interval remainder so short runs still count:
        # step budgets must accumulate across many small applies, not
        # only within one long one.
        if governed and steps & _CHECK_MASK:
            _governor.checkpoint(bdd, steps & _CHECK_MASK)
    finally:
        bdd._kernel_steps += steps
    return out[-1]
