"""Totality and compatibility of characteristic functions.

A characteristic function (or any of its column functions at a cut) is
*total* when every input assignment admits at least one output
assignment: ``∀X ∃Y : χ(X, Y) = 1``.  For well-formed BDD_for_CFs —
where each output variable sits below the support variables of its
function (Definition 2.4) — totality can be decided by a single
linear-time pass over the BDD, quantifying each variable as it is
met in the order (∃ for output variables, ∀ for input variables):
by the time an output variable is reached its function value is fully
determined by the variables above it, so the "choose y knowing only
the upper variables" strategy is exact, not conservative.

Compatibility of two columns (Definition 3.7 lifted to CFs, as used by
Lemma 3.1 and Algorithms 3.1/3.3) is then ``total(χ_a · χ_b)``.  The
compatibility of χ's two cofactors by an input variable ``x`` (Sect.
3.3's support reduction) is the same walk started at ``(χ, χ)``, which
stays on χ's own nodes down to ``x``'s level and there pairs each
node's children, so neither cofactor is built.

Both predicates memoize through the manager's cache tiers: totality
per node in the ``tot`` tier, compatibility per (canonicalized,
packed) node pair in the ``compat`` tier — the pair memo is what lets
Algorithm 3.3's quadratic clique loop re-query pairs across heights
for free.  Entries are epoch-tagged (the walk direction depends on the
variable order) and generation-stamped, so reorders and GC invalidate
them lazily without a cache scan.

Each predicate has one code path, the node (pair) walk down to the
terminals, and :mod:`repro.bdd.reference` keeps the seed recursions
it is checked against.  No walk reads configuration: a query is a
pure function of the manager's state.  The pair walks charge one
step per visited pair to the active :mod:`~repro.bdd.governor`
budgets, checked every :data:`~repro.bdd.governor.CHECK_INTERVAL`
steps, as the apply kernel charges its frames.

:class:`ProbeSignatures` is not a second compatibility predicate but a
sound pre-test in front of the pair walk: packed on/off words over a
fixed set of probe input assignments refute a pair when some probe
admits no output vector, or forces one output to opposite values in
the two columns.  Either way ``∀X ∃Y : a·b`` is false, so the walk
would answer False too; pairs the words cannot refute still go to
:func:`compatible_columns`.
"""

from __future__ import annotations

import random

from repro.bdd import governor as _governor
from repro.bdd import reference
from repro.bdd.kernel import validator_epoch_bool, validator_epoch_bool_packed
from repro.bdd.manager import FALSE, TRUE, BDD

_TOT_VALIDATOR = validator_epoch_bool(1)
_COMPAT_VALIDATOR = validator_epoch_bool_packed(2)

#: Probe input assignments per signature, one bit each.  Wider words
#: buy little: 64 probes leave 69 of the 97,178 incompatible pairs of a
#: ``table5-arith`` benchmark round to the walk, 256 probes leave 20.
PROBES = 64
_PROBE_ALL = (1 << PROBES) - 1
_PROBE_SEED = 2005
_CHECK_MASK = _governor.CHECK_INTERVAL - 1


def ordered_total(bdd: BDD, u: int) -> bool:
    """Decide ``∀X ∃Y : χ = 1`` along the variable order.

    Output variables are quantified existentially, input variables
    universally, in BDD order.  Exact for well-formed CF columns (see
    module docstring); for arbitrary functions it is a sound (possibly
    strict) under-approximation of ``∀X ∃Y``.
    """
    if reference.SEED_MODE:
        return reference.seed_ordered_total(bdd, u)
    if u == TRUE:
        return True
    if u == FALSE:
        return False
    tier = bdd.op_cache("tot", _TOT_VALIDATOR)
    data = tier.data
    gen = bdd._gen
    epoch = bdd._epoch
    kinds = bdd._kinds
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid

    # Explicit stack with the same short-circuit as the recursion: an
    # output node whose lo-branch is total (or an input node whose
    # lo-branch is not) never visits its hi-branch.
    result = False
    stack: list[tuple[int, int]] = [(u, 0)]
    push = stack.append
    while stack:
        v, state = stack.pop()
        if state == 0:
            if v == TRUE:
                result = True
                continue
            if v == FALSE:
                result = False
                continue
            entry = data.get(v)
            if entry is not None and entry[1] == epoch and gen[v] == entry[2]:
                tier.hits += 1
                result = entry[0]
                continue
            tier.misses += 1
            push((v, 1))
            push((lo_arr[v], 0))
        elif state == 1:
            # ``result`` holds the lo-branch verdict.
            is_output = kinds[vid_arr[v]] == "output"
            if result == is_output:
                # ∃ with a true branch, or ∀ with a false branch: decided.
                tier.insert(v, (result, epoch, gen[v]))
            else:
                push((v, 2))
                push((hi_arr[v], 0))
        else:
            tier.insert(v, (result, epoch, gen[v]))
    return result


def compatible_columns(bdd: BDD, a: int, b: int) -> bool:
    """Compatibility of two CF column functions: ``total(a · b)``.

    ``a ~ b`` iff their product still allows an output choice for every
    input — Definition 3.7 applied to the ISFs the columns encode.

    The product is never materialized: the walk quantifies over the
    *conceptual* conjunction by descending pairs ``(x, y)`` of nodes,
    which turns Algorithm 3.3's dominant cost (hundreds of thousands of
    ``apply_and`` product constructions, all garbage afterwards) into a
    node-allocation-free Boolean DFS.  Sub-pair verdicts are memoized
    in the ``compat`` tier under the canonical (smaller id first) pair,
    so columns sharing subgraphs — the common case at adjacent heights
    — share most of the walk across top-level pair queries.
    """
    if reference.SEED_MODE:
        return reference.seed_compatible_columns(bdd, a, b)
    if a == FALSE or b == FALSE:
        return False
    if a == b or a == TRUE or b == TRUE:
        return ordered_total(bdd, b if a == TRUE else a)  # the product
    if a > b:
        a, b = b, a
    tier = bdd.op_cache("compat", _COMPAT_VALIDATOR)
    data = tier.data
    gen = bdd._gen
    epoch = bdd._epoch
    # Top-level probe before any further setup: the clique sweep
    # re-queries pairs across heights, so most calls resolve right
    # here and should not pay for the walk's local bindings.
    entry = data.get((a << 32) | b)
    if (
        entry is not None
        and entry[1] == epoch
        and gen[a] == entry[2]
        and gen[b] == entry[3]
    ):
        tier.hits += 1
        return entry[0]
    kinds = bdd._kinds
    level_of = bdd._level_of
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid

    governed = _governor._ACTIVE
    steps = 0

    # Pair walk over the conceptual product, same short-circuit shape
    # as ordered_total: state 0 visits a pair, state 1 sees the lo-pair
    # verdict, state 2 sees the hi-pair verdict.  Pair keys are packed
    # into one int — no tuple allocation on the sweep's hot path.
    result = False
    stack: list[tuple[int, int, int]] = [(a, b, 0)]
    push = stack.append
    while stack:
        x, y, state = stack.pop()
        if state == 0:
            if governed:
                steps += 1
                if not steps & _CHECK_MASK:
                    _governor.checkpoint(bdd, _CHECK_MASK + 1)
            if x == FALSE or y == FALSE:
                result = False
                continue
            if x == TRUE and y == TRUE:
                result = True
                continue
            if x == TRUE or y == TRUE or x == y:
                result = ordered_total(bdd, x if y == TRUE else y if x == TRUE else x)
                continue
            if x > y:
                x, y = y, x
            key = (x << 32) | y
            entry = data.get(key)
            if (
                entry is not None
                and entry[1] == epoch
                and gen[x] == entry[2]
                and gen[y] == entry[3]
            ):
                tier.hits += 1
                result = entry[0]
                continue
            tier.misses += 1
            lx = level_of[vid_arr[x]]
            ly = level_of[vid_arr[y]]
            push((x, y, 1))
            push((lo_arr[x] if lx <= ly else x, lo_arr[y] if ly <= lx else y, 0))
        elif state == 1:
            # ``result`` holds the lo-pair verdict.
            lx = level_of[vid_arr[x]]
            ly = level_of[vid_arr[y]]
            top_vid = vid_arr[x] if lx <= ly else vid_arr[y]
            if result == (kinds[top_vid] == "output"):
                # ∃ with a true branch, or ∀ with a false branch: decided.
                tier.insert((x << 32) | y, (result, epoch, gen[x], gen[y]))
            else:
                push((x, y, 2))
                push((hi_arr[x] if lx <= ly else x, hi_arr[y] if ly <= lx else y, 0))
        else:
            tier.insert((x << 32) | y, (result, epoch, gen[x], gen[y]))
    if steps & _CHECK_MASK:
        _governor.checkpoint(bdd, steps & _CHECK_MASK)
    return result


def compatible_cofactors(bdd: BDD, root: int, vid: int) -> bool:
    """Compatibility of χ's cofactors by ``vid``: ``total(χ|x=0 · χ|x=1)``.

    The pair walk of :func:`compatible_columns` started at
    ``(root, root)``, the left side standing for its ``x = 0`` cofactor
    and the right side for its ``x = 1`` cofactor.  Above ``x``'s level
    both sides take the same branch, so the pair stays ``(u, u)`` and
    the walk is one over χ's own nodes, quantified by the kind of each
    node's variable.  At ``x``'s level a node's pair is ``(lo, hi)``,
    handed to :func:`compatible_columns` and its ``compat`` tier; below
    it both cofactors are the node itself, whose verdict is
    :func:`ordered_total`.  The upper verdicts are memoized for this
    call only (the next variable's level differs).  A variable that
    stays therefore allocates no node and fills no ``cofactor`` tier
    entry; one step per visited node is charged to the active budgets.
    """
    if reference.SEED_MODE:
        return reference.seed_compatible_columns(
            bdd, bdd.cofactor(root, vid, 0), bdd.cofactor(root, vid, 1)
        )
    kinds = bdd._kinds
    level_of = bdd._level_of
    lo_arr, hi_arr, vid_arr = bdd._lo, bdd._hi, bdd._vid
    split = level_of[vid]
    memo: dict[int, bool] = {}
    governed = _governor._ACTIVE
    steps = 0

    # Same short-circuit shape as ordered_total.
    result = False
    stack: list[tuple[int, int]] = [(root, 0)]
    push = stack.append
    while stack:
        u, state = stack.pop()
        if state == 0:
            if governed:
                steps += 1
                if not steps & _CHECK_MASK:
                    _governor.checkpoint(bdd, _CHECK_MASK + 1)
            if u <= 1:
                result = u == TRUE
                continue
            level = level_of[vid_arr[u]]
            if level == split:
                result = compatible_columns(bdd, lo_arr[u], hi_arr[u])
                continue
            if level > split:
                result = ordered_total(bdd, u)
                continue
            r = memo.get(u)
            if r is not None:
                result = r
                continue
            push((u, 1))
            push((lo_arr[u], 0))
        elif state == 1:
            # ``result`` holds the lo-branch verdict.
            if result == (kinds[vid_arr[u]] == "output"):
                memo[u] = result
            else:
                push((u, 2))
                push((hi_arr[u], 0))
        else:
            memo[u] = result
    if steps & _CHECK_MASK:
        _governor.checkpoint(bdd, steps & _CHECK_MASK)
    return result


class ProbeSignatures:
    """Packed probe signatures of CF nodes, a sound pre-test for pairs.

    Probe ``p`` assigns every input variable ``x`` the bit ``p`` of a
    fixed random :data:`PROBES`-bit mask drawn for ``x``.  Each node
    ``u`` gets, bottom-up, three packed ints:

    * ``S``: the probes where the sub-CF of ``u`` admits some output
      vector;
    * ``ON``/``OFF``: one :data:`PROBES`-bit block per output variable,
      the probes where every admitted vector has that output at 1
      (``ON``) or at 0 (``OFF``).  A probe that admits nothing reads 1
      in every block, so it never hides a conflict.

    An input node takes each child's bits through its variable's mask
    (one multiplication spreads the mask to every output block).  An
    output node ``y_j`` has ``S = S0 | S1``, ``ON = ON0 & ON1`` and
    ``OFF = OFF0 & OFF1``, except block ``j``, which is ``~S0`` in
    ``ON`` and ``~S1`` in ``OFF``.  The children never test ``y_j``, so
    their block ``j`` reads ``~S0``/``~S1`` already and an OR sets it.

    A signature is a function of the node's Boolean function, so the
    memo stays valid while node ids are not recycled: create one
    instance per run that neither collects nor reorders.
    """

    def __init__(self, bdd: BDD) -> None:
        self._bdd = bdd
        rng = random.Random(_PROBE_SEED)
        outputs = [v for v in range(bdd.num_vars) if bdd.is_output_vid(v)]
        self._width = width = PROBES * len(outputs)
        all_blocks = (1 << width) - 1
        spread = sum(1 << (PROBES * k) for k in range(len(outputs)))
        #: Input vid -> (mask, ~mask, mask in every block, its complement).
        self._masks: dict[int, tuple[int, int, int, int]] = {}
        #: Output vid -> bit offset of its block.
        self._shift = {vid: PROBES * k for k, vid in enumerate(outputs)}
        for vid in range(bdd.num_vars):
            if vid not in self._shift:
                mask = rng.getrandbits(PROBES)
                blocks = mask * spread
                self._masks[vid] = (
                    mask, _PROBE_ALL ^ mask, blocks, all_blocks ^ blocks,
                )
        self._sigs: dict[int, tuple[int, int, int]] = {
            FALSE: (0, all_blocks, all_blocks),
            TRUE: (_PROBE_ALL, 0, 0),
        }

    def key(self, u: int) -> tuple[int, int] | None:
        """Pair-test key of column ``u``: ``(F, G)``, or None.

        A pair ``(a, b)`` is refuted iff ``F_a & G_b != 0``: the low
        half of the AND finds a probe where ``a`` forces an output to 1
        and ``b`` forces it to 0, the high half the opposite.  The test
        is symmetric.  None means some probe admits nothing under
        ``u``, so no column is compatible with it.
        """
        sig = self._sigs.get(u)
        if sig is None:
            sig = self._build(u)
        s, on, off = sig
        if s != _PROBE_ALL:
            return None
        w = self._width
        return on | off << w, off | on << w

    def _build(self, u: int) -> tuple[int, int, int]:
        bdd = self._bdd
        sigs = self._sigs
        masks = self._masks
        shift = self._shift
        vid_arr, lo_arr, hi_arr = bdd._vid, bdd._lo, bdd._hi
        stack = [u]
        push = stack.append
        while stack:
            v = stack[-1]
            if v in sigs:
                stack.pop()
                continue
            lo = lo_arr[v]
            hi = hi_arr[v]
            sig0 = sigs.get(lo)
            sig1 = sigs.get(hi)
            if sig0 is None or sig1 is None:
                if sig0 is None:
                    push(lo)
                if sig1 is None:
                    push(hi)
                continue
            stack.pop()
            s0, on0, off0 = sig0
            s1, on1, off1 = sig1
            vid = vid_arr[v]
            m = masks.get(vid)
            if m is None:
                j = shift[vid]
                sigs[v] = (
                    s0 | s1,
                    on0 & on1 | (_PROBE_ALL ^ s0) << j,
                    off0 & off1 | (_PROBE_ALL ^ s1) << j,
                )
            else:
                mask, nmask, blocks, nblocks = m
                sigs[v] = (
                    s1 & mask | s0 & nmask,
                    on1 & blocks | on0 & nblocks,
                    off1 & blocks | off0 & nblocks,
                )
        return sigs[u]
