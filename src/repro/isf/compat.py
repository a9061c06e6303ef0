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
Lemma 3.1 and Algorithms 3.1/3.3) is then ``total(χ_a · χ_b)``.

Both predicates memoize through the manager's cache tiers: totality
per node in the ``tot`` tier, compatibility per (canonicalized,
packed) node pair in the ``compat`` tier — the pair memo is what lets
Algorithm 3.3's quadratic clique loop re-query pairs across heights
for free.  Entries are epoch-tagged (the walk direction depends on the
variable order) and generation-stamped, so reorders and GC invalidate
them lazily without a cache scan.

Each predicate has one code path, the node (pair) walk down to the
terminals, and :mod:`repro.bdd.reference` keeps the seed recursions
it is checked against.  Neither walk reads configuration: a query is
a pure function of the manager's state.
"""

from __future__ import annotations

from repro.bdd import reference
from repro.bdd.kernel import validator_epoch_bool, validator_epoch_bool_packed
from repro.bdd.manager import FALSE, TRUE, BDD

_TOT_VALIDATOR = validator_epoch_bool(1)
_COMPAT_VALIDATOR = validator_epoch_bool_packed(2)


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
        return ordered_total(bdd, bdd.apply_and(a, b))
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
    return result
