"""Algorithm 3.3: width reduction of a BDD_for_CF via clique covering.

For every height from ``t - 1`` down to 1 (Sect. 3.2):

  1. collect the column functions crossing the section,
  2. build their compatibility graph (Definition 3.8) and cover it with
     the min-degree greedy clique cover (Algorithm 3.2),
  3. AND together the members of each clique,
  4. substitute the merged function for every member and rebuild the
     BDD above the section.

Columns are ordered, and the clique cover breaks its ties, by *rank*:
a node's pre-order position in a depth-first walk from the current
root, lo child before hi child (:func:`~repro.bdd.traversal.node_ranks`).
Ranks depend on the CF alone, so the result does too: a CF built
another way, copied into a fresh manager or loaded from an RBCF
snapshot reduces to the same CF, which node ids did not guarantee.

Step 2 looks at every pair of columns, and two sound filters keep most
of them from the pair walk.  Two distinct completely specified columns
(no don't care anywhere below the section) always conflict, so the
columns go to :func:`build_compatibility_graph` with the specified ones
last, and it never visits a pair among them.  Every other pair meets
the probe signatures of :class:`~repro.isf.compat.ProbeSignatures`
first, which refute most incompatible pairs without a walk; only the
rest reach :func:`~repro.isf.compat.compatible_columns`.  Because both
filters are sound, the graph and the cover are the ones the full pair
loop gives.  Under :func:`repro.bdd.reference.seed_engine` no signature
is used, so the seed baseline walks every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bdd import reference
from repro.cf.charfun import CharFunction
from repro.cf.width import columns_at_height, substitute_columns
from repro.isf.compat import ProbeSignatures, compatible_columns, ordered_total
from repro.reduce.cliquecover import (
    build_compatibility_graph,
    heuristic_clique_cover,
    pair_limit,
)
from repro.reduce.dc import DontCareOracle
from repro.errors import IncompatibleError
from repro._config import LIMITS


@dataclass
class Alg33Stats:
    """Bookkeeping of one Algorithm 3.3 run (reported by the harness)."""

    heights_processed: int = 0
    merges: int = 0
    pairs_checked: int = 0
    truncated_heights: list[int] = field(default_factory=list)


def algorithm_3_3(
    cf: CharFunction,
    *,
    max_pairs: int | None = None,
) -> tuple[CharFunction, Alg33Stats]:
    """Apply Algorithm 3.3; returns the refined CF and run statistics.

    ``max_pairs`` bounds the pairwise compatibility checks per height
    (defaults to ``LIMITS.max_compat_pairs``); heights where the bound
    truncated the graph are recorded in the stats.

    No garbage collection is performed here: the manager may hold other
    roots the caller still needs, so reclaiming dead nodes (via
    ``bdd.collect``) is the caller's responsibility.
    """
    if max_pairs is None:
        max_pairs = LIMITS.max_compat_pairs
    bdd = cf.bdd
    root = cf.root
    stats = Alg33Stats()
    t = bdd.num_vars

    # One oracle for the whole run: no reordering happens inside the
    # loop, and substitution only creates nodes (never mutates), so the
    # per-node dc cache stays valid across heights.
    oracle = DontCareOracle(bdd)
    # Signatures are memoized per node, which holds for the same reason.
    # The seed engine walks every pair, like the baseline it stands for.
    signature = None if reference.SEED_MODE else ProbeSignatures(bdd).key
    for height in range(t - 1, 0, -1):
        columns = columns_at_height(bdd, root, height)
        if len(columns) < 2:
            continue
        mergeable: list[int] = []
        specified: list[int] = []
        for c in columns:
            (mergeable if oracle.column_has_dc(c, height) else specified).append(c)
        if not mergeable:
            continue
        stats.heights_processed += 1
        # The graph and the cover see each column as its position in
        # the rank-ordered columns, so their tie-breaks follow the
        # structure, not the node numbering.  A completely specified
        # column can absorb compatible dc-bearing columns, so it stays
        # in the graph, at the tail, where build_compatibility_graph
        # skips the specified-specified pairs.
        index_of = {c: i for i, c in enumerate(columns)}
        candidates = [index_of[c] for c in mergeable + specified]
        adjacency, truncated = build_compatibility_graph(
            candidates,
            lambda a, b: compatible_columns(bdd, columns[a], columns[b]),
            max_pairs=max_pairs,
            signature=(
                None if signature is None else lambda i: signature(columns[i])
            ),
            tail=len(specified),
        )
        k = pair_limit(len(candidates), max_pairs)
        k_specified = max(0, k - len(mergeable))
        stats.pairs_checked += k * (k - 1) // 2 - k_specified * (k_specified - 1) // 2
        if truncated:
            stats.truncated_heights.append(height)
        cover = heuristic_clique_cover(candidates, adjacency)
        substitution: dict[int, int] = {}
        for clique in cover:
            if len(clique) < 2:
                continue
            members = [columns[i] for i in clique]
            merged = bdd.apply_and_many(members)
            if not ordered_total(bdd, merged):
                raise IncompatibleError(
                    "pairwise-compatible clique produced a non-total product"
                )
            for member in members:
                if member != merged:
                    substitution[member] = merged
            stats.merges += len(clique) - 1
        if substitution:
            root = substitute_columns(
                bdd, root, height, lambda u: substitution.get(u, u)
            )

    return cf.replaced(root, suffix="/alg3.3"), stats
