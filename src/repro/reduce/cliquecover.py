"""Algorithm 3.2: heuristic minimal clique cover.

Covering the compatibility graph (Definition 3.8) with a minimum number
of cliques is NP-hard [5], so the paper uses a min-degree greedy
heuristic: repeatedly seed a clique with the minimum-degree remaining
node and grow it with minimum-degree common neighbours.  Ties go to the
smaller node (ints by value) for determinism; Algorithm 3.3 passes each
column as its position in rank order, so its ties follow the CF's
structure, not node ids.

The cover keeps every remaining node's degree up to date as cliques
leave and draws seeds from a lazy heap, so choosing a seed costs a
heap pop instead of a degree recount over every remaining node; the
seeds, and so the covers, are the ones the rescan would pick.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from heapq import heapify, heappop, heappush
from math import isqrt


def heuristic_clique_cover(
    nodes: Sequence[Hashable],
    adjacency: Mapping[Hashable, set],
) -> list[list[Hashable]]:
    """Cover ``nodes`` with cliques of the graph given by ``adjacency``.

    ``adjacency[v]`` holds the neighbours of ``v`` (the relation must be
    symmetric and irreflexive).  Returns a partition of ``nodes`` into
    cliques; isolated nodes come out as singletons first, matching the
    paper's initialization step.
    """
    remaining = set(nodes)
    adjacency_get = adjacency.get

    def degree_in(v: Hashable, pool: set) -> int:
        # Set intersection runs the membership loop in C; the clique
        # growth calls this once per (candidate, step).
        s = adjacency_get(v)
        return len(s & pool) if s else 0

    index = {v: i for i, v in enumerate(dict.fromkeys(nodes))}
    degree = {v: degree_in(v, remaining) for v in index}
    # Isolated nodes go straight into the cover.
    isolated = sorted((v for v in index if degree[v] == 0), key=_sort_key)
    cover: list[list[Hashable]] = [[v] for v in isolated]
    remaining.difference_update(isolated)
    # Lazy heap: an entry is stale once its node has left or its degree
    # has fallen since the push (degrees only fall, so the live entry
    # of a node is its smallest one).
    heap = [(degree[v], _sort_key(v), index[v], v) for v in remaining]
    heapify(heap)
    while heap:
        d, _, _, seed = heappop(heap)
        if seed not in remaining or d != degree[seed]:
            continue
        clique = [seed]
        neighbours = adjacency_get(seed)
        candidates = (neighbours & remaining) if neighbours else set()
        candidates.discard(seed)
        while candidates:
            nxt = min(
                candidates, key=lambda v: (degree_in(v, candidates), _sort_key(v))
            )
            clique.append(nxt)
            candidates.discard(nxt)
            candidates &= adjacency_get(nxt, set())
        cover.append(sorted(clique, key=_sort_key))
        remaining.difference_update(clique)
        touched = set()
        for u in clique:
            s = adjacency_get(u)
            if s:
                for w in s & remaining:
                    degree[w] -= 1
                    touched.add(w)
        for w in touched:
            heappush(heap, (degree[w], _sort_key(w), index[w], w))
    return cover


def pair_limit(n: int, max_pairs: int | None) -> int:
    """How many leading items of ``n`` the pair loop connects.

    All ``n`` when ``max_pairs`` is None or covers every pair;
    otherwise the largest ``k`` with ``k*(k-1)/2 <= max_pairs``.
    """
    if max_pairs is None or n * (n - 1) // 2 <= max_pairs:
        return n
    return (1 + isqrt(1 + 8 * max_pairs)) // 2


def build_compatibility_graph(
    items: Sequence[Hashable],
    compatible: Callable[[Hashable, Hashable], bool],
    *,
    max_pairs: int | None = None,
    signature: Callable[[Hashable], tuple[int, int] | None] | None = None,
    tail: int = 0,
) -> tuple[dict[Hashable, set], bool]:
    """Pairwise compatibility graph over ``items``.

    ``compatible(a, b)`` decides edges.  When ``max_pairs`` is given and
    the quadratic pair count would exceed it, only the first ``k`` items
    (``k`` = :func:`pair_limit`) are connected and the rest stay
    isolated; the second return value reports whether truncation
    happened.

    Two sound filters keep pairs away from ``compatible``:

    * ``signature(v)`` returns a key ``(F, G)``, or None for an item
      compatible with nothing; a pair is refuted iff ``F_a & G_b`` is
      non-zero (see :class:`repro.isf.compat.ProbeSignatures`).
      Without it every key is ``(0, 0)``, which refutes nothing.
    * Pairs inside the last ``tail`` items are never visited (Alg. 3.3
      puts its completely specified columns there).
    """
    adjacency: dict[Hashable, set] = {v: set() for v in items}
    n = len(items)
    limit = pair_limit(n, max_pairs)
    if signature is None:
        keys: list[tuple[int, int] | None] = [(0, 0)] * limit
    else:
        keys = [signature(v) for v in items[:limit]]
    for i in range(min(limit, n - tail)):
        key = keys[i]
        if key is None:
            continue
        a = items[i]
        f = key[0]
        for j in range(i + 1, limit):
            other = keys[j]
            if other is None or f & other[1]:
                continue
            b = items[j]
            if compatible(a, b):
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency, limit < n


def verify_clique_cover(
    nodes: Iterable[Hashable],
    adjacency: Mapping[Hashable, set],
    cover: Sequence[Sequence[Hashable]],
) -> bool:
    """Check that ``cover`` partitions ``nodes`` into genuine cliques."""
    flat = [v for clique in cover for v in clique]
    if sorted(map(_sort_key, flat)) != sorted(map(_sort_key, nodes)):
        return False
    for clique in cover:
        for i, a in enumerate(clique):
            for b in clique[i + 1 :]:
                if b not in adjacency.get(a, ()):
                    return False
    return True


def _sort_key(v: Hashable):
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, repr(v))
