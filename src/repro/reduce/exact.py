"""Exact minimum clique cover (for evaluating Algorithm 3.2).

Clique cover is NP-hard [5]; the paper therefore uses the min-degree
greedy heuristic.  For ablation studies we also provide an exact solver
for small graphs: minimum clique cover of G equals minimum proper
coloring of the complement graph, computed here with a branch-and-bound
over vertices in decreasing-degree order.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from repro.errors import ReproError

#: Safety bound: exact covering beyond this many nodes is refused.
MAX_EXACT_NODES = 24


def exact_minimum_clique_cover(
    nodes: Sequence[Hashable],
    adjacency: Mapping[Hashable, set],
) -> list[list[Hashable]]:
    """Minimum clique cover via coloring of the complement graph.

    Only intended for small graphs (ablation benchmarks and tests);
    raises :class:`ReproError` above ``MAX_EXACT_NODES`` nodes.
    """
    items = list(nodes)
    n = len(items)
    if n == 0:
        return []
    if n > MAX_EXACT_NODES:
        raise ReproError(
            f"exact clique cover limited to {MAX_EXACT_NODES} nodes, got {n}"
        )
    index = {v: i for i, v in enumerate(items)}
    # Complement adjacency as bitmasks.
    comp = [0] * n
    for i, v in enumerate(items):
        neighbours = adjacency.get(v, set())
        for j, w in enumerate(items):
            if i != j and w not in neighbours:
                comp[i] |= 1 << j

    order = sorted(range(n), key=lambda i: -bin(comp[i]).count("1"))
    best_colors: list[int] = [0] * n
    best_count = n + 1

    colors = [-1] * n

    def greedy_upper_bound() -> int:
        tmp = [-1] * n
        used = 0
        for i in order:
            taken = {tmp[j] for j in range(n) if comp[i] >> j & 1 and tmp[j] >= 0}
            c = 0
            while c in taken:
                c += 1
            tmp[i] = c
            used = max(used, c + 1)
        nonlocal best_count, best_colors
        best_count = used
        best_colors = tmp[:]
        return used

    greedy_upper_bound()

    def branch(pos: int, used: int) -> None:
        nonlocal best_count, best_colors
        if used >= best_count:
            return
        if pos == n:
            best_count = used
            best_colors = colors[:]
            return
        i = order[pos]
        taken = {
            colors[j] for j in range(n) if comp[i] >> j & 1 and colors[j] >= 0
        }
        for c in range(min(used + 1, best_count - 1)):
            if c in taken:
                continue
            colors[i] = c
            branch(pos + 1, max(used, c + 1))
            colors[i] = -1

    try:
        branch(0, 0)
    finally:
        del branch  # the closure refers to itself: free it without the cyclic GC

    cover: dict[int, list[Hashable]] = {}
    for i, v in enumerate(items):
        cover.setdefault(best_colors[i], []).append(v)
    return [cover[c] for c in sorted(cover)]
