"""Graphviz (DOT) export of BDD forests.

Mirrors the drawing conventions of the paper's figures: solid lines for
1-edges, dotted lines for 0-edges, ranks by variable level, and an
option to omit the constant 0 node and all edges into it (as in Fig. 2).

Nodes are named by structure, not by node id: the constants are ``n0``
and ``n1``, and the internal nodes ``n2``, ``n3``, ... in the pre-order
of :func:`~repro.bdd.traversal.node_ranks`, so a drawing does not
change when the manager numbers its nodes differently.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.bdd.traversal import node_ranks


def to_dot(
    bdd: BDD,
    roots: Mapping[str, int] | Sequence[int],
    *,
    omit_false: bool = True,
    graph_name: str = "bdd",
) -> str:
    """Render the BDD forest rooted at ``roots`` as a DOT string.

    ``roots`` is either a name -> node mapping (names become external
    pointers in the drawing) or a plain sequence of nodes.
    """
    if isinstance(roots, Mapping):
        named = dict(roots)
    else:
        named = {f"f{i}": r for i, r in enumerate(roots)}

    lines = [f"digraph {graph_name} {{", "  ordering=out;"]
    ranks = node_ranks(bdd, named.values())
    internal = sorted((u for u in ranks if u > 1), key=ranks.__getitem__)
    node_name = {FALSE: "n0", TRUE: "n1"}
    node_name.update((u, f"n{i}") for i, u in enumerate(internal, start=2))
    by_level: dict[int, list[int]] = {}
    for u in internal:
        by_level.setdefault(bdd.level(u), []).append(u)

    for name, root in named.items():
        lines.append(f'  "root_{name}" [label="{name}", shape=plaintext];')
        if root != FALSE or not omit_false:
            lines.append(f'  "root_{name}" -> "{node_name[root]}";')

    for level in sorted(by_level):
        members = by_level[level]
        var = bdd.name_of(bdd.vid_at_level(level))
        shape = "box" if bdd.is_output_vid(bdd.vid_at_level(level)) else "circle"
        decls = " ".join(f'"{node_name[u]}";' for u in members)
        lines.append(f"  {{ rank=same; {decls} }}")
        for u in members:
            lines.append(f'  "{node_name[u]}" [label="{var}", shape={shape}];')

    if TRUE in ranks:
        lines.append('  "n1" [label="1", shape=square];')
    if FALSE in ranks and not omit_false:
        lines.append('  "n0" [label="0", shape=square];')

    for u in internal:
        for style, child in (("dotted", bdd.lo(u)), ("solid", bdd.hi(u))):
            if child == FALSE and omit_false:
                continue
            lines.append(f'  "{node_name[u]}" -> "{node_name[child]}" [style={style}];')
    lines.append("}")
    return "\n".join(lines)
