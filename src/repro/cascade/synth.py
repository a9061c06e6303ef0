"""LUT cascade synthesis from a BDD_for_CF (Sect. 5.2/5.3).

The cascade is obtained by repeatedly applying the Theorem 3.1
decomposition: bands of adjacent levels become cells, the column
functions at each cut become rail states encoded in ``ceil(log2 W)``
wires.  Cuts are packed greedily — each cell absorbs as many levels as
its input/output limits allow — and synthesis fails (so the caller can
split the output set into several cascades) when even a single level
does not fit.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.bdd import reference
from repro.bdd.manager import TRUE, BDD
from repro.bdd.traversal import crossing_counts
from repro.cascade.cell import Cascade, Cell, rail_width
from repro.cf.charfun import CharFunction
from repro.decomp.functional import enumerate_band_walks, walk_segment
from repro.errors import CascadeError


def synthesize_cascade(
    cf: CharFunction,
    *,
    max_cell_inputs: int = 12,
    max_cell_outputs: int = 10,
    name: str | None = None,
) -> Cascade:
    """Pack the CF's levels into cells and derive their LUT contents.

    Raises :class:`CascadeError` when no feasible packing exists under
    the limits; see :func:`synthesize_forest` for automatic output
    splitting.
    """
    bdd = cf.bdd
    t = bdd.num_vars
    if cf.root == 0:
        raise CascadeError("cannot synthesize a cascade for the empty CF")
    counts = crossing_counts(bdd, [cf.root])
    live = bdd.support(cf.root)
    cuts = _pack_cells(
        bdd, counts, live, t, max_cell_inputs, max_cell_outputs
    )
    # Cells are extracted with the *live* entry sets: a width-reduced CF
    # can contain columns that only appear as the non-chosen branch of
    # an output node (allowed by χ but never produced by the refinement
    # the cells realize), and those must not consume rail codes.  The
    # live sets are subsets of the crossing targets used for packing,
    # so the cell limits checked by _pack_cells still hold.
    cells: list[Cell] = []
    entries = [cf.root]
    for index, (top, bottom) in enumerate(cuts):
        cell, exits = _build_cell(bdd, entries, live, index, top, bottom, t)
        cells.append(cell)
        entries = exits
    return Cascade(cells, name=name if name is not None else cf.name)


def _band_vars(
    bdd: BDD, live: set[int], top: int, bottom: int
) -> tuple[list[int], list[int]]:
    """Live input and output vids with levels in ``[top, bottom)``."""
    inputs: list[int] = []
    outputs: list[int] = []
    for level in range(top, bottom):
        vid = bdd.vid_at_level(level)
        if vid not in live:
            continue
        (outputs if bdd.is_output_vid(vid) else inputs).append(vid)
    return inputs, outputs


def _pack_cells(
    bdd: BDD,
    counts: Sequence[int],
    live: set[int],
    t: int,
    max_in: int,
    max_out: int,
) -> list[tuple[int, int]]:
    """Greedy maximal bands ``[top, bottom)`` satisfying the cell limits."""
    cuts: list[tuple[int, int]] = []
    top = 0
    while top < t:
        rails_in = rail_width(counts[top])
        best_bottom = None
        for bottom in range(top + 1, t + 1):
            inputs, outputs = _band_vars(bdd, live, top, bottom)
            rails_out = 0 if bottom == t else rail_width(counts[bottom])
            cell_in = rails_in + len(inputs)
            cell_out = rails_out + len(outputs)
            if cell_in > max_in:
                break  # inputs only grow with the band
            if cell_out <= max_out:
                best_bottom = bottom
        if best_bottom is None:
            raise CascadeError(
                f"no feasible cell at level {top}: rails_in={rails_in}, "
                f"limits={max_in} in / {max_out} out"
            )
        cuts.append((top, best_bottom))
        top = best_bottom
    return cuts


def _build_cell(
    bdd: BDD,
    entries: Sequence[int],
    live: set[int],
    index: int,
    top: int,
    bottom: int,
    t: int,
) -> tuple[Cell, list[int]]:
    """Extract one cell from the live ``entries``; returns (cell, exits)."""
    inputs, outputs = _band_vars(bdd, live, top, bottom)
    rails_in = rail_width(len(entries))
    k = len(inputs)
    # First pass: walk every (entry, band assignment) to find the exit
    # states this cell can actually produce.  The shared-prefix
    # enumerator walks each distinct (node, consumed-inputs) state once
    # across the whole cell instead of 2^k times per entry.
    walks: list[tuple[int, int, Mapping[int, int], int]] = []
    exit_set: set[int] = set()
    if reference.SEED_MODE:
        for code, entry in enumerate(entries):
            for band_bits in range(1 << k):
                assignment = {
                    vid: (band_bits >> (k - 1 - i)) & 1
                    for i, vid in enumerate(inputs)
                }
                seen, exit_node = walk_segment(bdd, entry, assignment, bottom)
                walks.append((code, band_bits, seen, exit_node))
                exit_set.add(exit_node)
    else:
        memo: dict = {}
        for code, entry in enumerate(entries):
            results = enumerate_band_walks(bdd, entry, inputs, bottom, memo)
            for band_bits, (seen, exit_node) in enumerate(results):
                walks.append((code, band_bits, seen, exit_node))
                exit_set.add(exit_node)
    exits = sorted(exit_set) if bottom < t else [TRUE]
    exit_code = {node: i for i, node in enumerate(exits)}
    rails_out = 0 if bottom == t else rail_width(len(exits))
    table: list[tuple[int, int]] = [(0, 0)] * (1 << (rails_in + k))
    for code, band_bits, seen, exit_node in walks:
        out_bits = 0
        for vid in outputs:
            out_bits = (out_bits << 1) | seen.get(vid, 0)
        table[(code << k) | band_bits] = (
            out_bits,
            exit_code[exit_node] if bottom < t else 0,
        )
    cell = Cell(
        index=index,
        rail_in_width=rails_in,
        input_vids=tuple(inputs),
        output_vids=tuple(outputs),
        rail_out_width=rails_out,
        table=table,
    )
    return cell, exits


PipelineFn = Callable[[Sequence[int]], CharFunction]


def synthesize_forest(
    output_indices: Sequence[int],
    pipeline: PipelineFn,
    *,
    max_cell_inputs: int = 12,
    max_cell_outputs: int = 10,
) -> list[tuple[Cascade, CharFunction, list[int]]]:
    """Synthesize one or more cascades covering ``output_indices``.

    ``pipeline(indices)`` must build (and optionally reduce) the
    BDD_for_CF for the given output subset.  When synthesis fails for a
    subset it is bisected, mirroring how the paper's DC=0 word-list
    designs end up with 6 and 12 cascades.  Returns a list of
    ``(cascade, cf, indices)`` triples.
    """
    indices = list(output_indices)
    cf = pipeline(indices)
    try:
        cascade = synthesize_cascade(
            cf,
            max_cell_inputs=max_cell_inputs,
            max_cell_outputs=max_cell_outputs,
        )
        return [(cascade, cf, indices)]
    except CascadeError:
        if len(indices) <= 1:
            raise
    half = (len(indices) + 1) // 2
    result = []
    for part in (indices[:half], indices[half:]):
        result.extend(
            synthesize_forest(
                part,
                pipeline,
                max_cell_inputs=max_cell_inputs,
                max_cell_outputs=max_cell_outputs,
            )
        )
    return result
