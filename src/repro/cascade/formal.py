"""Formal verification of LUT cascades against their BDD_for_CF.

Sampling catches most bugs; this module proves correctness.  The
cascade's cells are evaluated *symbolically*: the rail state after each
cell is a vector of BDD functions over the primary inputs, obtained by
mux-trees over the cell's table.  The cascade then realizes output
functions g_i(X); it is a correct refinement of the characteristic
function χ exactly when

    ∀X : χ(X, g_1(X), ..., g_m(X)) = 1

i.e. substituting the realized outputs into χ yields the tautology.

Cost note: symbolic cell evaluation muxes over the cell table, so the
work grows with ``2^cell_inputs`` times the size of the incoming rail
functions.  Designs in the paper's regime (12-input cells over CFs of
a few thousand nodes) verify in seconds to tens of seconds; very wide
reduced CFs (10-rail word-list cascades) can take much longer — use
the sampled verifiers of ``repro.experiments`` there and keep the
formal check for the final design.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.cascade.cell import Cascade, Cell
from repro.cf.charfun import CharFunction
from repro.errors import CascadeError


def symbolic_cell_outputs(
    bdd: BDD, cell: Cell, rail_in: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Symbolically evaluate one cell.

    ``rail_in`` is the incoming rail state as MSB-first BDD functions.
    Returns ``(output_functions, rail_out_functions)``.
    """
    if len(rail_in) != cell.rail_in_width:
        raise CascadeError(
            f"cell {cell.index}: expected {cell.rail_in_width} rail bits, "
            f"got {len(rail_in)}"
        )
    n_out = len(cell.output_vids)
    total_bits = n_out + cell.rail_out_width
    k = len(cell.input_vids)
    r = cell.rail_in_width

    # Build one mux tree per data bit.  Selector order matters a lot:
    # the band inputs are plain variables (cheap ITEs, and cofactoring
    # under them shrinks the rail functions), so they split at the top;
    # the incoming rail bits — arbitrary functions of all earlier
    # inputs — are only applied near the leaves, where the operands are
    # constants, so each rail ITE stays linear in the rail function.
    selectors = [bdd.var(v) for v in cell.input_vids] + list(rail_in)

    def build(bit: int, depth: int, band_bits: int, rail_code: int) -> int:
        if depth == k + r:
            address = (rail_code << k) | band_bits
            out_bits, rail = cell.table[address]
            data = (out_bits << cell.rail_out_width) | rail
            return TRUE if (data >> (total_bits - 1 - bit)) & 1 else FALSE
        if depth < k:
            lo = build(bit, depth + 1, band_bits << 1, rail_code)
            hi = build(bit, depth + 1, (band_bits << 1) | 1, rail_code)
        else:
            lo = build(bit, depth + 1, band_bits, rail_code << 1)
            hi = build(bit, depth + 1, band_bits, (rail_code << 1) | 1)
        if lo == hi:
            return lo
        return bdd.ite(selectors[depth], hi, lo)

    try:
        data_fns = [build(bit, 0, 0, 0) for bit in range(total_bits)]
    finally:
        del build  # the closure refers to itself: free it without the cyclic GC
    return data_fns[:n_out], data_fns[n_out:]


def symbolic_cascade_outputs(bdd: BDD, cascade: Cascade) -> dict[int, int]:
    """Output vid -> BDD function realized by the cascade."""
    rails: list[int] = []
    outputs: dict[int, int] = {}
    for cell in cascade.cells:
        out_fns, rails = symbolic_cell_outputs(bdd, cell, rails)
        for vid, fn in zip(cell.output_vids, out_fns):
            outputs[vid] = fn
    return outputs


def verify_cascade_against_cf(cascade: Cascade, cf: CharFunction) -> bool:
    """Prove that the cascade realizes a refinement of χ.

    Substitutes the realized output functions for the output variables
    of χ and checks the result is the constant 1.  Exact — no sampling.
    The cascade and CF must live on the same manager (the normal result
    of :func:`repro.cascade.synth.synthesize_cascade`).
    """
    bdd = cf.bdd
    outputs = symbolic_cascade_outputs(bdd, cascade)
    substituted = cf.root
    # Compose bottom-up (deepest output variable first) so earlier
    # substitutions cannot re-introduce an already-substituted variable.
    for vid in sorted(outputs, key=bdd.level_of_vid, reverse=True):
        substituted = bdd.compose(substituted, vid, outputs[vid])
    # Any output variable χ depends on must have been produced.
    remaining = bdd.support(substituted) & set(cf.output_vids)
    if remaining:
        names = ", ".join(bdd.name_of(v) for v in remaining)
        raise CascadeError(f"cascade does not produce outputs: {names}")
    return substituted == TRUE
