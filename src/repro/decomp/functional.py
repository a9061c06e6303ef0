"""Functional decomposition through a BDD_for_CF cut (Theorem 3.1).

With the variable order (X1, Y1, X2, Y2), cutting the BDD_for_CF at
height ``n2 + m2`` splits the network into

    H : X1 -> (Y1, rails)        rails = ceil(log2 W) wires
    G : (rails, X2) -> Y2

where ``W`` is the CF width at the cut (Fig. 3).  The column functions
at the cut are the states the rails must distinguish; each is assigned
a binary code.  :func:`walk_segment` — also the engine of the LUT
cascade synthesis — traces one entry node through a band of levels
under a concrete assignment of the band's input variables, collecting
the determined output values and the exit column.

Don't cares encountered during extraction (skipped output levels) are
assigned 0; any assignment yields a valid refinement of the original
incompletely specified function.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.cf.charfun import CharFunction
from repro.cf.width import columns_at_height
from repro.errors import DecompositionError
from repro.isf.compat import ordered_total
from repro.utils.bitops import bits_for


def walk_segment(
    bdd: BDD,
    entry: int,
    assignment: Mapping[int, int],
    bottom_level: int,
) -> tuple[dict[int, int], int]:
    """Trace ``entry`` down to ``bottom_level`` under ``assignment``.

    ``assignment`` maps the band's input vids to bits.  Returns the
    (determined) output values seen on the way as a vid -> bit dict and
    the exit node (the first node at or below ``bottom_level``, possibly
    a terminal).  Output variables whose level was skipped do not appear
    in the dict — they are don't cares on this path.
    """
    outputs: dict[int, int] = {}
    u = entry
    while u > 1 and bdd.level(u) < bottom_level:
        vid = bdd.var_of(u)
        lo, hi = bdd.lo(u), bdd.hi(u)
        if bdd.is_output_vid(vid):
            if lo == FALSE and hi != FALSE:
                outputs[vid] = 1
                u = hi
            elif hi == FALSE and lo != FALSE:
                outputs[vid] = 0
                u = lo
            else:
                # Both children live: the value is forced only on the
                # care continuations.  Committing to a child that is
                # total keeps every lower input satisfiable, and on
                # care paths exactly the correct child is total, so the
                # emitted value is a valid refinement (0 preferred when
                # both are pure don't care).
                if ordered_total(bdd, lo):
                    outputs[vid] = 0
                    u = lo
                elif ordered_total(bdd, hi):
                    outputs[vid] = 1
                    u = hi
                else:
                    raise DecompositionError(
                        "output node with no total child: CF not total"
                    )
        else:
            try:
                bit = assignment[vid]
            except KeyError:
                raise DecompositionError(
                    f"assignment missing band input {bdd.name_of(vid)!r}"
                ) from None
            u = hi if bit else lo
    if u == FALSE:
        raise DecompositionError("walked into constant 0: CF not total")
    return outputs, u


def enumerate_band_walks(
    bdd: BDD,
    entry: int,
    inputs: Sequence[int],
    bottom_level: int,
    memo: dict | None = None,
) -> list[tuple[Mapping[int, int], int]]:
    """All :func:`walk_segment` results of a band in one shared DFS.

    Equivalent to calling ``walk_segment`` for every assignment of
    ``inputs`` (vids in level order, first vid = most significant bit
    of the result index), but paths that share a prefix are walked
    once: the cell-extraction loop of the cascade synthesizer is
    ``2^k`` walks per entry, and on real CFs most of them coincide
    after the first level or two.  Pass one ``memo`` dict for a whole
    cell so different entries also share their common sub-walks.
    """
    k = len(inputs)
    input_levels = [bdd.level_of_vid(v) for v in inputs]
    if memo is None:
        memo = {}

    def walk(u: int, i: int) -> list[tuple[dict[int, int], int]]:
        key = (u, i)
        cached = memo.get(key)
        if cached is not None:
            return cached
        outputs: dict[int, int] = {}
        # Advance through the determined (output) levels above the next
        # band input, exactly as walk_segment does.
        while (
            u > 1
            and bdd.level(u) < bottom_level
            and (i == k or bdd.level(u) < input_levels[i])
        ):
            vid = bdd.var_of(u)
            lo, hi = bdd.lo(u), bdd.hi(u)
            if lo == FALSE and hi != FALSE:
                outputs[vid] = 1
                u = hi
            elif hi == FALSE and lo != FALSE:
                outputs[vid] = 0
                u = lo
            elif ordered_total(bdd, lo):
                outputs[vid] = 0
                u = lo
            elif ordered_total(bdd, hi):
                outputs[vid] = 1
                u = hi
            else:
                raise DecompositionError(
                    "output node with no total child: CF not total"
                )
        if u == FALSE:
            raise DecompositionError("walked into constant 0: CF not total")
        if i < k and u > 1 and bdd.level(u) < bottom_level:
            if bdd.level(u) == input_levels[i]:
                res0 = walk(bdd.lo(u), i + 1)
                res1 = walk(bdd.hi(u), i + 1)
            else:
                # The input level is skipped: both bit values coincide.
                res0 = res1 = walk(u, i + 1)
            if outputs:
                results = [({**outputs, **o}, x) for o, x in res0]
                results += [({**outputs, **o}, x) for o, x in res1]
            else:
                results = res0 + res1
        else:
            # Exit reached with i inputs consumed: the remaining
            # assignments are irrelevant, every suffix gets this result.
            results = [(outputs, u)] * (1 << (k - i))
        memo[key] = results
        return results

    try:
        return walk(entry, 0)
    finally:
        # ``walk`` refers to itself through its closure; without the
        # del the cycle keeps ``bdd`` and ``memo`` alive until the
        # cyclic GC runs, so peak RSS would follow the GC's timing.
        del walk


@dataclass
class Decomposition:
    """One-cut decomposition ``f(X1, X2) = g(h(X1), X2)`` of a CF.

    Attributes:
        cf: the decomposed characteristic function.
        cut_height: the paper's ``n2 + m2`` (section height of the cut).
        columns: the column functions at the cut, in rail-code order
            (code = list index).
        rails: number of connections between H and G — ``ceil(log2 W)``.
        h_outputs / g_outputs: output vids realized by each block.
        h_inputs / g_inputs: input vids feeding each block.
    """

    cf: CharFunction
    cut_height: int
    columns: list[int]
    rails: int
    h_inputs: list[int]
    h_outputs: list[int]
    g_inputs: list[int]
    g_outputs: list[int]

    def h(self, x1_bits: Sequence[int]) -> tuple[dict[int, int], int]:
        """Evaluate block H: returns (Y1 output bits, rail code)."""
        bdd = self.cf.bdd
        assignment = dict(zip(self.h_inputs, x1_bits))
        outputs, exit_node = walk_segment(
            bdd, self.cf.root, assignment, bdd.num_vars - self.cut_height
        )
        y1 = {vid: outputs.get(vid, 0) for vid in self.h_outputs}
        return y1, self.columns.index(exit_node)

    def g(self, rail_code: int, x2_bits: Sequence[int]) -> dict[int, int]:
        """Evaluate block G: returns the Y2 output bits."""
        bdd = self.cf.bdd
        entry = self.columns[rail_code]
        assignment = dict(zip(self.g_inputs, x2_bits))
        outputs, exit_node = walk_segment(bdd, entry, assignment, bdd.num_vars)
        if exit_node != TRUE:
            raise DecompositionError("G block did not reach the constant 1")
        return {vid: outputs.get(vid, 0) for vid in self.g_outputs}

    def evaluate(self, input_bits: Sequence[int]) -> dict[int, int]:
        """Evaluate the composed network on a full input assignment."""
        n1 = len(self.h_inputs)
        y1, code = self.h(input_bits[:n1])
        y2 = self.g(code, input_bits[n1:])
        return {**y1, **y2}


def decompose_at_height(cf: CharFunction, cut_height: int) -> Decomposition:
    """Cut the CF at ``cut_height`` and package the two blocks (Fig. 3).

    The input order of the returned blocks follows the current variable
    order: X1/Y1 are the variables above the section, X2/Y2 below.
    """
    bdd = cf.bdd
    t = bdd.num_vars
    if not (1 <= cut_height <= t - 1):
        raise DecompositionError(f"cut height must be in 1..{t - 1}")
    boundary_level = t - cut_height
    h_inputs, h_outputs, g_inputs, g_outputs = [], [], [], []
    for level in range(t):
        vid = bdd.vid_at_level(level)
        is_output = bdd.is_output_vid(vid)
        if level < boundary_level:
            (h_outputs if is_output else h_inputs).append(vid)
        else:
            (g_outputs if is_output else g_inputs).append(vid)
    columns = columns_at_height(bdd, cf.root, cut_height)
    width = len(columns)
    rails = bits_for(width) if width > 1 else 0
    return Decomposition(
        cf=cf,
        cut_height=cut_height,
        columns=columns,
        rails=rails,
        h_inputs=h_inputs,
        h_outputs=h_outputs,
        g_inputs=g_inputs,
        g_outputs=g_outputs,
    )
