"""Constructing BDDs from tabular data.

Three construction styles are provided:

* :func:`from_cube` / :func:`from_cubes` — sum-of-products style.
* :func:`from_truth_table` — dense tables for small functions (used by
  the digit-level building blocks of the benchmark generators).
* :func:`from_sorted_minterms` — sparse construction from a sorted list
  of care minterms, in O(k·n) with full sharing via the unique table.
  This is how the word-list and RNS benchmark onsets are built without
  enumerating the (up to 2^40) input space.
* :func:`word_geq_const` — the comparator used for the "binary-coded
  digit is an unused code" don't-care sets of Sect. 4.1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence

from repro.bdd.manager import FALSE, TRUE, BDD
from repro.errors import BDDError


def from_cube(bdd: BDD, cube: Mapping[int, int]) -> int:
    """Product term: a partial assignment vid -> bit."""
    f = TRUE
    for vid in sorted(cube, key=bdd.level_of_vid, reverse=True):
        lit = bdd.var(vid) if cube[vid] else bdd.nvar(vid)
        f = bdd.apply_and(lit, f)
    return f


def from_cubes(bdd: BDD, cubes: Sequence[Mapping[int, int]]) -> int:
    """Sum of product terms (balanced OR tree for better sharing)."""
    return bdd.apply_or_many(from_cube(bdd, cube) for cube in cubes)


def from_truth_table(bdd: BDD, vids: Sequence[int], table: Sequence[int]) -> int:
    """Build a function of ``vids`` (MSB first) from a dense truth table.

    ``table[i]`` is the value (0/1) for the assignment whose MSB-first
    encoding is ``i``.  The vids must appear in strictly ascending level
    order (top to bottom), which is the natural order of freshly created
    variables.
    """
    n = len(vids)
    if len(table) != (1 << n):
        raise BDDError(f"truth table for {n} variables needs {1 << n} entries")
    _check_descending(bdd, vids)

    def build(pos: int, base: int) -> int:
        if pos == n:
            return TRUE if table[base] else FALSE
        lo = build(pos + 1, base)
        hi = build(pos + 1, base + (1 << (n - pos - 1)))
        return bdd.mk(vids[pos], lo, hi)

    try:
        return build(0, 0)
    finally:
        # ``build`` refers to itself through its closure; without the
        # del the cycle keeps ``bdd`` alive until the cyclic GC runs.
        del build


def from_sorted_minterms(bdd: BDD, vids: Sequence[int], minterms: Sequence[int]) -> int:
    """Characteristic function of a sorted set of minterm integers.

    ``vids`` are MSB first and must be in ascending level order;
    ``minterms`` is a strictly increasing sequence of integers in
    ``[0, 2**len(vids))``.  The result is 1 exactly on the listed
    assignments.
    """
    n = len(vids)
    _check_descending(bdd, vids)
    if not minterms:
        return FALSE
    if minterms[0] < 0 or minterms[-1] >= (1 << n):
        raise BDDError("minterm out of range for the given variables")

    # Explicit stack (depth would otherwise be len(vids), which the
    # word-list workloads push past the recursion limit).  All minterms
    # in [lo_idx, hi_idx) share the top ``pos`` bits (value ``prefix``);
    # each visit splits on bit ``pos``.
    out: list[int] = []
    work: list[tuple[int, int, int, int, int]] = [(0, 0, 0, len(minterms), 0)]
    while work:
        pos, prefix, lo_idx, hi_idx, state = work.pop()
        if state == 0:
            if lo_idx == hi_idx:
                out.append(FALSE)
                continue
            if pos == n:
                out.append(TRUE)
                continue
            half = 1 << (n - pos - 1)
            boundary = prefix + half
            mid = bisect_left(minterms, boundary, lo_idx, hi_idx)
            work.append((pos, prefix, lo_idx, hi_idx, 1))
            work.append((pos + 1, boundary, mid, hi_idx, 0))
            work.append((pos + 1, prefix, lo_idx, mid, 0))
        else:
            hi = out.pop()
            lo = out.pop()
            out.append(bdd.mk(vids[pos], lo, hi))
    return out[-1]


def word_geq_const(bdd: BDD, vids: Sequence[int], const: int) -> int:
    """Function that is 1 iff the MSB-first word ``vids`` is >= ``const``.

    Used to mark unused binary codes of a radix-p digit: the input
    don't-care set of Sect. 4.1 is the OR over digits of
    ``word_geq_const(digit bits, p)``.
    """
    n = len(vids)
    _check_descending(bdd, vids)
    if const <= 0:
        return TRUE
    if const >= (1 << n):
        return FALSE
    # Build bottom-up: walking bits LSB -> MSB.
    f = TRUE  # ">= 0" over the empty suffix
    for i in range(n - 1, -1, -1):
        bit = (const >> (n - 1 - i)) & 1
        if bit:
            # suffix >= c  <=>  vids[i] and (rest >= c - 2^k)
            f = bdd.mk(vids[i], FALSE, f)
        else:
            # suffix >= c  <=>  vids[i] or (rest >= c)
            f = bdd.mk(vids[i], f, TRUE)
    return f


def _check_descending(bdd: BDD, vids: Sequence[int]) -> None:
    levels = [bdd.level_of_vid(v) for v in vids]
    if any(levels[i] >= levels[i + 1] for i in range(len(levels) - 1)):
        raise BDDError(
            "variables must be given MSB-first in ascending level order; "
            f"got levels {levels}"
        )
