"""Multi-terminal BDDs (MTBDDs) for multiple-output functions.

The paper's introduction motivates BDD_for_CFs against MTBDDs:
"BDD_for_CFs usually require fewer nodes than corresponding MTBDDs, and
the widths of the BDD_for_CFs tend to be smaller".  This module
implements a small MTBDD layer over completely specified multi-output
functions so that the claim can be measured (see
``benchmarks/bench_ablation_mtbdd.py``).

An MTBDD node branches on an input variable; terminals carry the output
*vector* encoded as an integer.  The MTBDD width at a section follows
the same crossing-target convention as Definition 3.5 (all terminal
targets count — there is no constant-0 to exclude).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ReproError
from repro.isf.function import MultiOutputISF


@dataclass
class MTBDD:
    """A reduced ordered MTBDD over ``n`` input variables.

    Nodes are integers: values < 0 encode terminals (terminal id
    ``-(v + 1)`` indexes ``terminal_values``); values >= 0 index the
    ``var``/``lo``/``hi`` arrays.
    """

    n_inputs: int
    var: list[int]      # input bit position tested by each node
    level: list[int]    # order level of each node (0 = top)
    lo: list[int]
    hi: list[int]
    root: int
    terminal_values: list[int]

    def is_terminal(self, u: int) -> bool:
        return u < 0

    def terminal_value(self, u: int) -> int:
        return self.terminal_values[-(u + 1)]

    def evaluate(self, minterm: int) -> int:
        """Output vector (as an integer) for an input minterm."""
        u = self.root
        n = self.n_inputs
        while u >= 0:
            bit = (minterm >> (n - 1 - self.var[u])) & 1
            u = self.hi[u] if bit else self.lo[u]
        return self.terminal_value(u)

    def num_nodes(self) -> int:
        """Internal (non-terminal) node count."""
        return len(self.var)

    def num_terminals(self) -> int:
        return len(self.terminal_values)

    def width_profile(self) -> list[int]:
        """Crossing-target widths per height (terminals included).

        Unlike the BDD_for_CF convention (width 1 at height 0 by
        definition — the constant 1 is the only counted terminal), an
        MTBDD's distinct terminals *are* the information crossing the
        bottom section, so entry 0 counts them.
        """
        n = self.n_inputs
        sections: list[set[int]] = [set() for _ in range(n + 1)]

        def record(target: int, from_level: int) -> None:
            to_level = self.level[target] if target >= 0 else n
            for section in range(from_level + 1, to_level + 1):
                sections[section].add(target)

        record(self.root, -1)
        seen = set()
        stack = [self.root] if self.root >= 0 else []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            for child in (self.lo[u], self.hi[u]):
                record(child, self.level[u])
                if child >= 0 and child not in seen:
                    stack.append(child)
        # Heights: section s sits between variable levels s-1 and s;
        # convert to the paper's height coordinate (root height = n).
        return [len(sections[n - h]) for h in range(n + 1)]

    def max_width(self) -> int:
        return max(self.width_profile())


def mtbdd_from_function(
    n_inputs: int,
    func: Callable[[int], int],
    *,
    order: Sequence[int] | None = None,
) -> MTBDD:
    """Build a reduced MTBDD from an integer function of minterms.

    ``order`` optionally permutes the variable order (``order[0]`` is
    the top variable, given as an input bit position).
    """
    if n_inputs > 24:
        raise ReproError("mtbdd_from_function enumerates 2^n inputs; n > 24 refused")
    order = list(order) if order is not None else list(range(n_inputs))
    if sorted(order) != list(range(n_inputs)):
        raise ReproError("order must be a permutation of input positions")

    terminal_ids: dict[int, int] = {}
    terminal_values: list[int] = []
    unique: dict[tuple[int, int, int], int] = {}
    var: list[int] = []
    lo: list[int] = []
    hi: list[int] = []

    def terminal(value: int) -> int:
        tid = terminal_ids.get(value)
        if tid is None:
            tid = len(terminal_values)
            terminal_ids[value] = tid
            terminal_values.append(value)
        return -(tid + 1)

    def mk(level: int, l: int, h: int) -> int:
        if l == h:
            return l
        key = (level, l, h)
        u = unique.get(key)
        if u is None:
            u = len(var)
            var.append(level)
            lo.append(l)
            hi.append(h)
            unique[key] = u
        return u

    def build(level: int, partial: int) -> int:
        if level == n_inputs:
            return terminal(func(partial))
        bit_pos = order[level]
        l = build(level + 1, partial)
        h = build(level + 1, partial | (1 << (n_inputs - 1 - bit_pos)))
        return mk(level, l, h)

    try:
        root = build(0, 0)
    finally:
        del build  # the closure refers to itself: free it without the cyclic GC
    # Nodes were built with order-levels in 'var'; keep those as levels
    # and map to the tested bit position for evaluate().
    levels = var
    var = [order[v] for v in levels]
    return MTBDD(n_inputs, var, levels, lo, hi, root, terminal_values)


def mtbdd_from_isf(isf: MultiOutputISF, *, dc_value: int = 0) -> MTBDD:
    """MTBDD of the ``dc_value`` extension of a multi-output ISF.

    The variable order follows the ISF manager's current input order.
    """
    ext = isf.extension(dc_value)
    n = isf.n_inputs
    bdd = isf.bdd
    onsets = [out.f1 for out in ext.outputs]

    def func(minterm: int) -> int:
        assignment = {
            v: (minterm >> (n - 1 - i)) & 1 for i, v in enumerate(isf.input_vids)
        }
        value = 0
        for f1 in onsets:
            value = (value << 1) | bdd.evaluate(f1, assignment)
        return value

    positions = sorted(
        range(n), key=lambda i: bdd.level_of_vid(isf.input_vids[i])
    )
    return mtbdd_from_function(n, func, order=positions)
