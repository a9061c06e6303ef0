"""Ablation: the three multi-output representations of the introduction.

The paper's introduction compares ways to represent a multiple-output
function for decomposition: a shared BDD forest (SBDD, one root per
output), an MTBDD (output vectors as terminals), and the BDD_for_CF,
claiming "BDD_for_CFs usually require fewer nodes than corresponding
MTBDDs, and the widths of the BDD_for_CFs tend to be smaller".  This
benchmark measures all three on the DC=0 extension of small benchmark
functions (MTBDD construction enumerates the input space, so instances
are capped at 16 inputs).

The SBDD width counts distinct crossing targets over all output roots
(multi-rooted Definition 3.5); note an SBDD cut does not identify
*joint* column states, which is exactly why [15] introduced the CF for
multi-output decomposition.
"""

from __future__ import annotations

import pytest

from repro.benchfns.registry import get_benchmark
from repro.cf import CharFunction, max_width
from repro.decomp import mtbdd_from_isf
from repro.utils.tables import TextTable

from conftest import run_once, write_result

CASES = [
    "3-5 RNS",
    "3-5-7 RNS",
    "5-7-11-13 RNS",
    "3-digit 3-nary to binary",
    "4-digit 5-nary to binary",
    "1-digit decimal adder",
    "2-digit decimal multiplier",
]

_collected: dict[str, tuple] = {}


@pytest.mark.parametrize("name", CASES)
def test_cf_vs_mtbdd(benchmark, name):
    def run():
        from repro.bdd.traversal import crossing_counts

        b = get_benchmark(name)
        isf = b.build()
        ext = isf.extension(0)
        # SBDD: one root per output onset over the shared manager.
        roots = [out.f1 for out in ext.outputs]
        src = isf.bdd
        sbdd_nodes = src.count_nodes(*roots)
        sbdd_width = max(crossing_counts(src, roots))

        mtbdd = mtbdd_from_isf(isf, dc_value=0)
        cf = CharFunction.from_isf(ext)
        cf.sift(cost="auto")
        return (
            sbdd_nodes,
            sbdd_width,
            mtbdd.num_nodes(),
            mtbdd.num_terminals(),
            mtbdd.max_width(),
            cf.num_nodes(),
            max_width(cf.bdd, cf.root),
        )

    result = run_once(benchmark, run)
    _collected[name] = result
    if len(_collected) == len(CASES):
        table = TextTable(
            [
                "Function",
                "SBDD nodes", "SBDD width",
                "MTBDD nodes", "MTBDD terms", "MTBDD width",
                "CF nodes", "CF width",
            ]
        )
        wins = 0
        for case in CASES:
            sn, sw, mn, mt, mw, cn, cw = _collected[case]
            table.add_row([case, sn, sw, mn, mt, mw, cn, cw])
            if cw <= mw:
                wins += 1
        text = table.render() + (
            f"\nBDD_for_CF width <= MTBDD width on {wins}/{len(CASES)} functions"
            "\n(MTBDD terminals carry the output vectors and are extra state"
            " a decomposition must encode; CF nodes include the output"
            " variables; an SBDD cut cannot encode joint output states,"
            " so the three node/width columns measure different things —"
            " the CF is the one a multi-output decomposition can use"
            " directly, Theorem 3.1.)"
        )
        path = write_result("ablation_mtbdd", text)
        print(f"\nRepresentation ablation written to {path}")
