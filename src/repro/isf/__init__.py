"""Incompletely specified multiple-output functions (Definitions 2.1-2.3)."""

from repro.isf.ternary import DONT_CARE, MultiOutputSpec, table1_spec
from repro.isf.function import ISF, MultiOutputISF
from repro.isf.compat import compatible_cofactors, compatible_columns, ordered_total
from repro.isf.pla import dump_pla, dumps_pla, load_pla, loads_pla

__all__ = [
    "DONT_CARE",
    "ISF",
    "MultiOutputISF",
    "MultiOutputSpec",
    "compatible_cofactors",
    "compatible_columns",
    "dump_pla",
    "dumps_pla",
    "load_pla",
    "loads_pla",
    "ordered_total",
    "table1_spec",
]
