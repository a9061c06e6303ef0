"""From-scratch ROBDD engine (the substrate of the reproduction).

Public surface:

* :class:`~repro.bdd.manager.BDD` — the manager (nodes are ints, the
  constant nodes are ``BDD.FALSE``/``BDD.TRUE``).
* :mod:`repro.bdd.builder` — construction from cubes, truth tables, and
  sorted minterm lists.
* :mod:`repro.bdd.vector` — symbolic bit-vector arithmetic.
* :mod:`repro.bdd.reorder` — in-place adjacent swaps and sifting.
* :mod:`repro.bdd.traversal` — Definition 3.5's crossing sections,
  counts and node ranks from one walk.
* :mod:`repro.bdd.dot` — Graphviz export in the paper's drawing style.
* :mod:`repro.bdd.governor` — cooperative node/step/deadline budgets
  (:class:`~repro.bdd.governor.Budget`) enforced inside the apply
  kernel and the sifting loop.
* :mod:`repro.bdd.check` — structural invariant verification
  (:func:`~repro.bdd.check.check_manager` /
  :func:`~repro.bdd.check.check_payload`), armed by
  ``REPRO_SELFCHECK=1`` at sweep row boundaries and on payload loads.
"""

from repro.bdd.check import (
    InvariantViolation,
    check_charfunction,
    check_manager,
    check_payload,
    selfcheck_enabled,
    verify_charfunction,
    verify_manager,
    verify_payload,
)

from repro.bdd.governor import Budget
from repro.bdd.manager import FALSE, TRUE, BDD
from repro.bdd.builder import (
    from_cube,
    from_cubes,
    from_sorted_minterms,
    from_truth_table,
    word_geq_const,
)
from repro.bdd.reorder import SiftSession, set_order, sift
from repro.bdd.traversal import crossing_counts, node_ranks
from repro.bdd.dot import to_dot
from repro.bdd.force import force_input_order, force_order
from repro.bdd.gcf import constrain, restrict_gc
from repro.bdd.io import (
    charfunction_payload,
    dump_charfunction,
    dump_forest,
    forest_payload,
    load_charfunction,
    load_charfunction_payload,
    load_forest,
    load_forest_payload,
)
from repro.bdd.transfer import transfer, transfer_by_name

__all__ = [
    "BDD",
    "Budget",
    "FALSE",
    "TRUE",
    "InvariantViolation",
    "SiftSession",
    "check_charfunction",
    "check_manager",
    "check_payload",
    "constrain",
    "crossing_counts",
    "force_input_order",
    "force_order",
    "node_ranks",
    "charfunction_payload",
    "dump_charfunction",
    "dump_forest",
    "forest_payload",
    "from_cube",
    "from_cubes",
    "from_sorted_minterms",
    "from_truth_table",
    "load_charfunction",
    "load_charfunction_payload",
    "load_forest",
    "load_forest_payload",
    "selfcheck_enabled",
    "set_order",
    "sift",
    "restrict_gc",
    "to_dot",
    "transfer",
    "transfer_by_name",
    "verify_charfunction",
    "verify_manager",
    "verify_payload",
    "word_geq_const",
]
