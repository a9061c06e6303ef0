"""LUT cascade realization of the arithmetic functions (Sect. 5.2, Fig. 9).

The body of Sect. 5.2 ("Table 5") is not legible in the available text;
this experiment reconstructs it from context: the arithmetic functions
of Table 4 are realized as LUT cascades with cells of at most 12 inputs
and 10 outputs, once from the DC=0 extension and once from the
width-reduced ISF (support reduction + Algorithm 3.3), reporting the
Table 6 cost columns.  The conclusion's "reduce the numbers of cells in
cascades, on the average, by 22.4%" is the reproduction target.

Output bi-partitioning follows Sect. 5.1; when a partition still
exceeds the rail limit it is bisected further (synthesize_forest).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.benchfns.base import Benchmark
from repro.benchfns.registry import arithmetic_names, get_benchmark
from repro.cascade import (
    CascadeCost,
    cost_of,
    realize_forest,
    synthesize_forest,
)
from repro.errors import ReproError
from repro.experiments.runner import partition_pipeline, stable_seed
from repro.isf.function import MultiOutputISF
from repro.utils.tables import TextTable

MAX_CELL_INPUTS = 12
MAX_CELL_OUTPUTS = 10


@dataclass
class Table5Row:
    """Cascade costs of one arithmetic function under both design styles."""

    name: str
    n_inputs: int
    n_outputs: int
    dc0: CascadeCost
    reduced: CascadeCost


def design(
    benchmark_isf: MultiOutputISF,
    *,
    reduce: bool,
    sift: bool = True,
    max_cell_inputs: int = MAX_CELL_INPUTS,
    max_cell_outputs: int = MAX_CELL_OUTPUTS,
):
    """Synthesize the cascade forest for one design style.

    Returns ``(cost, realization, forest)``.
    """
    pipeline, removed = partition_pipeline(benchmark_isf, reduce=reduce, sift=sift)
    forest = []
    half = (benchmark_isf.n_outputs + 1) // 2
    for indices in (list(range(half)), list(range(half, benchmark_isf.n_outputs))):
        forest.extend(
            synthesize_forest(
                indices,
                pipeline,
                max_cell_inputs=max_cell_inputs,
                max_cell_outputs=max_cell_outputs,
            )
        )
    realization = realize_forest(
        forest, benchmark_isf.n_inputs, benchmark_isf.n_outputs
    )
    return cost_of(forest_cascades(forest), redundant_vars=len(removed)), realization, forest


def forest_cascades(forest):
    """Project a synthesize_forest result onto its cascades."""
    return [cascade for cascade, _cf, _indices in forest]


def verify_realization(
    benchmark: Benchmark,
    realization,
    *,
    samples: int = 60,
    seed: int | None = None,
) -> None:
    """Spot-check a realization against the benchmark reference.

    The sampling seed defaults to the stable benchmark key, so the
    check draws the same minterms in every process (``--jobs``
    determinism).
    """
    if seed is None:
        seed = stable_seed("table5", benchmark.name, "realization")
    rng = random.Random(seed)
    care = []
    for m in benchmark.iter_care_minterms():
        care.append(m)
        if len(care) >= 6 * samples:
            break
    for m in rng.sample(care, min(samples, len(care))):
        ref = benchmark.reference(m)
        got = realization.evaluate(m)
        if got != ref:
            raise ReproError(
                f"{benchmark.name}: cascade computes {got}, reference {ref} on {m}"
            )


def run_row(benchmark: Benchmark, *, verify: bool = False, sift: bool = True) -> Table5Row:
    """Both design styles for one arithmetic function."""
    isf = benchmark.build()
    dc0_cost, dc0_real, _ = design(isf.extension(0), reduce=False, sift=sift)
    red_cost, red_real, _ = design(isf, reduce=True, sift=sift)
    if verify:
        verify_realization(
            benchmark, dc0_real, seed=stable_seed("table5", benchmark.name, "DC=0")
        )
        verify_realization(
            benchmark, red_real, seed=stable_seed("table5", benchmark.name, "Alg3.3")
        )
    return Table5Row(
        name=benchmark.name,
        n_inputs=isf.n_inputs,
        n_outputs=isf.n_outputs,
        dc0=dc0_cost,
        reduced=red_cost,
    )


def run_table5(
    names: list[str] | None = None,
    *,
    verify: bool = False,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 2,
    node_limit: int | None = None,
    journal=None,
    resume: bool = False,
) -> list[Table5Row]:
    """Run the reconstructed Table 5 over the arithmetic functions.

    ``jobs`` fans the rows out over that many worker processes
    (:func:`repro.parallel.run_tasks`); results are bit-identical at
    any jobs value.  ``timeout``/``retries``/``node_limit`` bound each
    row, ``journal``/``resume`` make the sweep crash-safe (see
    :func:`repro.experiments.table4.run_table4`).
    """
    from repro.parallel import run_tasks, table5_task

    names = list(names) if names is not None else arithmetic_names()
    # Fail fast on unknown names (caller misconfiguration, not a row fault).
    for name in names:
        get_benchmark(name)
    tasks = [table5_task(name, verify=verify, node_limit=node_limit) for name in names]
    return run_tasks(
        tasks, jobs=jobs, timeout=timeout, retries=retries,
        journal=journal, resume=resume,
    ).rows


def format_table5(rows: list[Table5Row]) -> str:
    """Render the reconstructed Table 5."""
    table = TextTable(
        [
            "Function", "In", "Out",
            "#Cel DC=0", "#Cel Alg3.3",
            "#LUT DC=0", "#LUT Alg3.3",
            "#Cas DC=0", "#Cas Alg3.3",
            "#RV",
            "MemBits DC=0", "MemBits Alg3.3",
        ]
    )
    cel0 = cel1 = 0
    for r in rows:
        table.add_row(
            [
                r.name, r.n_inputs, r.n_outputs,
                r.dc0.cells, r.reduced.cells,
                r.dc0.lut_outputs, r.reduced.lut_outputs,
                r.dc0.cascades, r.reduced.cascades,
                r.reduced.redundant_vars,
                r.dc0.lut_memory_bits, r.reduced.lut_memory_bits,
            ]
        )
        cel0 += r.dc0.cells
        cel1 += r.reduced.cells
    table.add_separator()
    saving = 100.0 * (1 - cel1 / cel0) if cel0 else 0.0
    table.add_row(
        ["Total", "", "", cel0, cel1, "", "", "", "", "", "", ""]
    )
    return table.render() + f"\nAverage cell reduction: {saving:.1f}% (paper: 22.4%)"
