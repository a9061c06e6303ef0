"""Table 6: realization of English word lists (Fig. 8 architecture).

Two design styles per word list:

* ``DC=0`` — the address function with 0 assigned to every unregistered
  input, realized by LUT cascades alone (12-in/10-out cells); the rail
  demand at every cut exceeds 10 for large lists, so the output set
  splits into many cascades.
* ``Fig. 8`` — outputs 0 replaced by don't care, support variables
  removed (#RV), width reduced with Algorithm 3.3, then one small
  cascade plus an auxiliary memory of ``n * 2^m`` bits and a
  comparator.

Word lists are synthetic (see :mod:`repro.benchfns.wordlist`) and
default to the scaled sizes of ``repro._config.word_list_sizes``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro._config import word_list_sizes
from repro.benchfns.wordlist import (
    WORD_BITS,
    WordList,
    build_wordlist_isf,
    generate_words,
)
from repro.cascade import (
    AddressGenerator,
    CascadeCost,
    cost_of,
    realize_forest,
    synthesize_forest,
)
from repro.errors import ReproError
from repro.experiments.runner import partition_pipeline, stable_seed
from repro.utils.tables import TextTable

MAX_CELL_INPUTS = 12
MAX_CELL_OUTPUTS = 10


@dataclass
class Table6Design:
    """One design row: the paper's #Cel/#LUT/#Cas/#RV/MemBits columns."""

    method: str
    num_words: int
    cost: CascadeCost


def design_dc0(word_list: WordList, *, sift: bool = True):
    """Pure-cascade realization of the completely specified function."""
    isf = build_wordlist_isf(word_list, dc_outside=False)
    m = word_list.index_bits
    pipeline, _removed = partition_pipeline(isf, reduce=False, sift=sift)
    forest = synthesize_forest(
        list(range(m)),
        pipeline,
        max_cell_inputs=MAX_CELL_INPUTS,
        max_cell_outputs=MAX_CELL_OUTPUTS,
    )
    realization = realize_forest(forest, WORD_BITS, m)
    cascades = [c for c, _, _ in forest]
    return cost_of(cascades), realization


def design_fig8(word_list: WordList, *, sift: bool = True):
    """Fig. 8: reduced cascade + auxiliary memory + comparator."""
    isf = build_wordlist_isf(word_list, dc_outside=True)
    m = word_list.index_bits
    pipeline, _removed = partition_pipeline(isf, reduce=True, sift=sift)
    forest = synthesize_forest(
        list(range(m)),
        pipeline,
        max_cell_inputs=MAX_CELL_INPUTS,
        max_cell_outputs=MAX_CELL_OUTPUTS,
    )
    realization = realize_forest(forest, WORD_BITS, m)
    generator = AddressGenerator.build(
        realization,
        word_list.word_to_index,
        n_bits=WORD_BITS,
        m_bits=m,
    )
    # Globally redundant variables: input bits that no cascade reads
    # (vids are per-manager, so compare by variable name).
    names_used: set[str] = set()
    for c, cf, _ in forest:
        names_used |= {cf.bdd.name_of(v) for v in c.input_vids}
    rv = WORD_BITS - len(names_used)
    cascades = [c for c, _, _ in forest]
    cost = cost_of(
        cascades, redundant_vars=rv, aux_memory_bits=generator.aux_memory_bits
    )
    return cost, generator


def verify_generator(
    word_list: WordList,
    generator: AddressGenerator,
    *,
    samples: int = 200,
    seed: int | None = None,
) -> None:
    """Every registered word maps to its index; random non-words to 0."""
    for word, index in word_list.word_to_index.items():
        if generator.lookup(word) != index:
            raise ReproError(f"word {word} not mapped to its index {index}")
    if seed is None:
        seed = stable_seed("table6", len(word_list.word_to_index), "Fig.8")
    rng = random.Random(seed)
    for _ in range(samples):
        x = rng.getrandbits(WORD_BITS)
        if x in word_list.word_to_index:
            continue
        if generator.lookup(x) != 0:
            raise ReproError(f"non-word {x} accepted by the address generator")


def verify_dc0(
    word_list: WordList,
    realization,
    *,
    samples: int = 200,
    seed: int | None = None,
) -> None:
    """The DC=0 realization computes the index function exactly."""
    for word, index in word_list.word_to_index.items():
        if realization.evaluate(word) != index:
            raise ReproError(f"DC=0 design wrong on word index {index}")
    if seed is None:
        seed = stable_seed("table6", len(word_list.word_to_index), "DC=0")
    rng = random.Random(seed)
    for _ in range(samples):
        x = rng.getrandbits(WORD_BITS)
        if x in word_list.word_to_index:
            continue
        if realization.evaluate(x) != 0:
            raise ReproError(f"DC=0 design nonzero on non-word {x}")


def table6_row(count: int, *, sift: bool = True, verify: bool = False) -> list[Table6Design]:
    """Both designs for one word-list size (one row of :func:`run_table6`)."""
    word_list = WordList(generate_words(count))
    cost0, realization0 = design_dc0(word_list, sift=sift)
    if verify:
        verify_dc0(word_list, realization0)
    cost8, generator = design_fig8(word_list, sift=sift)
    if verify:
        verify_generator(word_list, generator)
    return [Table6Design("DC=0", count, cost0), Table6Design("Fig.8", count, cost8)]


def run_table6(
    sizes: list[int] | None = None,
    *,
    verify: bool = False,
    sift: bool = True,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 2,
    node_limit: int | None = None,
    journal=None,
    resume: bool = False,
) -> list[Table6Design]:
    """Both designs for every configured word list size.

    Each word-list size is one row task (:func:`table6_row`) on
    :func:`repro.parallel.run_tasks`, at any ``jobs`` value: ``jobs``
    fans the rows out over that many worker processes, a failing row is
    quarantined rather than raised, ``timeout``/``retries``/``node_limit``
    bound each row and ``journal``/``resume`` make the sweep crash-safe
    (see :func:`repro.experiments.table4.run_table4`).
    """
    from repro.parallel import run_tasks, table6_task

    sizes = list(sizes) if sizes is not None else list(word_list_sizes())
    tasks = [
        table6_task(count, sift=sift, verify=verify, node_limit=node_limit)
        for count in sizes
    ]
    report = run_tasks(
        tasks, jobs=jobs, timeout=timeout, retries=retries,
        journal=journal, resume=resume,
    )
    return [row for rows in report.rows for row in rows]


def format_table6(rows: list[Table6Design]) -> str:
    """Render in the paper's Table 6 layout."""
    table = TextTable(
        ["Design", "# of words", "#Cel", "#LUT", "#Cas", "#RV",
         "MemBits LUT", "MemBits AUX"]
    )
    for method in ("DC=0", "Fig.8"):
        for r in rows:
            if r.method != method:
                continue
            table.add_row(
                [
                    r.method, r.num_words,
                    r.cost.cells, r.cost.lut_outputs, r.cost.cascades,
                    r.cost.redundant_vars,
                    r.cost.lut_memory_bits, r.cost.aux_memory_bits,
                ]
            )
        table.add_separator()
    return table.render()
