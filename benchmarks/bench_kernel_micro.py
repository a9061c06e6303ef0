"""Synthetic kernel microbenchmarks: apply / ite / cofactor throughput.

Unlike the Table 4/5 benchmarks — which time whole experiment
pipelines and therefore mix kernel work with sifting, Algorithm 3.3,
and cascade synthesis — these rows hammer *only* the evaluator of
:mod:`repro.bdd.kernel` on deterministic pseudo-random operand DAGs.
Each row lands in ``BENCH_PR6.json`` as ``kernel_micro:<op>`` with the
usual :func:`repro.bdd.stats.record` payload, whose
``kernel_steps_per_sec`` field is what the perf-smoke CI job and
cross-PR comparisons read.  A kernel step is one visit frame of the
evaluator, so steps/sec measures node-pair work.

The operands are dense random 13-variable truth tables, so their BDDs
are wide near the bottom and every operation walks many node pairs
through the packed-key computed tables.  No paper pipeline builds
such functions; these rows isolate the kernel, not a workload.

Environment:

* ``REPRO_REQUIRE_THROUGHPUT=X`` — fail the gate test unless the
  aggregate kernel throughput over all micro rows is at least ``X``
  steps/sec (mirrors ``REPRO_REQUIRE_SPEEDUP``; opt-in because shared
  CI hosts make absolute throughput floors flaky unless conservative).
"""

from __future__ import annotations

import os
import random

from repro.bdd import BDD, from_truth_table, stats

from conftest import run_once

N_VARS = 13
TABLE_BITS = 1 << N_VARS

#: Micro rows (record key suffix -> number of op invocations).
MICRO_RECORDS = ("kernel_micro:apply", "kernel_micro:ite", "kernel_micro:cofactor")


def _build_pool(seed: int, n_funcs: int = 6) -> tuple[BDD, list[int], list[int]]:
    """A manager with ``n_funcs`` pseudo-random 13-var functions.

    Truth tables are dense random bit vectors, so the BDDs are wide
    near the bottom.
    """
    rng = random.Random(seed)
    bdd = BDD()
    vids = bdd.add_vars([f"x{i}" for i in range(N_VARS)])
    pool = [
        from_truth_table(
            bdd, vids, [rng.randint(0, 1) for _ in range(TABLE_BITS)]
        )
        for _ in range(n_funcs)
    ]
    return bdd, vids, pool


def _run_apply() -> int:
    bdd, _, pool = _build_pool(seed=1)
    acc = 0
    for i, f in enumerate(pool):
        for g in pool[i + 1 :]:
            acc ^= bdd.apply_and(f, g) ^ bdd.apply_or(f, g) ^ bdd.apply_xor(f, g)
    return acc


def _run_ite() -> int:
    bdd, _, pool = _build_pool(seed=2)
    acc = 0
    n = len(pool)
    for i in range(n):
        acc ^= bdd.ite(pool[i], pool[(i + 1) % n], pool[(i + 2) % n])
        acc ^= bdd.ite(pool[i], pool[(i + 3) % n], pool[(i + 4) % n])
    return acc


def _run_cofactor() -> int:
    bdd, vids, pool = _build_pool(seed=3)
    acc = 0
    n = len(pool)
    for i, f in enumerate(pool):
        g = pool[(i + 1) % n]
        for v in vids:
            acc ^= bdd.cofactor(f, v, 0) ^ bdd.cofactor(f, v, 1) ^ bdd.compose(f, v, g)
    return acc


def test_micro_apply(benchmark):
    run_once(benchmark, _run_apply, record_name="kernel_micro:apply",
             workload="binary apply grid")


def test_micro_ite(benchmark):
    run_once(benchmark, _run_ite, record_name="kernel_micro:ite",
             workload="ite grid")


def test_micro_cofactor(benchmark):
    run_once(benchmark, _run_cofactor, record_name="kernel_micro:cofactor",
             workload="cofactor and compose at every variable")


def test_throughput_gate():
    """Aggregate steps/sec over the micro rows, gated on opt-in.

    Runs after the micros (pytest executes this file in order); the
    aggregate weights each row by its wall time — i.e. total steps over
    total wall — so a slow row cannot hide behind a fast one.
    """
    done = [name for name in MICRO_RECORDS if name in stats.RECORDS]
    assert done == list(MICRO_RECORDS), f"micro rows missing: {done}"
    steps = sum(stats.RECORDS[name]["kernel_steps"] for name in done)
    wall = sum(stats.RECORDS[name]["wall_s"] for name in done)
    throughput = steps / wall if wall > 0 else 0.0
    stats.RECORDS["kernel_micro_aggregate"] = {
        "rows": list(done),
        "kernel_steps": steps,
        "wall_s": wall,
        "kernel_steps_per_sec": throughput,
    }
    print(
        f"\nkernel micro aggregate: {steps} steps in {wall:.2f}s "
        f"({throughput:,.0f} steps/sec)"
    )
    floor = os.environ.get("REPRO_REQUIRE_THROUGHPUT", "").strip()
    if floor:
        assert throughput >= float(floor), (
            f"kernel throughput {throughput:,.0f} steps/sec below the "
            f"required floor of {float(floor):,.0f}"
        )
