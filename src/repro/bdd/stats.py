"""Engine instrumentation: counters, snapshots, and BENCH_*.json output.

Every live :class:`~repro.bdd.manager.BDD` registers itself here (by
weak reference).  :func:`snapshot` folds the counters of all managers —
live and already-collected — into one engine-wide view: operation
calls, kernel steps, peak node count, and per-tier cache hit rates.

The parallel experiment runner (:mod:`repro.parallel`) executes row
pipelines in worker processes; each worker measures its own counter
delta (:func:`counter_delta`) and ships it back with the row result.
The parent folds those deltas in with :func:`merge_worker_totals`, so
:func:`snapshot` stays engine-wide even when most of the work happened
in other processes.

Benchmarks wrap timed regions in :func:`record`, which captures wall
time plus the counter deltas across the region and stores the result
in :data:`RECORDS`; :func:`write_bench_json` then emits the
machine-readable ``BENCH_*.json`` consumed by the perf-tracking
tooling (see the README note on ``BENCH_*.json``).
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import tempfile
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

#: BENCH_*.json schema version (bumped when the payload shape changes).
#: v3 added the sweep-outcome counters (:data:`SWEEP_KEYS`) to the
#: parallel executor's ``stats_totals`` and per-sweep ``failures`` /
#: ``row_status`` records to the BENCH_PR3-style payload.  v4 adds the
#: journal/resume fields (``rows_resumed`` in :data:`SWEEP_KEYS`,
#: per-sweep ``journal_path``) and the :data:`SELFCHECK_KEYS` counters
#: of the ``REPRO_SELFCHECK`` invariant-verification layer.  v5 adds
#: the truth-table fast-path counters to the additive engine counters
#: and per-record deltas, and a host block (``python_version`` /
#: ``platform`` / ``cpu_count``) to the payload ``meta``.  v6 adds
#: the query service's per-shard counter blocks (:mod:`repro.service`):
#: a ``shards`` map of per-family additive counters (accumulated with
#: :func:`merge_additive`) plus query / batching / warm-hit tallies,
#: carried in service ``stats`` responses and service-emitted BENCH
#: payloads.  v7 adds the multi-process
#: service blocks: per-worker-process counter summaries (``workers``
#: map: pid / queries / restarts per shard family, see
#: :mod:`repro.service.workers`) and the cross-request result-cache
#: counters (``result_cache_hits`` / ``result_cache_misses`` /
#: ``result_cache_invalidations`` plus the invalidation ``epoch``)
#: carried in service ``stats`` responses and BENCH_PR8 payloads.  v8
#: adds the service resilience blocks (PR 9): ``shed_total`` and
#: ``deadline_exceeded_total`` tallies, per-family circuit-breaker
#: state (``breakers`` map: state / failures / opens / retry_after,
#: see :class:`repro.service.workers.CircuitBreaker`) inside the
#: ``workers`` block, and the memory ``watchdog`` sampling block
#: (RSS / alive-node readings plus the staged-degradation counters,
#: see :mod:`repro.service.watchdog`).  v9 adds the distributed sweep
#: fabric (PR 10): sweeps run under ``repro sweep --fabric`` carry a
#: per-sweep ``fabric`` record with the lease-ledger tallies
#: (``leases_granted`` / ``leases_expired`` / ``leases_fenced``,
#: ``results_stale`` / ``results_duplicate``), the coordinator's
#: ``lease_ttl``, and a per-worker liveness map (heartbeat ``beats``
#: counter, pid, host, last wall-clock beat) — see
#: :mod:`repro.parallel.fabric` and :mod:`repro.parallel.lease`.  v10
#: removes the v5 truth-table counters (``tt_*``) with the fast path.
#: v11 removes the service stats' ``mode`` field and the watchdog's
#: ``freed_nodes`` counter with the daemon's in-process engine thread:
#: every query runs on a shard worker process.
SCHEMA = "repro-bench-v11"
SCHEMA_VERSION = 11

#: Counters that add across managers and processes.  ``peak_nodes``
#: aggregates with ``max`` instead and is handled separately.
ADDITIVE_KEYS = (
    "op_calls",
    "kernel_steps",
    "cache_hits",
    "cache_misses",
    "cache_inserts",
    "cache_evictions",
    "cache_invalidations",
)

#: Sweep-outcome counters the parallel executor folds into its
#: ``stats_totals`` (schema v3).  Not engine counters — they describe
#: row outcomes, so they are deliberately *not* in :data:`ADDITIVE_KEYS`
#: and never merge into :data:`WORKER_TOTALS`.
SWEEP_KEYS = (
    "rows_completed",
    "rows_failed",
    "rows_degraded",
    "retries",
    "rows_resumed",
)

#: Self-check counters (schema v4) from :mod:`repro.bdd.check` — how
#: many ``REPRO_SELFCHECK`` invariant audits ran and what they found.
#: Like :data:`SWEEP_KEYS` they are *not* additive engine counters:
#: they travel in worker stats deltas and sum into ``stats_totals``,
#: but never merge into :data:`WORKER_TOTALS` (a parent-side audit is
#: extra work by design, so jobs=1 vs jobs=N parity over
#: :data:`ADDITIVE_KEYS` must not see them).
SELFCHECK_KEYS = (
    "selfcheck_manager_checks",
    "selfcheck_payload_checks",
    "selfcheck_violations",
)

#: Live managers, by weak reference.
REGISTRY: "weakref.WeakSet" = weakref.WeakSet()

#: Counter totals inherited from managers that have been garbage
#: collected (folded in by ``BDD.__del__``).
DEAD_TOTALS = {
    "op_calls": 0,
    "kernel_steps": 0,
    "peak_nodes": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "cache_inserts": 0,
    "cache_evictions": 0,
    "cache_invalidations": 0,
}

#: Counter totals merged from worker processes (see
#: :func:`merge_worker_totals`); folded into every :func:`snapshot`.
WORKER_TOTALS = {key: 0 for key in (*ADDITIVE_KEYS, "peak_nodes")}

#: Named measurement records captured by :func:`record`.
RECORDS: dict[str, dict] = {}


def register(bdd) -> None:
    """Track a manager for engine-wide snapshots."""
    REGISTRY.add(bdd)


def fold_dead(bdd) -> None:
    """Absorb a dying manager's counters (called from ``BDD.__del__``)."""
    try:
        DEAD_TOTALS["op_calls"] += bdd._op_calls
        DEAD_TOTALS["kernel_steps"] += bdd._kernel_steps
        DEAD_TOTALS["peak_nodes"] = max(DEAD_TOTALS["peak_nodes"], bdd._peak_alive)
        for tier in bdd.iter_cache_tiers():
            DEAD_TOTALS["cache_hits"] += tier.hits
            DEAD_TOTALS["cache_misses"] += tier.misses
            DEAD_TOTALS["cache_inserts"] += tier.inserts
            DEAD_TOTALS["cache_evictions"] += tier.evictions
            DEAD_TOTALS["cache_invalidations"] += tier.invalidations
    except Exception:
        pass  # never raise during interpreter shutdown


def snapshot() -> dict:
    """Engine-wide counter totals across all managers, live and dead.

    Includes counters merged from worker processes (the parallel
    runner's cross-process aggregation).
    """
    totals = dict(DEAD_TOTALS)
    live_peak = 0
    alive = 0
    for bdd in list(REGISTRY):
        totals["op_calls"] += bdd._op_calls
        totals["kernel_steps"] += bdd._kernel_steps
        live_peak = max(live_peak, bdd._peak_alive)
        alive += bdd.num_alive_nodes()
        for tier in bdd.iter_cache_tiers():
            totals["cache_hits"] += tier.hits
            totals["cache_misses"] += tier.misses
            totals["cache_inserts"] += tier.inserts
            totals["cache_evictions"] += tier.evictions
            totals["cache_invalidations"] += tier.invalidations
    for key in ADDITIVE_KEYS:
        totals[key] += WORKER_TOTALS[key]
    totals["peak_nodes"] = max(
        totals["peak_nodes"], live_peak, WORKER_TOTALS["peak_nodes"]
    )
    totals["alive_nodes"] = alive
    lookups = totals["cache_hits"] + totals["cache_misses"]
    totals["cache_hit_rate"] = (totals["cache_hits"] / lookups) if lookups else 0.0
    from repro.bdd.check import COUNTERS as _selfcheck

    totals["selfcheck_manager_checks"] = _selfcheck["manager_checks"]
    totals["selfcheck_payload_checks"] = _selfcheck["payload_checks"]
    totals["selfcheck_violations"] = _selfcheck["violations"]
    return totals


def counter_delta(before: dict, after: dict) -> dict:
    """Counter movement between two :func:`snapshot` results.

    Additive counters subtract; ``peak_nodes`` reports the (absolute)
    peak observed by ``after`` — peaks do not difference meaningfully.
    """
    delta = {key: after[key] - before[key] for key in ADDITIVE_KEYS}
    delta["peak_nodes"] = after["peak_nodes"]
    for key in SELFCHECK_KEYS:
        delta[key] = after.get(key, 0) - before.get(key, 0)
    return delta


def merge_additive(totals: dict, delta: dict) -> dict:
    """Fold one counter delta into a running totals dict, in place.

    Additive keys sum; ``peak_nodes`` aggregates with ``max``.  This is
    the per-shard accumulation primitive of the query service (since
    schema v6): each executed query's :func:`counter_delta` merges into its
    shard's counters, so warm-vs-cold cache behaviour is attributable
    per benchmark family.  Returns ``totals`` for chaining.
    """
    for key in ADDITIVE_KEYS:
        totals[key] = totals.get(key, 0) + int(delta.get(key, 0))
    totals["peak_nodes"] = max(
        int(totals.get("peak_nodes", 0)), int(delta.get("peak_nodes", 0))
    )
    return totals


def merge_worker_totals(delta: dict) -> None:
    """Fold one worker process's counter delta into this process.

    Called by the parallel executor for each completed row task so that
    :func:`snapshot` (and therefore :func:`record` regions wrapping a
    parallel sweep) accounts for work done in worker processes.
    """
    for key in ADDITIVE_KEYS:
        WORKER_TOTALS[key] += int(delta.get(key, 0))
    WORKER_TOTALS["peak_nodes"] = max(
        WORKER_TOTALS["peak_nodes"], int(delta.get("peak_nodes", 0))
    )


@contextmanager
def record(name: str, **extra):
    """Measure a region: wall time plus engine counter deltas.

    The result lands in ``RECORDS[name]`` with ops/sec derived from the
    operation-call delta.  ``extra`` keys are stored verbatim (workload
    descriptions, row names, ...).
    """
    before = snapshot()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        after = snapshot()
        ops = after["op_calls"] - before["op_calls"]
        steps = after["kernel_steps"] - before["kernel_steps"]
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        lookups = hits + misses
        RECORDS[name] = {
            "wall_s": wall,
            "op_calls": ops,
            "ops_per_sec": (ops / wall) if wall > 0 else 0.0,
            "kernel_steps": steps,
            "kernel_steps_per_sec": (steps / wall) if wall > 0 else 0.0,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "peak_nodes": after["peak_nodes"],
            **extra,
        }


def write_bench_json(
    path: str | Path, meta: dict | None = None, *, jobs: int | None = None
) -> Path:
    """Write :data:`RECORDS` plus an engine snapshot to ``path``.

    ``jobs`` records how many worker processes produced the counters
    (1 for a purely sequential run).  The payload carries both the
    legacy ``generated_unix`` stamp and an ISO-8601 UTC timestamp.

    Since schema v5 the ``meta`` block is always present and carries
    host identification (interpreter version, platform string, CPU
    count) so throughput numbers in a BENCH_*.json can be attributed to
    the machine that produced them; caller-supplied ``meta`` keys are
    merged on top and win on collision.
    """
    path = Path(path)
    now = time.time()
    payload = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "generated_unix": now,
        "generated_iso": datetime.datetime.fromtimestamp(
            now, tz=datetime.timezone.utc
        ).isoformat(),
        "jobs": jobs if jobs is not None else 1,
        "engine": snapshot(),
        "records": RECORDS,
        "meta": {**host_meta(), **(meta or {})},
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def host_meta() -> dict:
    """Host identification stamped into every BENCH payload (schema v5)."""
    return {
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The same pattern as :meth:`repro.parallel.costs.CostModel.save`: a
    process killed mid-write can leave a stray temp file but never a
    torn half-document at the target path, so BENCH_*.json readers (and
    the schema validation in ``benchmarks/conftest.py``) only ever see
    complete payloads.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target
