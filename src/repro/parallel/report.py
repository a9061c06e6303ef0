"""BENCH_PR3.json: sequential-vs-parallel sweep comparison artifact.

The payload extends the BENCH_*.json family (same ``schema`` /
``schema_version`` / timestamp keys as
:func:`repro.bdd.stats.write_bench_json`) with one record per sweep —
wall time, per-worker utilization, scheduling overhead, per-row walls —
plus the wall-clock speedup of the fastest parallel sweep over the
``jobs=1`` baseline and the host's CPU count (a 1-core container runs
the pool for parity, not for speed; readers must interpret the speedup
against ``cpu_count``).
"""

from __future__ import annotations

import datetime
import json
import os
import time
from collections.abc import Mapping
from pathlib import Path

from repro.bdd import stats
from repro.parallel.executor import SweepReport


def write_parallel_bench(
    path: str | Path,
    sweeps: Mapping[str, SweepReport],
    meta: dict | None = None,
) -> Path:
    """Write the sweep comparison document; returns the path.

    ``sweeps`` maps labels (conventionally ``"jobs=1"``, ``"jobs=4"``)
    to their reports.  Speedup is computed from the ``jobs == 1`` sweep
    to the fastest ``jobs > 1`` sweep when both are present.
    """
    path = Path(path)
    now = time.time()
    payload: dict = {
        "schema": stats.SCHEMA,
        "schema_version": stats.SCHEMA_VERSION,
        "generated_unix": now,
        "generated_iso": datetime.datetime.fromtimestamp(
            now, tz=datetime.timezone.utc
        ).isoformat(),
        "cpu_count": os.cpu_count(),
        "jobs": max((r.jobs for r in sweeps.values()), default=1),
        "sweeps": {label: report.to_record() for label, report in sweeps.items()},
    }
    sequential = next((r for r in sweeps.values() if r.jobs == 1), None)
    parallel = [r for r in sweeps.values() if r.jobs > 1]
    if sequential is not None and parallel:
        best = min(parallel, key=lambda r: r.wall_s)
        payload["speedup"] = {
            "sequential_wall_s": sequential.wall_s,
            "parallel_wall_s": best.wall_s,
            "parallel_jobs": best.jobs,
            "speedup": (
                sequential.wall_s / best.wall_s if best.wall_s > 0 else 0.0
            ),
        }
    payload["meta"] = {**stats.host_meta(), **(meta or {})}
    # Atomic: a sweep killed while writing its report must not leave a
    # torn half-JSON for a later schema-validating reader to trip over.
    stats.atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
