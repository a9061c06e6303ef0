"""Process-parallel experiment runner with cost-aware scheduling.

The Sect. 5 sweeps are dozens of independent per-benchmark pipelines;
this package fans them out over shared-nothing worker processes:

* :mod:`repro.parallel.tasks` — :class:`RowTask` descriptions, the
  worker entry point, and parent-side parity checks on shipped CFs.
* :mod:`repro.parallel.costs` — :class:`CostModel`, longest-first
  scheduling seeded from BENCH_*.json wall times.
* :mod:`repro.parallel.executor` — :func:`run_tasks` /
  :class:`SweepReport`, and the :class:`~repro.parallel.executor.RowBook`
  every sweep engine keeps its rows in (resume replay, journaling,
  retry-or-quarantine, report assembly with cross-process stats).
* :mod:`repro.parallel.worker` — :class:`~repro.parallel.worker.WorkerProcess`,
  one forked worker behind a pipe: the sweep pool runs on it, and so do
  the query service's shard workers.
* :mod:`repro.parallel.journal` — :class:`Journal`, the fsync'd
  write-ahead record of sweep progress behind ``--journal``/``--resume``
  (crash-safe resume of interrupted sweeps), plus read-only scanning
  and ``repro journal compact``.
* :mod:`repro.parallel.lease` / :mod:`repro.parallel.fabric` — the
  distributed sweep fabric: a lease ledger (heartbeats, fencing
  epochs, per-worker result segments) and the coordinator/worker loops
  behind ``repro sweep --fabric`` / ``repro sweep-worker``, for elastic
  multi-process — and, over a shared filesystem, multi-host — sweeps
  with machine-loss recovery.
* :mod:`repro.parallel.report` — the BENCH_PR3.json artifact.

``run_tasks(tasks, jobs=1)`` is the sequential in-process path used by
default everywhere; pass ``--jobs N`` on the CLI (or ``jobs=N``) to
parallelize.  Results are bit-identical at any jobs value.

Execution is fault tolerant: per-attempt row deadlines (``timeout=``),
bounded retries with exponential backoff, a restart of only the worker
that died or hung, and structured quarantine (:class:`TaskFailure` on
``SweepReport.failures``) instead of raising — see
:mod:`repro.parallel.executor`.
"""

from repro.parallel.costs import CostModel
from repro.parallel.executor import (
    SweepReport,
    TaskFailure,
    WorkerUsage,
    run_tasks,
)
from repro.parallel.fabric import fabric_status, run_fabric, run_worker
from repro.parallel.journal import (
    Journal,
    compact_journal,
    config_hash,
    scan_journal,
)
from repro.parallel.lease import LeaseLedger
from repro.parallel.report import write_parallel_bench
from repro.parallel.tasks import (
    RowTask,
    TaskResult,
    execute_task,
    row_fingerprint,
    table4_task,
    table5_task,
    table6_task,
    verify_shipped,
)

__all__ = [
    "CostModel",
    "Journal",
    "LeaseLedger",
    "RowTask",
    "SweepReport",
    "TaskFailure",
    "TaskResult",
    "WorkerUsage",
    "compact_journal",
    "config_hash",
    "execute_task",
    "fabric_status",
    "row_fingerprint",
    "run_fabric",
    "run_tasks",
    "run_worker",
    "scan_journal",
    "table4_task",
    "table5_task",
    "table6_task",
    "verify_shipped",
    "write_parallel_bench",
]
