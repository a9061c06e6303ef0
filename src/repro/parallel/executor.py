"""Fault-tolerant shared-nothing execution of row tasks, and the row book.

:func:`run_tasks` is the one entry point: it schedules the given
:class:`~repro.parallel.tasks.RowTask`s longest-first (see
:mod:`repro.parallel.costs`), fans them out over ``jobs`` forked
:class:`~repro.parallel.worker.WorkerProcess` workers — the same class
the query service runs its shard workers on — and reassembles results
in submission order.  ``jobs=1`` short-circuits to an in-process loop —
byte-for-byte the pre-parallel sequential path, with no pickling and no
workers — which the determinism tests use as the reference.

Fault tolerance: every row carries an optional per-attempt ``timeout``
and a bounded retry budget (``retries`` extra attempts with exponential
backoff).  A row attempt can fail three ways, all survivable:

* **exception** — the worker reports the error text and a traceback
  digest; the row is charged ``failed`` and retried, and the final
  allowed attempt runs *in the parent process* so that transport
  problems (e.g. an unpicklable result) cannot starve a row that
  computes fine.
* **worker death** — the row that worker was running is charged
  ``crashed``, booked to the worker's pid, and that one worker is
  restarted; the other workers keep their rows.  A result that cannot
  be pickled ends its worker, so it is charged ``crashed`` too.
* **hang** — a row past its deadline (measured from dispatch) gets its
  worker terminated and restarted and is charged ``timeout``; nothing
  else is touched.

Rows that exhaust their attempts are quarantined as structured
:class:`TaskFailure` records on ``SweepReport.failures`` — ``run_tasks``
**never raises for a row failure** and never returns fewer than
``len(tasks)`` outcomes (``results + failures``, checked by an
invariant).  The workers are stopped when ``run_tasks`` returns or
raises, ``KeyboardInterrupt`` included.

Every sweep engine — the in-process loop, the pool and the fabric
(:func:`repro.parallel.fabric.run_fabric`) — keeps its books in one
:class:`RowBook`: resume replay, the journal, the retry-or-quarantine
rule and the report.

Cross-process stats: every row measures its own engine-counter delta;
the book sums those deltas into ``SweepReport.stats_totals`` and folds
the deltas of rows computed in *other* processes into this process's
:mod:`repro.bdd.stats` registry via
:func:`~repro.bdd.stats.merge_worker_totals`, so engine-wide snapshots
keep working when the work happened elsewhere, and a row run here is
never counted twice.  The additive counters of an N-worker sweep equal
those of the same sweep at ``jobs=1`` (pinned by
``tests/parallel/test_aggregate.py``); completed rows aggregate and
feed the cost model even when other rows failed.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
import traceback
from collections import deque
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field, replace

from repro.bdd import stats
from repro.bdd.governor import Budget
from repro.errors import DeadlineError, ReproError, ResourceLimitError, WorkerDied
from repro.parallel.costs import CostModel
from repro.parallel.tasks import RowTask, TaskResult, execute_task
from repro.parallel.worker import WorkerProcess


@dataclass
class WorkerUsage:
    """Per-worker accounting of one sweep."""

    tasks: int = 0
    busy_s: float = 0.0
    utilization: float = 0.0
    failures: int = 0


@dataclass
class TaskFailure:
    """One quarantined row: every attempt failed (or timed out).

    ``status`` is ``"timeout"`` when the last attempt hit the row
    deadline, ``"crashed"`` when its worker process died (a result that
    cannot be pickled ends the worker too), ``"failed"`` for an ordinary
    exception, and ``"worker-lost"`` when a fabric lease expired.
    ``traceback_digest`` is a short stable hash of the full traceback
    plus the innermost frame, enough to group identical failures
    without shipping whole dumps.
    """

    key: str
    status: str
    attempts: int
    error: str
    traceback_digest: str = ""
    elapsed_s: float = 0.0
    pid: int = 0


@dataclass
class SweepReport:
    """Everything one sweep (:func:`run_tasks` or a fabric) produced."""

    jobs: int
    wall_s: float
    results: list[TaskResult]
    schedule: list[str]
    stats_totals: dict = field(default_factory=dict)
    workers: dict[str, WorkerUsage] = field(default_factory=dict)
    scheduling_overhead_s: float = 0.0
    failures: list[TaskFailure] = field(default_factory=list)
    retries: int = 0
    rows_resumed: int = 0
    journal_path: str | None = None
    #: Fabric-sweep accounting (leases granted/expired/fenced, stale and
    #: duplicate results, per-worker liveness) when the report came from
    #: :func:`repro.parallel.fabric.run_fabric`; ``None`` for pool and
    #: in-process sweeps.
    fabric: dict | None = None

    @property
    def rows(self) -> list:
        """Completed row results in submission order.

        Quarantined rows (``failures``) and ``budget_exceeded`` results
        carry no row payload and are excluded; check ``failures`` and
        per-result ``status`` for the full account.
        """
        return [r.result for r in self.results if r.result is not None]

    @property
    def busy_s(self) -> float:
        """Total in-row wall time summed over all workers."""
        return sum(r.wall_s for r in self.results)

    @property
    def rows_failed(self) -> int:
        return len(self.failures)

    @property
    def rows_degraded(self) -> int:
        return sum(1 for r in self.results if r.status in ("degraded", "budget_exceeded"))

    def to_record(self) -> dict:
        """JSON-ready summary for BENCH_*.json emission."""
        record = {
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "scheduling_overhead_s": self.scheduling_overhead_s,
            "schedule": list(self.schedule),
            "row_wall_s": {r.key: r.wall_s for r in self.results},
            "row_status": {r.key: r.status for r in self.results},
            "workers": {
                pid: {
                    "tasks": usage.tasks,
                    "busy_s": usage.busy_s,
                    "utilization": usage.utilization,
                    "failures": usage.failures,
                }
                for pid, usage in self.workers.items()
            },
            "failures": [
                {
                    "key": f.key,
                    "status": f.status,
                    "attempts": f.attempts,
                    "error": f.error,
                    "traceback_digest": f.traceback_digest,
                    "elapsed_s": f.elapsed_s,
                }
                for f in self.failures
            ],
            "retries": self.retries,
            "rows_resumed": self.rows_resumed,
            "journal_path": self.journal_path,
            "stats_totals": dict(self.stats_totals),
        }
        if self.fabric is not None:
            record["fabric"] = dict(self.fabric)
        return record


def _traceback_digest(exc: BaseException) -> str:
    """Short stable id of a failure: blake2b of the traceback + frame."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    digest = hashlib.blake2b(text.encode("utf-8", "replace"), digest_size=6).hexdigest()
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        last = frames[-1]
        return f"{digest} {os.path.basename(last.filename)}:{last.lineno} in {last.name}"
    return digest


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class RowBook:
    """One sweep's account of its rows, kept the same by every engine.

    The in-process loop and the pool of :func:`run_tasks` and the fabric
    coordinator (:func:`repro.parallel.fabric.run_fabric`) each drive
    one book per sweep; they differ only in how an attempt runs.  The
    book replays journaled rows on resume, journals (durably) every
    attempt, result and quarantine, applies the retry-or-quarantine
    rule, and assembles the :class:`SweepReport`.
    """

    def __init__(
        self,
        tasks: Sequence[RowTask],
        *,
        retries: int,
        journal: "Journal | None" = None,
    ) -> None:
        self.tasks = list(tasks)
        self.retries = retries
        self.journal = journal
        self.results: list[TaskResult | None] = [None] * len(self.tasks)
        self.failures: dict[int, TaskFailure] = {}
        #: Failed attempts charged per row.
        self.attempts = [0] * len(self.tasks)
        #: Seconds spent in failed attempts per row.
        self.elapsed = [0.0] * len(self.tasks)
        self.retried = 0
        self.worker_failures: dict[str, int] = {}
        #: Rows replayed from the journal instead of run.
        self.resumed: list[int] = []
        if journal is not None and journal.resume:
            for i, replayed in journal.resumable(self.tasks).items():
                self.results[i] = replayed
                self.resumed.append(i)

    def settled(self, i: int) -> bool:
        """Does row ``i`` have its result or its quarantine record?"""
        return self.results[i] is not None or i in self.failures

    def complete(self) -> bool:
        return all(self.settled(i) for i in range(len(self.tasks)))

    def attempt(self, i: int) -> None:
        """Journal that an attempt of row ``i`` is starting."""
        if self.journal is not None:
            self.journal.record_attempt(self.tasks[i], self.attempts[i] + 1)

    def result(self, i: int, result: TaskResult) -> None:
        """Row ``i`` completed: keep and journal its result."""
        self.results[i] = result
        if self.journal is not None:
            self.journal.record_result(self.tasks[i], result)

    def failure(
        self,
        i: int,
        status: str,
        error: str,
        digest: str = "",
        *,
        pid: int | None = None,
        elapsed_s: float = 0.0,
    ) -> bool:
        """Charge one failed attempt of row ``i``; True if it may retry.

        Within ``retries`` extra attempts the row retries; after that it
        is quarantined as a journaled :class:`TaskFailure`.  ``pid``
        books the attempt to a worker process (``0`` is this process);
        the fabric, which cannot attribute it, books none.
        """
        self.attempts[i] += 1
        self.elapsed[i] += elapsed_s
        if pid is not None:
            who = str(pid) if pid else "parent"
            self.worker_failures[who] = self.worker_failures.get(who, 0) + 1
        if self.attempts[i] <= self.retries:
            self.retried += 1
            return True
        self.failures[i] = TaskFailure(
            key=self.tasks[i].key,
            status=status,
            attempts=self.attempts[i],
            error=error,
            traceback_digest=digest,
            elapsed_s=self.elapsed[i],
            pid=pid or 0,
        )
        if self.journal is not None:
            self.journal.record_failure(self.tasks[i], self.failures[i])
        return False

    def report(
        self,
        *,
        jobs: int,
        wall_s: float,
        order: Sequence[int],
        cost_model: CostModel,
        merge_stats: bool,
    ) -> SweepReport:
        """The sweep's :class:`SweepReport`, in submission order.

        ``order`` is the planned schedule over all rows — resumed rows
        keep their slot, so a resumed run's schedule matches an
        uninterrupted run's.  With ``merge_stats`` the deltas of rows
        computed in another process (a worker, or the process that
        journaled a resumed row) fold into this process's stats
        registry; rows run here are in it already.  Completed rows feed
        their wall times to ``cost_model`` (failures feed nothing).
        """
        results = [r for r in self.results if r is not None]
        if len(results) + len(self.failures) != len(self.tasks):
            raise ReproError(
                f"sweep lost rows: {len(self.tasks)} tasks -> "
                f"{len(results)} results + {len(self.failures)} failures"
            )
        report = SweepReport(
            jobs=jobs,
            wall_s=wall_s,
            results=results,
            schedule=[self.tasks[i].key for i in order],
            failures=[self.failures[i] for i in sorted(self.failures)],
            retries=self.retried,
            rows_resumed=len(self.resumed),
            journal_path=str(self.journal.path) if self.journal is not None else None,
        )
        report.stats_totals = aggregate_stats(report)
        report.workers = _worker_usage(results, wall_s, self.worker_failures)
        busiest = max((u.busy_s for u in report.workers.values()), default=0.0)
        report.scheduling_overhead_s = max(0.0, wall_s - busiest)
        if merge_stats:
            here = os.getpid()
            for result in results:
                if result.pid != here:
                    stats.merge_worker_totals(result.stats_delta)
        for result in results:
            cost_model.observe(result.key, result.wall_s)
        cost_model.save()
        return report


def _attempt_inline(task: RowTask, timeout: float | None) -> TaskResult:
    """One attempt in the current process, under a deadline budget.

    The deadline is cooperative (checked at governor checkpoints), so an
    in-parent attempt cannot hang the sweep longer than roughly one
    check interval past ``timeout``.  Errors raised by *this* budget
    surface as :class:`DeadlineError`; a row-level ``node_limit`` budget
    is handled inside ``execute_task`` and never reaches here.
    """
    if timeout is None:
        return execute_task(task)
    deadline = Budget(deadline_s=timeout)
    try:
        with deadline:
            return execute_task(task)
    except (DeadlineError, ResourceLimitError) as exc:
        if exc.budget is deadline:
            raise DeadlineError(
                f"{task.key}: in-process attempt exceeded {timeout:.3f}s",
                budget=deadline,
            ) from exc
        raise


def _run_inline(book: RowBook, i: int, timeout: float | None) -> bool:
    """One attempt of row ``i`` in this process; True if it may retry.

    Every attempt of the ``jobs=1`` loop runs here, and so does the
    pool's last allowed attempt of a row.
    """
    book.attempt(i)
    t_start = time.perf_counter()
    try:
        result = _attempt_inline(book.tasks[i], timeout)
    except Exception as exc:
        status = "timeout" if isinstance(exc, DeadlineError) else "failed"
        return book.failure(
            i, status, _describe(exc), _traceback_digest(exc),
            pid=0, elapsed_s=time.perf_counter() - t_start,
        )
    book.result(i, result)
    return False


def _row_handler():
    """A sweep worker's handler, built in the worker: one row per message.

    The reply is the row's :class:`TaskResult`, or the error text and
    traceback digest of the exception it raised.
    """

    def run_row(task: RowTask):
        try:
            return execute_task(task)
        except Exception as exc:  # noqa: BLE001 - reported, not dropped
            return _describe(exc), _traceback_digest(exc)

    return run_row


def run_tasks(
    tasks: Sequence[RowTask],
    *,
    jobs: int = 1,
    cost_model: CostModel | None = None,
    merge_stats: bool = True,
    timeout: float | None = None,
    retries: int = 2,
    backoff_s: float = 0.25,
    journal: "str | os.PathLike | Journal | None" = None,
    resume: bool = False,
) -> SweepReport:
    """Execute row tasks on ``jobs`` worker processes; see module doc.

    ``timeout`` is the per-*attempt* row deadline in seconds (``None``
    disables it); ``retries`` is how many extra attempts a failing row
    gets (exponential backoff starting at ``backoff_s``), with the last
    allowed attempt running in the parent process.  Failed rows are
    quarantined on ``SweepReport.failures``, never raised.

    ``journal`` (a path or an open :class:`~repro.parallel.journal.Journal`)
    makes the sweep crash-safe: every attempt/result/failure is appended
    durably before the sweep proceeds.  With ``resume=True`` rows whose
    results are already journaled (matching config hash) are *not*
    re-executed — their :class:`TaskResult`s replay into the report,
    the stats totals, and the cost model exactly as if computed fresh,
    counted by ``SweepReport.rows_resumed``.

    The returned report lists results in the submission order of
    ``tasks`` regardless of the schedule.  Observed wall times of
    completed rows are fed back into ``cost_model`` (and persisted when
    it has a path), so the second sweep schedules better than the
    first — failures feed nothing, so a flaky row's estimate is not
    poisoned by its crashes.
    """
    from repro.parallel.journal import Journal

    # Stamp every task with this (parent) pid for the fault-injection
    # hooks: the marker rides the task description itself, so two
    # concurrent run_tasks calls in one process — the query service
    # serving sweeps — cannot clobber each other the way a process-
    # global ``os.environ`` marker would.  The stamp is excluded from
    # journal config hashes (see ``RowTask.fault_parent``).
    parent_pid = os.getpid()
    tasks = [replace(t, fault_parent=parent_pid) for t in tasks]
    if cost_model is None:
        cost_model = CostModel()
    if resume and journal is None:
        raise ReproError("resume=True requires a journal path")
    own_journal = journal is not None and not isinstance(journal, Journal)
    if own_journal:
        journal = Journal(journal, resume=resume)
    # The in-process path runs (and reports) submission order.
    order = cost_model.schedule(tasks) if jobs > 1 else range(len(tasks))
    t0 = time.perf_counter()
    try:
        book = RowBook(tasks, retries=retries, journal=journal)
        if jobs <= 1:
            # In-process path: no workers, no pickling — the
            # deterministic reference path, with the same retry and
            # quarantine semantics as the pool path.
            for i in order:
                while not book.settled(i):
                    if _run_inline(book, i, timeout):
                        time.sleep(backoff_s * (2 ** (book.attempts[i] - 1)))
        else:
            _run_pool(book, order, jobs, timeout, backoff_s)
    finally:
        if own_journal:
            journal.close()
    return book.report(
        jobs=jobs,
        wall_s=time.perf_counter() - t0,
        order=order,
        cost_model=cost_model,
        merge_stats=merge_stats,
    )


def _run_pool(
    book: RowBook,
    order: Sequence[int],
    jobs: int,
    timeout: float | None,
    backoff_s: float,
) -> None:
    """The pool loop of :func:`run_tasks` (``jobs > 1``).

    ``min(jobs, rows to run)`` workers each run one row at a time, so
    at most ``jobs`` rows are in flight and a deadline measured from
    dispatch is honest.  A worker that dies, or that the deadline
    terminates, is restarted alone and only its row is charged, booked
    to its pid: ``timeout`` when the deadline's SIGTERM ended it,
    ``crashed`` for any other death.
    """
    # Rows pre-filled by a journal resume never dispatch.
    ready: deque[tuple[int, float]] = deque(
        (i, 0.0) for i in order if not book.settled(i)
    )
    workers = [
        WorkerProcess(_row_handler, name=f"repro-sweep-{k}")
        for k in range(min(jobs, len(ready)))
    ]
    idle = list(workers)
    running: dict[Future, tuple[int, WorkerProcess, float]] = {}
    try:
        while ready or running:
            now = time.monotonic()
            while ready and idle:
                # Pull the first dispatchable row (backoff respected).
                for _ in range(len(ready)):
                    i, not_before = ready.popleft()
                    if not_before <= now:
                        break
                    ready.append((i, not_before))
                else:
                    break
                if book.retries and book.attempts[i] == book.retries:
                    _run_inline(book, i, timeout)  # the last allowed attempt
                    continue
                worker = idle.pop()
                book.attempt(i)
                fut = worker.executor.submit(worker.call, book.tasks[i], timeout=timeout)
                running[fut] = (i, worker, time.monotonic())
            wait_s = None
            if ready and idle:
                # Everything ready is backing off: wake for the earliest.
                wait_s = max(0.0, min(nb for _, nb in ready) - time.monotonic())
            if not running:
                time.sleep(wait_s or 0.0)
                continue
            done, _ = wait(running, timeout=wait_s, return_when=FIRST_COMPLETED)
            for fut in done:
                i, worker, t_sub = running.pop(fut)
                elapsed = time.monotonic() - t_sub
                process, status = worker.process, "failed"
                try:
                    reply = fut.result()
                except WorkerDied as exc:
                    worker.restart()  # reaps the dead process first
                    status = "timeout" if process.exitcode == -signal.SIGTERM else "crashed"
                    reply = _describe(exc), _traceback_digest(exc)
                idle.append(worker)
                if isinstance(reply, TaskResult):
                    book.result(i, reply)
                elif book.failure(i, status, *reply, pid=process.pid, elapsed_s=elapsed):
                    delay = backoff_s * (2 ** (book.attempts[i] - 1))
                    ready.append((i, time.monotonic() + delay))
    finally:
        for worker in workers:
            worker.stop()


def aggregate_stats(report: SweepReport) -> dict:
    """Sum the additive counters over all task deltas; max the peak.

    Also folds in the sweep-outcome counters
    (:data:`repro.bdd.stats.SWEEP_KEYS`) and the ``REPRO_SELFCHECK``
    audit counters (:data:`repro.bdd.stats.SELFCHECK_KEYS`, schema v4)
    so BENCH_*.json consumers see row failures and invariant checks
    next to the engine counters they affect.  Resumed rows contribute
    their journaled deltas exactly as if computed fresh.
    """
    totals = {key: 0 for key in (*stats.ADDITIVE_KEYS, *stats.SELFCHECK_KEYS)}
    peak = 0
    for result in report.results:
        delta = result.stats_delta
        for key in (*stats.ADDITIVE_KEYS, *stats.SELFCHECK_KEYS):
            totals[key] += int(delta.get(key, 0))
        peak = max(peak, int(delta.get("peak_nodes", 0)))
    totals["peak_nodes"] = peak
    totals["rows_completed"] = len(report.results)
    totals["rows_failed"] = report.rows_failed
    totals["rows_degraded"] = report.rows_degraded
    totals["retries"] = report.retries
    totals["rows_resumed"] = report.rows_resumed
    return totals


def _worker_usage(
    results: Sequence[TaskResult],
    wall: float,
    worker_failures: dict[str, int] | None = None,
) -> dict[str, WorkerUsage]:
    workers: dict[str, WorkerUsage] = {}
    for result in results:
        usage = workers.setdefault(str(result.pid), WorkerUsage())
        usage.tasks += 1
        usage.busy_s += result.wall_s
    for pid, count in (worker_failures or {}).items():
        workers.setdefault(pid, WorkerUsage()).failures = count
    for usage in workers.values():
        # Clamp: clock skew between perf_counter spans (or a wall that
        # excludes retries) must not report >100% or negative usage.
        usage.utilization = min(1.0, max(0.0, usage.busy_s / wall)) if wall > 0 else 0.0
    return workers
