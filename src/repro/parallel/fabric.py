"""Distributed sweep fabric: an elastic work queue over the journal.

The pool executor (:mod:`repro.parallel.executor`) survives worker
deaths and — with the PR 5 journal — coordinator deaths, but it is
pinned to one host: ``jobs=N`` processes forked from one parent.  The
fabric removes that pin.  Any number of ``repro sweep-worker``
processes, on one box or on many machines sharing a filesystem, *lease*
rows from a :class:`~repro.parallel.lease.LeaseLedger` colocated with
the sweep's write-ahead journal, heartbeat while executing, and append
checksummed results to per-worker segments.  One coordinator
(``repro sweep --fabric``) seeds the task set, watches heartbeats,
reclaims expired leases, and keeps its rows in the same
:class:`~repro.parallel.executor.RowBook` as the pool and the
in-process loop (resume replay, journal, retry-or-quarantine rule,
report and stats merge) — so N elastic workers with arbitrary
SIGKILLs produce totals and row fingerprints identical to a ``jobs=1``
run (the kill-equivalence gate, pinned by
``tests/parallel/test_fabric.py`` and the CI ``fabric-smoke`` job).

Row lifecycle (the coordinator's state machine, DESIGN.md §13)::

    pending -> leased -> committed -> accepted (done)
                  |          |
                  |          +--> stale (fenced epoch) -> rejected
                  +--> expired (no heartbeats) -> fenced -> pending
                                                   |
                                 retries exhausted +--> quarantined

* **pending → leased**: a worker wins the row's lease file
  (``O_CREAT|O_EXCL``), recording the fence epoch it read.
* **leased → expired**: the worker's heartbeat counter stops moving for
  longer than the TTL *on the coordinator's monotonic clock* — worker
  wall clocks are never consulted, so clock skew cannot expire (or
  immortalise) a lease.
* **expired → fenced**: the coordinator bumps the row's epoch file
  durably, *then* removes the lease.  One attempt is charged; within
  the retry budget the row becomes pending again, beyond it the row is
  quarantined as a ``worker-lost``
  :class:`~repro.parallel.executor.TaskFailure`.
* **committed → accepted**: a result record whose epoch equals the
  row's current fence epoch, for a row not already done, is decoded,
  journaled, and merged — *first valid result wins*.  A record from a
  fenced (stale) epoch is rejected and counted, never merged; a second
  valid record for a done row is a duplicate, also rejected — so no row
  is ever double-counted no matter how many times it was executed.
  A resumed coordinator re-reads every segment from the start, so the
  record its predecessor accepted for a replayed row comes by once
  more; it is skipped, not counted as a duplicate.

Fault sites (:mod:`repro._faults`): ``fabric:<key>`` fires in a worker
right after it wins a lease (``crash``/``abort`` simulate machine loss
mid-row), ``fabric-commit:<key>`` fires with heartbeats suspended just
before the result append (``slow`` past the TTL manufactures the
paused-then-resumed worker whose commit must be fenced off), and
``fabric-merge:<key>`` fires in the coordinator right after a result is
journaled (``abort`` simulates losing the coordinator, recovered by
``--resume``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import _faults
from repro.bdd import stats
from repro.errors import ReproError
from repro.parallel.costs import CostModel
from repro.parallel.executor import (
    RowBook,
    SweepReport,
    _describe,
    _traceback_digest,
)
from repro.parallel.journal import (
    Journal,
    config_hash,
    decode_result_payload,
    encode_result_payload,
    scan_journal,
)
from repro.parallel.lease import DEFAULT_LEASE_TTL, LeaseLedger, default_worker_id
from repro.parallel.tasks import RowTask, execute_task

__all__ = [
    "FABRIC_TASKS_FORMAT",
    "FABRIC_TASKS_VERSION",
    "Heartbeat",
    "fabric_status",
    "load_tasks_file",
    "run_fabric",
    "run_worker",
    "seed_tasks",
    "task_from_doc",
]

FABRIC_TASKS_FORMAT = "repro-fabric-tasks"
FABRIC_TASKS_VERSION = 1

#: Name of the journal inside a fabric directory.
JOURNAL_NAME = "journal.jsonl"
#: Name of the seeded task file inside a fabric directory.
TASKS_NAME = "tasks.jsonl"


# ----------------------------------------------------------------------
# Task seeding: the coordinator publishes the row set, workers read it.
# ----------------------------------------------------------------------


def _task_doc(task: RowTask) -> dict:
    return {
        "kind": task.kind,
        "name": task.name,
        "options": [[k, v] for k, v in task.options],
        "key": task.key,
        "config": config_hash(task),
    }


def task_from_doc(doc: dict) -> RowTask:
    """Rebuild a :class:`RowTask` from its seeded JSON description.

    The round trip is verified: option values are JSON scalars
    (bool/int/float/str), whose ``repr`` — and therefore
    :func:`config_hash` — survives JSON; a doc whose rebuilt hash
    disagrees with its seeded ``config`` is corrupt and refused.
    """
    task = RowTask(
        kind=doc["kind"],
        name=doc["name"],
        options=tuple((k, v) for k, v in doc["options"]),
    )
    if config_hash(task) != doc.get("config"):
        raise ReproError(
            f"fabric task doc for {doc.get('key')!r} does not round-trip "
            f"(seeded config {doc.get('config')!r})"
        )
    return task


def seed_tasks(
    path: str | Path, tasks: Sequence[RowTask], order: Sequence[int],
    *, lease_ttl: float,
) -> None:
    """Atomically publish the task set, in schedule (LPT) order.

    The header carries the lease TTL so workers derive their heartbeat
    interval from the same number the coordinator expires against.
    """
    lines = [json.dumps({
        "format": FABRIC_TASKS_FORMAT,
        "version": FABRIC_TASKS_VERSION,
        "lease_ttl": float(lease_ttl),
        "rows": len(tasks),
    }, sort_keys=True)]
    for i in order:
        lines.append(json.dumps(_task_doc(tasks[i]), sort_keys=True))
    stats.atomic_write(Path(path), "\n".join(lines) + "\n")


def load_tasks_file(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a seeded task file; returns ``(header, task docs)``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ReproError(f"empty fabric task file {path}")
    header = json.loads(lines[0])
    if header.get("format") != FABRIC_TASKS_FORMAT:
        raise ReproError(f"{path} is not a {FABRIC_TASKS_FORMAT} file")
    return header, [json.loads(line) for line in lines[1:] if line.strip()]


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------


class Heartbeat:
    """Background thread bumping a worker's beat counter.

    :meth:`paused` suspends beats without stopping the thread — the
    ``fabric-commit`` fault site runs inside a pause so a ``slow`` fault
    longer than the TTL deterministically manufactures a worker the
    coordinator has already fenced by the time it commits.
    """

    def __init__(
        self, ledger: LeaseLedger, worker: str, interval_s: float,
        *, pid: int | None = None,
    ) -> None:
        self.ledger = ledger
        self.worker = worker
        self.interval_s = max(0.05, float(interval_s))
        self.pid = pid
        self._stop = threading.Event()
        self._pause = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{worker}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            if not self._pause.is_set():
                try:
                    self.ledger.heartbeat(self.worker, pid=self.pid)
                except Exception:
                    pass  # a missed beat is survivable; a crashed thread is not
            self._stop.wait(self.interval_s)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    @contextmanager
    def paused(self):
        self._pause.set()
        try:
            yield
        finally:
            self._pause.clear()


def run_worker(
    root: str | Path,
    *,
    worker_id: str | None = None,
    poll_s: float = 0.5,
    max_idle_s: float | None = 60.0,
    parent: int | None = None,
    stop: "threading.Event | None" = None,
) -> dict:
    """Lease and execute rows from a fabric directory until done or idle.

    Runs forever-ish: waits for the task file to appear, then loops —
    lease a not-done row, execute it, append the (checksummed, epoch-
    stamped) outcome to this worker's own result segment — until every
    row is marked done or nothing new has been leasable for
    ``max_idle_s`` (``None`` waits indefinitely; the coordinator's
    in-process worker uses a ``stop`` event instead).  Workers never
    delete leases, never write the journal, and never talk to each
    other: crash-safety is entirely the coordinator's fencing protocol.

    Returns ``{"worker", "leased", "completed", "failed"}``.
    """
    root = Path(root)
    worker = worker_id or default_worker_id()
    tasks_path = root / TASKS_NAME
    idle_since = time.monotonic()
    while not tasks_path.exists():
        if stop is not None and stop.is_set():
            return {"worker": worker, "leased": 0, "completed": 0, "failed": 0}
        if max_idle_s is not None and time.monotonic() - idle_since > max_idle_s:
            raise ReproError(
                f"no fabric task file at {tasks_path} after {max_idle_s:.0f}s"
            )
        time.sleep(min(poll_s, 0.2))
    header, docs = load_tasks_file(tasks_path)
    ledger = LeaseLedger(root, lease_ttl=float(header.get("lease_ttl", DEFAULT_LEASE_TTL)))
    ledger.ensure_dirs()
    hb = Heartbeat(ledger, worker, ledger.lease_ttl / 4.0)
    hb.start()
    leased = completed = failed = 0
    idle_since = time.monotonic()
    try:
        while True:
            if stop is not None and stop.is_set():
                break
            done = ledger.done_map()
            remaining = [d for d in docs if d["config"] not in done]
            if not remaining:
                break
            progressed = False
            for doc in remaining:
                if stop is not None and stop.is_set():
                    break
                config, key = doc["config"], doc["key"]
                if ledger.done_status(config) is not None:
                    continue
                lease = ledger.acquire(config, key, worker)
                if lease is None:
                    continue
                progressed = True
                leased += 1
                # Machine-loss site: crash/abort here dies holding the
                # lease, exactly like a SIGKILL mid-row.
                _faults.fire(f"fabric:{key}", parent=parent)
                try:
                    task = task_from_doc(doc)
                    if parent is not None:
                        task = replace(task, fault_parent=parent)
                    result = execute_task(task)
                    payload = encode_result_payload(result)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    ledger.append_failure(
                        worker, config, key, lease.epoch,
                        status="failed",
                        error=_describe(exc),
                        traceback_digest=_traceback_digest(exc),
                    )
                    failed += 1
                else:
                    # Stale-commit site: with heartbeats suspended, a
                    # slow fault past the TTL means the coordinator has
                    # fenced this lease before the append below lands.
                    with hb.paused():
                        _faults.fire(f"fabric-commit:{key}", parent=parent)
                    ledger.append_result(
                        worker, config, key, lease.epoch, payload,
                        status=result.status,
                    )
                    completed += 1
                idle_since = time.monotonic()
            if not progressed:
                if max_idle_s is not None and (
                    time.monotonic() - idle_since > max_idle_s
                ):
                    break
                time.sleep(poll_s)
    finally:
        hb.stop()
    return {
        "worker": worker,
        "leased": leased,
        "completed": completed,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------


def run_fabric(
    tasks: Sequence[RowTask],
    root: str | Path,
    *,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resume: bool = False,
    local_work: bool = True,
    cost_model: CostModel | None = None,
    retries: int = 2,
    merge_stats: bool = True,
    poll_s: float = 0.2,
    ledger: LeaseLedger | None = None,
) -> SweepReport:
    """Coordinate a fabric sweep over ``tasks``; see the module doc.

    Seeds the task file (LPT order from the flocked ``cost_model``),
    keeps its books in a :class:`~repro.parallel.executor.RowBook` —
    the one :func:`run_tasks` keeps, journaled into
    ``<root>/journal.jsonl`` — reclaims expired leases with fencing,
    and returns a :class:`SweepReport` whose results, failures, totals,
    and cost-model feedback match :func:`run_tasks` semantics, with the
    fabric accounting on ``report.fabric``.

    ``local_work=True`` (the default) runs one in-process worker thread,
    so a bare coordinator completes the sweep alone; external
    ``repro sweep-worker`` processes join and leave at any time.
    ``resume=True`` replays done rows from the journal (coordinator
    SIGKILL recovery); fence epochs persist across restarts, so stale
    results from the previous incarnation's workers are still rejected.
    ``ledger`` is injectable for tests (deterministic expiry clocks).
    """
    if cost_model is None:
        cost_model = CostModel()
    root = Path(root)
    if ledger is None:
        ledger = LeaseLedger(root, lease_ttl=lease_ttl)
    ledger.ensure_dirs()
    if not resume:
        ledger.reset()
    else:
        # Done markers are derived state; rebuild them from the journal
        # so a marker the dead coordinator wrote for a row this run does
        # not ask for is dropped.
        ledger.clear_done()
    coordinator_pid = os.getpid()
    by_config = {config_hash(t): i for i, t in enumerate(tasks)}
    order = cost_model.schedule(tasks)
    t0 = time.perf_counter()
    counters = {
        "leases_granted": 0,
        "leases_expired": 0,
        "leases_fenced": 0,
        "results_stale": 0,
        "results_duplicate": 0,
    }
    journaled_leases: set[tuple[str, int]] = set()

    journal = Journal(root / JOURNAL_NAME, resume=resume)
    try:
        book = RowBook(tasks, retries=retries, journal=journal)
        for i in book.resumed:
            ledger.mark_done(config_hash(tasks[i]), book.results[i].status)
        # Segments are re-read from offset 0 on resume, so each resumed
        # row's accepted record comes by once more; it is not a duplicate.
        predecessor_accepted = set(book.resumed)

        seed_tasks(root / TASKS_NAME, tasks, order, lease_ttl=ledger.lease_ttl)

        def fence(config: str) -> None:
            ledger.fence(config)
            counters["leases_fenced"] += 1

        def charge(
            i: int, config: str, status: str, error: str, digest: str = ""
        ) -> None:
            """One failed attempt: re-leasable (retry) or done (quarantined)
            — fenced either way, so a zombie's late result is stale."""
            if not book.failure(i, status, error, digest):
                ledger.mark_done(config, f"failed:{status}")
            fence(config)

        def observe_grant(i: int, config: str, epoch: int) -> None:
            if (config, epoch) not in journaled_leases:
                journaled_leases.add((config, epoch))
                counters["leases_granted"] += 1
                book.attempt(i)

        def accept(record: dict) -> None:
            config = record.get("config")
            i = by_config.get(config)
            if i is None:
                return  # a row this sweep does not ask for
            try:
                epoch = int(record.get("epoch", -1))
            except (TypeError, ValueError):
                epoch = -1
            if book.settled(i):
                if i in predecessor_accepted and epoch == ledger.fence_epoch(config):
                    predecessor_accepted.discard(i)
                else:
                    counters["results_duplicate"] += 1
                return
            if epoch != ledger.fence_epoch(config):
                counters["results_stale"] += 1
                return
            # A fast row can be leased, executed, and committed all
            # within one poll interval — the reap loop never saw the
            # lease, so observe the grant at acceptance instead.
            observe_grant(i, config, epoch)
            if record.get("type") == "failure":
                charge(
                    i, config,
                    str(record.get("status", "failed")),
                    str(record.get("error", "")),
                    str(record.get("traceback_digest", "")),
                )
                return
            try:
                result = decode_result_payload(record["payload"])
            except Exception as exc:
                charge(
                    i, config, "failed",
                    f"undecodable result payload: {_describe(exc)}",
                )
                return
            book.result(i, result)
            ledger.mark_done(config, result.status)
            ledger.clear_lease(config)
            # Coordinator-loss site: abort here simulates dying right
            # after accepting a row; --resume must replay it.
            _faults.fire(f"fabric-merge:{tasks[i].key}")

        def reap() -> None:
            """Expire silent leases; journal attempts for fresh ones."""
            for lease in ledger.leases():
                i = by_config.get(lease.config)
                if i is None or book.settled(i):
                    ledger.clear_lease(lease.config)
                    continue
                if lease.epoch != ledger.fence_epoch(lease.config):
                    # Leftover of a fence interrupted between the epoch
                    # write and the unlink (coordinator crash): already
                    # invalidated, just not removed yet.
                    ledger.clear_lease(lease.config)
                    continue
                observe_grant(i, lease.config, lease.epoch)
                if ledger.lease_expired(lease):
                    counters["leases_expired"] += 1
                    charge(
                        i, lease.config, "worker-lost",
                        f"lease held by {lease.worker} (epoch {lease.epoch}) "
                        f"expired without a heartbeat for {ledger.lease_ttl:.1f}s",
                    )

        local_stop = threading.Event()
        local_thread: threading.Thread | None = None
        if local_work:
            local_thread = threading.Thread(
                target=run_worker,
                args=(root,),
                kwargs={
                    "worker_id": f"local-{coordinator_pid}",
                    "poll_s": min(poll_s, 0.1),
                    "max_idle_s": None,
                    "parent": coordinator_pid,
                    "stop": local_stop,
                },
                name="fabric-local-worker",
                daemon=True,
            )
            local_thread.start()

        try:
            while not book.complete():
                ledger.observe_liveness()
                for record in ledger.read_new_records():
                    accept(record)
                reap()
                if book.complete():
                    break
                time.sleep(poll_s)
        finally:
            local_stop.set()
            if local_thread is not None:
                local_thread.join(timeout=30.0)
    finally:
        journal.close()

    worker_docs = ledger.worker_records()
    report = book.report(
        jobs=max(1, len(worker_docs)),
        wall_s=time.perf_counter() - t0,
        order=order,
        cost_model=cost_model,
        merge_stats=merge_stats,
    )
    report.fabric = {
        **counters,
        "lease_ttl": ledger.lease_ttl,
        "workers": {
            worker: {
                "beats": int(doc.get("beats", 0)),
                "pid": doc.get("pid"),
                "host": doc.get("host"),
                "last_heartbeat_unix": doc.get("time_unix"),
            }
            for worker, doc in worker_docs.items()
        },
    }
    return report


# ----------------------------------------------------------------------
# Status inspection (``repro sweep --status``): read-only, run-free.
# ----------------------------------------------------------------------


def fabric_status(
    path: str | Path, *, now: Callable[[], float] = time.time
) -> dict:
    """Summarize a fabric directory (or bare journal) without running.

    For a fabric directory: rows done / failed / leased / pending
    against the seeded task set, plus per-worker last-heartbeat age.
    For a bare journal file: done / failed rows only.  Heartbeat *ages*
    use wall clocks and are display-only — the coordinator's actual
    expiry decisions never consult them (see
    :mod:`repro.parallel.lease`).
    """
    path = Path(path)
    if path.is_dir():
        root = path
        journal_path = root / JOURNAL_NAME
    else:
        root = None
        journal_path = path
    done: dict[str, str] = {}
    failed: dict[str, str] = {}
    if journal_path.exists():
        for record in scan_journal(journal_path):
            key = record.get("key")
            if not isinstance(key, str):
                continue
            if record.get("type") == "result":
                done[key] = str(record.get("status", "ok"))
                failed.pop(key, None)
            elif record.get("type") == "failure":
                if key not in done:
                    failed[key] = str(record.get("status", "failed"))
    status: dict[str, Any] = {
        "journal": str(journal_path),
        "rows_done": len(done),
        "rows_failed": len(failed),
        "done": done,
        "failed": failed,
    }
    if root is None:
        return status
    ledger = LeaseLedger(root)
    key_of = {}
    total = None
    tasks_path = root / TASKS_NAME
    if tasks_path.exists():
        _, docs = load_tasks_file(tasks_path)
        key_of = {d["config"]: d["key"] for d in docs}
        total = len(docs)
    leased = {
        key_of.get(lease.config, lease.config): {
            "worker": lease.worker,
            "epoch": lease.epoch,
        }
        for lease in ledger.leases()
        if key_of.get(lease.config, lease.config) not in done
    }
    status["rows_leased"] = len(leased)
    status["leased"] = leased
    if total is not None:
        pending = [
            key for config, key in key_of.items()
            if key not in done and key not in failed and key not in leased
        ]
        status["rows_total"] = total
        status["rows_pending"] = len(pending)
        status["pending"] = pending
    wall_now = now()
    status["workers"] = {
        worker: {
            "beats": int(doc.get("beats", 0)),
            "pid": doc.get("pid"),
            "host": doc.get("host"),
            "heartbeat_age_s": max(
                0.0, wall_now - float(doc.get("time_unix", wall_now))
            ),
        }
        for worker, doc in ledger.worker_records().items()
    }
    return status
