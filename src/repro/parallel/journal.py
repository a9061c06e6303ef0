"""Write-ahead journal of sweep progress, for crash-safe resume.

PR 4's executor survives *worker* deaths, but a killed parent process
(OOM, Ctrl-C, a preempted CI runner) still loses every completed row.
The journal closes that gap: :func:`~repro.parallel.executor.run_tasks`
appends one fsync'd, checksummed JSONL record per row attempt, result,
and quarantine, so a restarted sweep (``--journal PATH --resume``) can
prove which rows already finished and skip exactly those.

Record format (one JSON object per line)::

    {"type": "header", "format": "repro-sweep-journal", "version": 1,
     "crc": "..."}
    {"type": "attempt", "key": "table4:...", "config": "<hash>",
     "attempt": 1, "crc": "..."}
    {"type": "result",  "key": "...", "config": "<hash>",
     "status": "ok", "payload": "<base64 pickle of TaskResult>",
     "crc": "..."}
    {"type": "failure", "key": "...", "config": "<hash>",
     "status": "timeout", "attempts": 3, "error": "...", "crc": "..."}

``config`` is :func:`config_hash` — a digest of the task's *complete*
description (kind, name, frozen options) — so a journaled row is only
reused when the restarted sweep asks for the identical computation; a
stale hash (same key, different options) is re-run with a warning.
``crc`` is a BLAKE2b digest of the record's canonical JSON without the
``crc`` field itself.

Durability: every append is flushed and ``fsync``'d before the row's
outcome is reported to the caller, and each record is a single
``write`` of one complete line, so the only possible damage from a
kill is a *torn tail* — a partial final line.  On open, the journal
scans forward record by record; at the first undecodable or
checksum-failing line it copies the damaged remainder to ``<path>.bad``
(same idiom as :meth:`~repro.parallel.costs.CostModel.load`), truncates
the journal back to the last valid record, and warns.  Everything
before the tear remains trustworthy — that is the write-ahead
invariant.

Resume semantics (see :func:`Journal.resumable`): only *result* records
count — a journaled attempt without a result means the row was in
flight when the process died, and a journaled failure means it was
quarantined; both re-run.  Replayed :class:`TaskResult`s re-enter the
report, the stats aggregation, and the cost model exactly as if
computed fresh, with ``rows_resumed`` counting them in the v4 stats
schema.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
import warnings
from pathlib import Path
from typing import Any

from repro.errors import JournalError
from repro.parallel.tasks import RowTask, TaskResult

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "Journal",
    "RESUMABLE_STATUSES",
    "compact_journal",
    "config_hash",
    "decode_record_line",
    "decode_result_payload",
    "encode_record_line",
    "encode_result_payload",
    "scan_journal",
]

JOURNAL_FORMAT = "repro-sweep-journal"
JOURNAL_VERSION = 1

#: ``TaskResult.status`` values that make a journaled row resumable.
RESUMABLE_STATUSES = ("ok", "degraded", "budget_exceeded")


def config_hash(task: RowTask) -> str:
    """Digest of a task's complete description (kind, name, options).

    Two tasks share a hash iff they describe the identical computation,
    so a resumed sweep never reuses a row computed under different
    options (e.g. ``verify=False`` vs ``verify=True``) just because the
    ``kind:name`` key matches.
    """
    doc = {
        "kind": task.kind,
        "name": task.name,
        "options": [[k, repr(v)] for k, v in task.options],
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=8).hexdigest()


def _crc(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "crc"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=8).hexdigest()


def encode_record_line(record: dict) -> bytes:
    """Stamp ``crc`` and serialise one record as a complete JSONL line.

    Shared with the fabric's per-worker result segments
    (:mod:`repro.parallel.lease`), which use the journal's exact
    checksummed-line format so both sides share one torn-tail
    discipline.
    """
    record = dict(record)
    record["crc"] = _crc(record)
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_record_line(line: bytes) -> dict | None:
    """Decode one JSONL line; ``None`` for partial or corrupt lines."""
    if not line.endswith(b"\n"):
        return None  # partial final write
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    if record.get("crc") != _crc(record):
        return None
    return record


def encode_result_payload(result: TaskResult) -> str:
    """Base64 pickle of a :class:`TaskResult` (journal/segment payload)."""
    raw = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def decode_result_payload(payload: str) -> TaskResult:
    """Inverse of :func:`encode_result_payload`."""
    return pickle.loads(base64.b64decode(payload.encode("ascii")))



class Journal:
    """One sweep's write-ahead journal file (JSONL, append-only).

    Open with ``resume=True`` to recover prior records (tolerating a
    torn tail) and make completed rows available to
    :func:`resumable`; without it an existing file is started over.
    The journal must be :meth:`close`'d (or used via ``with``) so the
    underlying descriptor is released deterministically.
    """

    def __init__(self, path: str | Path, *, resume: bool = False) -> None:
        self.path = Path(path)
        self.resume = bool(resume)
        #: key -> latest valid *result* record (decoded lazily).
        self._results: dict[str, dict] = {}
        #: key -> latest valid *attempt* record (for :meth:`pending`).
        self._attempts: dict[str, dict] = {}
        self.records_recovered = 0
        self.tail_truncated = False
        if self.resume and self.path.exists():
            self._recover()
        else:
            self._start_fresh()
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise JournalError(f"cannot open journal {self.path}: {exc}") from exc
        if self._fh.tell() == 0:
            self._append({
                "type": "header",
                "format": JOURNAL_FORMAT,
                "version": JOURNAL_VERSION,
            })

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        fh = getattr(self, "_fh", None)
        if fh is not None and not fh.closed:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()

    # -- recovery ------------------------------------------------------

    def _start_fresh(self) -> None:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                self.path.unlink()
        except OSError as exc:
            raise JournalError(
                f"cannot initialise journal {self.path}: {exc}"
            ) from exc

    def _recover(self) -> None:
        """Replay the file; truncate a torn tail, keep a ``.bad`` copy."""
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: {exc}") from exc
        offset = 0
        good_end = 0
        first = True
        for line in io.BytesIO(raw):
            end = offset + len(line)
            record = self._decode_line(line)
            if record is None:
                # Damaged from here on: a torn final write, or worse.
                self._quarantine_tail(raw[offset:])
                break
            if first:
                if (
                    record.get("type") != "header"
                    or record.get("format") != JOURNAL_FORMAT
                    or record.get("version") != JOURNAL_VERSION
                ):
                    raise JournalError(
                        f"{self.path} is not a {JOURNAL_FORMAT} v{JOURNAL_VERSION} "
                        f"journal (header: {record})"
                    )
                first = False
            elif record.get("type") == "result":
                self._results[record["key"]] = record
                self.records_recovered += 1
            elif record.get("type") == "attempt":
                self._attempts[record["key"]] = record
                self.records_recovered += 1
            else:
                self.records_recovered += 1
            offset = good_end = end
        if first and raw:
            # No single valid record — not even the header survived.
            raise JournalError(
                f"{self.path} contains no valid {JOURNAL_FORMAT} header; "
                f"refusing to resume from it (damaged tail copied to "
                f"{self.path.name}.bad)"
            )
        if good_end < len(raw):
            self.tail_truncated = True
            try:
                with open(self.path, "r+b") as fh:
                    fh.truncate(good_end)
            except OSError as exc:
                raise JournalError(
                    f"cannot truncate torn tail of {self.path}: {exc}"
                ) from exc
            warnings.warn(
                f"journal {self.path} had a torn tail "
                f"({len(raw) - good_end} byte(s) after the last valid "
                f"record); truncated, damaged bytes kept in "
                f"{self.path.name}.bad",
                stacklevel=2,
            )

    @staticmethod
    def _decode_line(line: bytes) -> dict | None:
        return decode_record_line(line)

    def _quarantine_tail(self, damaged: bytes) -> None:
        bad = self.path.with_name(self.path.name + ".bad")
        try:
            bad.write_bytes(damaged)
        except OSError:  # pragma: no cover - best effort
            pass

    # -- appends (the write-ahead side) --------------------------------

    def _append(self, record: dict) -> None:
        line = encode_record_line(record)
        try:
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path}: {exc}"
            ) from exc

    def record_attempt(self, task: RowTask, attempt: int, doc: dict | None = None) -> None:
        """Journal that an attempt of ``task`` is starting.

        ``doc`` optionally embeds a JSON description of the work itself
        (the query service stores the request's op/params there), so a
        restarted process can *re-execute* in-flight work from the
        journal alone — sweeps don't need this (the task list is
        re-derived from the CLI arguments), but a daemon's queue exists
        nowhere else.
        """
        record = {
            "type": "attempt",
            "key": task.key,
            "config": config_hash(task),
            "attempt": int(attempt),
        }
        if doc is not None:
            record["doc"] = doc
        self._append(record)

    def record_result(self, task: RowTask, result: TaskResult) -> None:
        """Journal a completed row; durable before the caller sees it."""
        self._append({
            "type": "result",
            "key": task.key,
            "config": config_hash(task),
            "status": result.status,
            "payload": encode_result_payload(result),
        })

    def record_failure(self, task: RowTask, failure: Any) -> None:
        """Journal a quarantined row (a ``TaskFailure``)."""
        self._append({
            "type": "failure",
            "key": task.key,
            "config": config_hash(task),
            "status": failure.status,
            "attempts": int(failure.attempts),
            "error": str(failure.error),
        })

    # -- resume --------------------------------------------------------

    def pending(self) -> list[dict]:
        """Attempt records with no completed result — in-flight work.

        Returns the latest recovered attempt record (including any
        embedded ``doc``) for every key that was journaled as started
        but never journaled as finished.  A killed daemon replays these
        on restart; a key with a *failure* record is also pending (the
        requester never saw the outcome, and re-running a deterministic
        failure simply re-journals it).  Order follows journal order of
        the attempts, so a drained queue re-executes in admission order.
        """
        return [
            record
            for key, record in self._attempts.items()
            if key not in self._results
        ]

    def results(self) -> dict[str, TaskResult]:
        """Decoded recovered results by key (undecodable payloads skipped).

        The service's drain/equivalence tooling reads completed work
        through this instead of re-deriving a task list for
        :meth:`resumable`.
        """
        out: dict[str, TaskResult] = {}
        for key, record in self._results.items():
            try:
                out[key] = decode_result_payload(record["payload"])
            except Exception:
                continue
        return out

    def resumable(self, tasks: list[RowTask]) -> dict[int, TaskResult]:
        """Map task index -> replayed :class:`TaskResult` for done rows.

        A row resumes only when a valid *result* record exists for its
        key **and** the config hash matches the task exactly; a stale
        hash (same key, changed options) warns and re-runs, as does a
        result payload that no longer unpickles.
        """
        out: dict[int, TaskResult] = {}
        for i, task in enumerate(tasks):
            record = self._results.get(task.key)
            if record is None:
                continue
            if record.get("config") != config_hash(task):
                warnings.warn(
                    f"journal {self.path}: row {task.key} was journaled "
                    f"under a different configuration; re-running it",
                    stacklevel=2,
                )
                continue
            if record.get("status") not in RESUMABLE_STATUSES:
                continue
            try:
                result = decode_result_payload(record["payload"])
            except Exception:
                warnings.warn(
                    f"journal {self.path}: result payload for {task.key} "
                    f"could not be decoded; re-running it",
                    stacklevel=2,
                )
                continue
            out[i] = result
        return out


def scan_journal(path: str | Path) -> list[dict]:
    """Read a journal's valid records without mutating the file.

    Unlike ``Journal(path, resume=True)`` this never truncates a torn
    tail or writes a ``.bad`` sidecar — it simply stops at the first
    undecodable line.  ``repro sweep --status`` and
    :func:`compact_journal` use it so inspection is always safe to run
    against a journal another process is appending to.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: list[dict] = []
    for line in io.BytesIO(raw):
        record = decode_record_line(line)
        if record is None:
            break
        records.append(record)
    if not records or records[0].get("format") != JOURNAL_FORMAT:
        raise JournalError(
            f"{path} is not a {JOURNAL_FORMAT} v{JOURNAL_VERSION} journal"
        )
    return records


def compact_journal(path: str | Path) -> tuple[int, int]:
    """Rewrite a journal to the latest result/failure per row.

    Long-lived fabric ledgers accumulate attempt records and superseded
    results across resumes; compaction rewrites the file keeping only
    the header and, per key, the *latest* result record (or, for keys
    with no result at all, the latest failure record).  Attempt records
    are dropped entirely — a compacted journal is a statement of
    completed work, and resume re-runs anything without a result
    anyway.  The original file is preserved as ``<path>.old`` and the
    replacement is atomic, so a crash mid-compaction loses nothing.

    Returns ``(records_before, records_after)`` counting non-header
    records.
    """
    path = Path(path)
    records = scan_journal(path)
    results: dict[str, dict] = {}
    failures: dict[str, dict] = {}
    before = 0
    for record in records[1:]:
        before += 1
        kind = record.get("type")
        key = record.get("key")
        if not isinstance(key, str):
            continue
        if kind == "result":
            results[key] = record
            failures.pop(key, None)
        elif kind == "failure" and key not in results:
            failures[key] = record
    kept = list(results.values()) + list(failures.values())
    tmp = path.with_name(path.name + ".compact.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(encode_record_line({
                "type": "header",
                "format": JOURNAL_FORMAT,
                "version": JOURNAL_VERSION,
            }))
            for record in kept:
                handle.write(encode_record_line(
                    {k: v for k, v in record.items() if k != "crc"}
                ))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(path, path.with_name(path.name + ".old"))
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise JournalError(f"cannot compact journal {path}: {exc}") from exc
    return before, len(kept)
