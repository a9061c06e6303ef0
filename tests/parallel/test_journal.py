"""Kill-resume equivalence tests for the sweep journal.

The contract under test: a sweep killed at *any* point (simulated with
the ``abort`` fault mode, which ``os._exit``s even in the parent) can
be restarted with ``resume=True`` and produces a report equivalent to
an uninterrupted run — same row fingerprints, same additive engine
totals — without re-executing the journaled rows.  A torn final record
(the only damage an fsync'd append-only file can take) is truncated on
open with the damaged bytes kept in ``<journal>.bad``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.bdd import stats
from repro.errors import JournalError, ReproError
from repro.parallel import (
    CostModel,
    run_tasks,
    table4_task,
    table5_task,
)
from repro.parallel.journal import (
    JOURNAL_FORMAT,
    RESUMABLE_STATUSES,
    Journal,
    config_hash,
)
from repro.parallel.tasks import execute_task, row_fingerprint

ROWS = [table4_task("3-5 RNS"), table4_task("3-7 RNS"), table5_task("3-5 RNS")]

REPO_ROOT = Path(__file__).resolve().parents[2]


def read_records(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class TestConfigHash:
    def test_stable_for_equal_tasks(self):
        assert config_hash(table4_task("3-5 RNS")) == config_hash(
            table4_task("3-5 RNS")
        )

    def test_differs_for_options(self):
        assert config_hash(table4_task("3-5 RNS")) != config_hash(
            table4_task("3-5 RNS", verify=True)
        )

    def test_differs_for_name(self):
        assert config_hash(table4_task("3-5 RNS")) != config_hash(
            table4_task("3-7 RNS")
        )


class TestJournalFile:
    def test_fresh_journal_has_checksummed_header(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with Journal(path):
            pass
        (header,) = read_records(path)
        assert header["type"] == "header"
        assert header["format"] == JOURNAL_FORMAT
        assert "crc" in header

    def test_records_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        task = ROWS[0]
        result = execute_task(task)
        with Journal(path) as journal:
            journal.record_attempt(task, 1)
            journal.record_result(task, result)
        with Journal(path, resume=True) as journal:
            replayed = journal.resumable([task])
        assert list(replayed) == [0]
        assert replayed[0].key == task.key
        assert row_fingerprint(replayed[0].result) == row_fingerprint(result.result)

    def test_attempt_without_result_reruns(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with Journal(path) as journal:
            journal.record_attempt(ROWS[0], 1)
        with Journal(path, resume=True) as journal:
            assert journal.resumable(ROWS) == {}

    def test_config_mismatch_warns_and_reruns(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        task = ROWS[0]
        with Journal(path) as journal:
            journal.record_result(task, execute_task(task))
        changed = table4_task("3-5 RNS", verify=True)
        with Journal(path, resume=True) as journal:
            with pytest.warns(UserWarning, match="different configuration"):
                assert journal.resumable([changed]) == {}

    def test_torn_tail_truncated_and_quarantined(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        task = ROWS[0]
        with Journal(path) as journal:
            journal.record_result(task, execute_task(task))
        intact = path.read_bytes()
        # Simulate a kill mid-append: a partial record with no newline.
        path.write_bytes(intact + b'{"type":"result","key":"tab')
        with pytest.warns(UserWarning, match="torn tail"):
            with Journal(path, resume=True) as journal:
                assert journal.tail_truncated
                assert list(journal.resumable([task])) == [0]
        bad = path.with_name(path.name + ".bad")
        assert bad.read_bytes() == b'{"type":"result","key":"tab'
        # After truncation the journal is byte-identical to the intact
        # prefix plus whatever the resumed open appended (nothing here).
        assert path.read_bytes() == intact

    def test_corrupt_crc_truncates_from_there(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with Journal(path) as journal:
            journal.record_attempt(ROWS[0], 1)
            journal.record_attempt(ROWS[1], 1)
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a byte inside the second record's body; its crc fails.
        damaged = lines[1].replace(b'"attempt":1', b'"attempt":9')
        path.write_bytes(lines[0] + damaged + lines[2])
        with pytest.warns(UserWarning, match="torn tail"):
            with Journal(path, resume=True) as journal:
                # Only the header survived; both attempts are gone.
                assert journal.records_recovered == 0

    def test_no_valid_header_refuses_resume(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("this is not a journal\n")
        with pytest.raises(JournalError, match="no valid"):
            Journal(path, resume=True)

    def test_resume_false_starts_over(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with Journal(path) as journal:
            journal.record_result(ROWS[0], execute_task(ROWS[0]))
        with Journal(path) as journal:  # resume defaults to False
            assert journal.resumable(ROWS) == {}
        (header,) = read_records(path)
        assert header["type"] == "header"


class TestRunTasksResume:
    def test_resume_requires_journal(self):
        with pytest.raises(ReproError, match="requires a journal"):
            run_tasks(ROWS, jobs=1, resume=True)

    def test_full_then_resume_skips_everything(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = run_tasks(ROWS, jobs=1, cost_model=CostModel(), journal=path)
        assert first.rows_resumed == 0
        assert first.journal_path == str(path)
        resumed = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), journal=path, resume=True
        )
        assert resumed.rows_resumed == len(ROWS)
        assert resumed.stats_totals["rows_resumed"] == len(ROWS)
        assert not resumed.failures
        assert [row_fingerprint(r) for r in resumed.rows] == [
            row_fingerprint(r) for r in first.rows
        ]
        for key in stats.ADDITIVE_KEYS:
            assert resumed.stats_totals[key] == first.stats_totals[key]
        # The resumed run journaled nothing new: no attempt record for
        # any row may follow the first run's records.
        attempts = [r for r in read_records(path) if r["type"] == "attempt"]
        assert len(attempts) == len(ROWS)

    def test_resume_skips_pool_dispatch_at_jobs_n(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_tasks(ROWS, jobs=1, cost_model=CostModel(), journal=path)
        resumed = run_tasks(
            ROWS, jobs=2, cost_model=CostModel(), journal=path, resume=True
        )
        assert resumed.rows_resumed == len(ROWS)
        assert len(resumed.results) == len(ROWS)
        # Schedule still lists every row (resumed rows keep their slot).
        assert sorted(resumed.schedule) == sorted(t.key for t in ROWS)

    def test_journal_records_failures(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise=table4:3-5 RNS")
        report = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), retries=0,
            backoff_s=0.01, journal=path,
        )
        assert len(report.failures) == 1
        failures = [r for r in read_records(path) if r["type"] == "failure"]
        assert failures[0]["key"] == "table4:3-5 RNS"
        assert failures[0]["status"] == "failed"
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        # The quarantined row re-runs on resume; the journaled rows don't.
        resumed = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), journal=path, resume=True
        )
        assert resumed.rows_resumed == 2
        assert not resumed.failures
        assert len(resumed.results) == len(ROWS)


KILL_SCRIPT = """\
import sys
from repro.parallel import CostModel, run_tasks, table4_task, table5_task

ROWS = [table4_task("3-5 RNS"), table4_task("3-7 RNS"), table5_task("3-5 RNS")]
run_tasks(ROWS, jobs=1, cost_model=CostModel(), journal=sys.argv[1])
"""


class TestKillResumeEquivalence:
    """The acceptance scenario: kill a sweep mid-run, resume, compare."""

    def run_killed_sweep(self, tmp_path, abort_key: str) -> Path:
        journal = tmp_path / "sweep.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_FAULT_INJECT"] = f"abort={abort_key}"
        env.pop("REPRO_FAULT_PARENT", None)
        proc = subprocess.run(
            [sys.executable, "-c", KILL_SCRIPT, str(journal)],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 32, proc.stderr  # died by os._exit(32)
        return journal

    def test_killed_sweep_resumes_without_recompute(self, tmp_path):
        # jobs=1 executes in submission order, so aborting the last row
        # guarantees the first two rows were journaled before the kill.
        journal = self.run_killed_sweep(tmp_path, "table5:3-5 RNS")
        records = read_records(journal)
        done = {r["key"] for r in records if r["type"] == "result"}
        assert done == {"table4:3-5 RNS", "table4:3-7 RNS"}

        resumed = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), journal=journal, resume=True
        )
        assert resumed.rows_resumed == 2
        assert not resumed.failures
        assert len(resumed.results) == len(ROWS)
        # No journaled row was re-attempted: exactly one new attempt
        # record (the killed row) follows the pre-kill records.
        new_attempts = [
            r for r in read_records(journal) if r["type"] == "attempt"
        ][len([r for r in records if r["type"] == "attempt"]):]
        assert [r["key"] for r in new_attempts] == ["table5:3-5 RNS"]

        clean = run_tasks(ROWS, jobs=1, cost_model=CostModel())
        assert [row_fingerprint(r) for r in resumed.rows] == [
            row_fingerprint(r) for r in clean.rows
        ]
        for key in stats.ADDITIVE_KEYS:
            assert resumed.stats_totals[key] == clean.stats_totals[key]

    def test_kill_on_first_row_resumes_zero(self, tmp_path):
        journal = self.run_killed_sweep(tmp_path, "table4:3-5 RNS")
        resumed = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), journal=journal, resume=True
        )
        assert resumed.rows_resumed == 0
        assert not resumed.failures
        assert len(resumed.results) == len(ROWS)


class TestResumableStatuses:
    def test_budget_exceeded_rows_resume(self, tmp_path):
        # A budget row is an answer, not a crash: journaled and replayed.
        assert "budget_exceeded" in RESUMABLE_STATUSES
        path = tmp_path / "sweep.jsonl"
        tasks = [table4_task("3-5 RNS", node_limit=50)]
        first = run_tasks(tasks, jobs=1, cost_model=CostModel(), journal=path)
        assert first.results[0].status == "budget_exceeded"
        resumed = run_tasks(
            tasks, jobs=1, cost_model=CostModel(), journal=path, resume=True
        )
        assert resumed.rows_resumed == 1
        assert resumed.results[0].status == "budget_exceeded"

class TestCompaction:
    def test_latest_result_wins_and_attempts_drop(self, tmp_path):
        from repro.parallel import compact_journal

        path = tmp_path / "sweep.jsonl"
        task = ROWS[0]
        first = execute_task(task)
        second = execute_task(task)
        with Journal(path) as journal:
            journal.record_attempt(task, 1)
            journal.record_result(task, first)
            journal.record_attempt(task, 2)  # a later resume re-observed it
            journal.record_result(task, second)
        original = path.read_bytes()
        before, after = compact_journal(path)
        assert (before, after) == (4, 1)
        records = read_records(path)
        assert [r["type"] for r in records] == ["header", "result"]
        # The original is preserved untouched as .old.
        assert path.with_name(path.name + ".old").read_bytes() == original
        # The compacted journal still resumes the row.
        with Journal(path, resume=True) as journal:
            assert list(journal.resumable([task])) == [0]

    def test_failure_superseded_by_result(self, tmp_path):
        from repro.parallel import compact_journal
        from repro.parallel.executor import TaskFailure

        path = tmp_path / "sweep.jsonl"
        done, lost = ROWS[0], ROWS[1]
        with Journal(path) as journal:
            journal.record_failure(
                done,
                TaskFailure(key=done.key, status="crashed", attempts=3, error="boom"),
            )
            journal.record_result(done, execute_task(done))
            # A key with no result at all keeps its failure record.
            journal.record_failure(
                lost,
                TaskFailure(key=lost.key, status="timeout", attempts=2, error="slow"),
            )
        before, after = compact_journal(path)
        assert (before, after) == (3, 2)
        kinds = {r["key"]: r["type"] for r in read_records(path)[1:]}
        assert kinds == {done.key: "result", lost.key: "failure"}

    def test_refuses_non_journal(self, tmp_path):
        from repro.parallel import compact_journal

        path = tmp_path / "sweep.jsonl"
        path.write_text("nope\n")
        with pytest.raises(JournalError):
            compact_journal(path)

    def test_cli_journal_compact(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sweep.jsonl"
        task = ROWS[0]
        with Journal(path) as journal:
            journal.record_attempt(task, 1)
            journal.record_result(task, execute_task(task))
        assert main(["journal", "compact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 -> 1 record(s)" in out
        assert path.with_name(path.name + ".old").exists()
        assert main(["journal", "compact", str(tmp_path / "missing.jsonl")]) == 1
