"""Fabric coordinator/worker tests: equivalence under machine loss.

The acceptance gate of the distributed sweep fabric: N elastic workers
with arbitrary kills — a worker dying mid-row, a paused worker
committing after it was fenced, the coordinator SIGKILL'd and resumed —
produce ``len(results) + len(failures) == len(tasks)``, totals and row
fingerprints equal to an uninterrupted ``jobs=1`` run, and zero
double-counted rows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bdd import stats
from repro.errors import ReproError
from repro.parallel import (
    fabric_status,
    run_fabric,
    run_tasks,
    table4_task,
    table5_task,
)
from repro.parallel.fabric import (
    load_tasks_file,
    run_worker,
    seed_tasks,
    task_from_doc,
)
from repro.parallel.journal import (
    Journal,
    config_hash,
    encode_result_payload,
    scan_journal,
)
from repro.parallel.lease import LeaseLedger
from repro.parallel.tasks import execute_task, row_fingerprint

TASKS = [table4_task("3-5 RNS"), table5_task("3-5 RNS")]

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def executed():
    """One in-process execution per row, for crafting ledger records."""
    return {t.key: execute_task(t) for t in TASKS}


class TestTaskSeeding:
    def test_round_trip_preserves_config_hash(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        seed_tasks(path, TASKS, [1, 0], lease_ttl=7.5)
        header, docs = load_tasks_file(path)
        assert header["lease_ttl"] == 7.5
        assert header["rows"] == len(TASKS)
        # Seeded in the given (LPT) order.
        assert [d["key"] for d in docs] == [TASKS[1].key, TASKS[0].key]
        for doc in docs:
            task = task_from_doc(doc)
            assert config_hash(task) == doc["config"]

    def test_corrupt_doc_refused(self):
        doc = {
            "kind": "table4",
            "name": "3-5 RNS",
            "options": [["verify", True]],
            "key": "table4:3-5 RNS",
            "config": "0000000000000000",
        }
        with pytest.raises(ReproError, match="round-trip"):
            task_from_doc(doc)

    def test_not_a_tasks_file(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ReproError, match="repro-fabric-tasks"):
            load_tasks_file(path)


class TestFabricEquivalence:
    def test_local_fabric_matches_jobs1(self, tmp_path):
        report = run_fabric(TASKS, tmp_path / "fab", lease_ttl=5.0, poll_s=0.02)
        baseline = run_tasks(TASKS, jobs=1)
        assert len(report.results) + len(report.failures) == len(TASKS)
        assert not report.failures
        fabric_fps = {r.key: row_fingerprint(r.result) for r in report.results}
        base_fps = {r.key: row_fingerprint(r.result) for r in baseline.results}
        assert fabric_fps == base_fps
        for key in (*stats.ADDITIVE_KEYS, "rows_completed"):
            assert report.stats_totals[key] == baseline.stats_totals[key], key
        # Every row's lease is observed even when the row completes
        # within one poll interval (observed at acceptance).
        assert report.fabric["leases_granted"] == len(TASKS)
        assert report.fabric["results_stale"] == 0
        assert report.fabric["results_duplicate"] == 0
        # Results land in submission order, like the executor.
        assert [r.key for r in report.results] == [t.key for t in TASKS]

    def test_journal_carries_the_rows(self, tmp_path):
        root = tmp_path / "fab"
        run_fabric(TASKS, root, poll_s=0.02)
        records = scan_journal(root / "journal.jsonl")
        done = {r["key"] for r in records if r.get("type") == "result"}
        assert done == {t.key for t in TASKS}


class TestFencingRejection:
    """First-valid-result-wins: stale and duplicate commits never merge."""

    def test_stale_and_duplicate_results_rejected(self, tmp_path, executed):
        root = tmp_path / "fab"
        ledger = LeaseLedger(root)
        ledger.ensure_dirs()
        t0, t1 = TASKS
        c0, c1 = config_hash(t0), config_hash(t1)
        # Row 0's first holder was paused past its TTL and fenced; a
        # second execution committed under the new epoch — twice (a
        # retried segment append).  Segments are read in sorted name
        # order, so the zombie's old-epoch commit is seen first and must
        # be rejected as stale; the second epoch-1 commit is a
        # duplicate of the first.
        ledger.fence(c0)
        payload0 = encode_result_payload(executed[t0.key])
        ledger.append_result(
            "a-zombie", c0, t0.key, 0, payload0, status="ok"
        )
        ledger.append_result("b-good", c0, t0.key, 1, payload0, status="ok")
        ledger.append_result("b-good", c0, t0.key, 1, payload0, status="ok")
        ledger.append_result(
            "b-good", c1, t1.key, 0,
            encode_result_payload(executed[t1.key]), status="ok",
        )
        report = run_fabric(
            TASKS, root, resume=True, local_work=False, poll_s=0.02
        )
        assert len(report.results) == len(TASKS)
        assert not report.failures
        # Exactly one accepted result per row — zero double-counting.
        assert sorted(r.key for r in report.results) == sorted(
            t.key for t in TASKS
        )
        assert report.fabric["results_stale"] == 1
        assert report.fabric["results_duplicate"] == 1

    def test_undecodable_payload_charges_an_attempt(self, tmp_path, executed):
        root = tmp_path / "fab"
        ledger = LeaseLedger(root)
        ledger.ensure_dirs()
        t0, t1 = TASKS
        c0, c1 = config_hash(t0), config_hash(t1)
        ledger.append_result("w", c0, t0.key, 0, "bm90LWEtcGlja2xl", status="ok")
        ledger.append_result(
            "w", c1, t1.key, 0,
            encode_result_payload(executed[t1.key]), status="ok",
        )
        report = run_fabric(
            TASKS, root, resume=True, local_work=False, retries=0,
            poll_s=0.02,
        )
        assert len(report.results) + len(report.failures) == len(TASKS)
        (failure,) = report.failures
        assert failure.key == t0.key
        assert "undecodable" in failure.error


class TestResumedCoordinator:
    """A resumed coordinator re-reads every segment from offset 0, so
    the record its predecessor accepted comes by again; that record is
    not a duplicate, but a second valid record at its epoch is."""

    def _killed_after_row0(self, root, executed):
        # The predecessor accepted and journaled row 0, then died before
        # row 1's record (already in the segment) was read.
        ledger = LeaseLedger(root)
        ledger.ensure_dirs()
        for task in TASKS:
            ledger.append_result(
                "local-1", config_hash(task), task.key, 0,
                encode_result_payload(executed[task.key]), status="ok",
            )
        with Journal(root / "journal.jsonl") as journal:
            journal.record_attempt(TASKS[0], 1)
            journal.record_result(TASKS[0], executed[TASKS[0].key])
        return ledger

    def test_predecessor_accepted_record_is_not_a_duplicate(
        self, tmp_path, executed
    ):
        root = tmp_path / "fab"
        self._killed_after_row0(root, executed)
        report = run_fabric(
            TASKS, root, resume=True, local_work=False, poll_s=0.02
        )
        assert [r.key for r in report.results] == [t.key for t in TASKS]
        assert report.rows_resumed == 1
        assert report.fabric["results_duplicate"] == 0
        assert report.fabric["results_stale"] == 0

    def test_second_record_at_a_resumed_rows_epoch_is_a_duplicate(
        self, tmp_path, executed
    ):
        root = tmp_path / "fab"
        ledger = self._killed_after_row0(root, executed)
        t0 = TASKS[0]
        ledger.append_result(
            "local-2", config_hash(t0), t0.key, 0,
            encode_result_payload(executed[t0.key]), status="ok",
        )
        report = run_fabric(
            TASKS, root, resume=True, local_work=False, poll_s=0.02
        )
        assert len(report.results) == len(TASKS)
        assert report.rows_resumed == 1
        assert report.fabric["results_duplicate"] == 1


class TestWorkerLoss:
    def test_expired_lease_is_retried_by_another_worker(self, tmp_path):
        root = tmp_path / "fab"
        ledger = LeaseLedger(root, lease_ttl=1.0)
        ledger.ensure_dirs()
        # A worker leased row 0 and its machine vanished — no result,
        # no heartbeats, lease file left behind.
        ledger.acquire(config_hash(TASKS[0]), TASKS[0].key, "ghost")
        report = run_fabric(
            TASKS, root, lease_ttl=1.0, resume=True, local_work=True,
            retries=2, poll_s=0.02, ledger=ledger,
        )
        assert len(report.results) == len(TASKS)
        assert not report.failures
        assert report.fabric["leases_expired"] >= 1
        assert report.fabric["leases_fenced"] >= 1
        assert report.retries >= 1  # the lost worker's charged attempt

    def test_worker_lost_quarantine_after_retries(self, tmp_path, executed):
        root = tmp_path / "fab"
        ledger = LeaseLedger(root, lease_ttl=0.3)
        ledger.ensure_dirs()
        t0, t1 = TASKS
        ledger.acquire(config_hash(t0), t0.key, "ghost")
        ledger.append_result(
            "w", config_hash(t1), t1.key, 0,
            encode_result_payload(executed[t1.key]), status="ok",
        )
        report = run_fabric(
            TASKS, root, lease_ttl=0.3, resume=True, local_work=False,
            retries=0, poll_s=0.02, ledger=ledger,
        )
        assert len(report.results) + len(report.failures) == len(TASKS)
        (failure,) = report.failures
        assert failure.status == "worker-lost"
        assert failure.key == t0.key
        assert "expired" in failure.error
        assert report.fabric["leases_expired"] == 1
        # The quarantine is durable: it is journaled and visible to
        # --status without running anything.
        status = fabric_status(root)
        assert status["rows_failed"] == 1
        assert status["failed"][t0.key] == "worker-lost"


class TestRunWorker:
    def test_worker_completes_all_rows_and_exits(self, tmp_path):
        root = tmp_path / "fab"
        ledger = LeaseLedger(root)
        ledger.ensure_dirs()
        seed_tasks(root / "tasks.jsonl", TASKS, range(len(TASKS)), lease_ttl=5.0)
        # Mark everything done except row 0: the worker must execute
        # exactly the one pending row, then exit on its own.
        for task in TASKS[1:]:
            ledger.mark_done(config_hash(task), "ok")
        summary = run_worker(root, worker_id="w1", poll_s=0.02, max_idle_s=5.0)
        assert summary["leased"] == 1
        assert summary["completed"] == 1
        assert summary["failed"] == 0
        (record,) = ledger.read_new_records()
        assert record["worker"] == "w1"
        assert record["config"] == config_hash(TASKS[0])

    def test_worker_times_out_without_a_task_file(self, tmp_path):
        with pytest.raises(ReproError, match="no fabric task file"):
            run_worker(tmp_path, worker_id="w1", poll_s=0.02, max_idle_s=0.2)


class TestStatus:
    def test_journal_only_status(self, tmp_path):
        root = tmp_path / "fab"
        run_fabric(TASKS, root, poll_s=0.02)
        status = fabric_status(root / "journal.jsonl")
        assert status["rows_done"] == len(TASKS)
        assert "rows_leased" not in status  # bare journal: no ledger info

    def test_directory_status(self, tmp_path):
        root = tmp_path / "fab"
        run_fabric(TASKS, root, poll_s=0.02)
        status = fabric_status(root)
        assert status["rows_done"] == len(TASKS)
        assert status["rows_pending"] == 0
        assert status["rows_leased"] == 0
        assert status["workers"]  # the local worker heartbeated
        for info in status["workers"].values():
            assert info["heartbeat_age_s"] >= 0.0


class TestCoordinatorKillResume:
    def test_sigkilled_coordinator_resumes_to_jobs1_totals(self, tmp_path):
        """The CI fabric-smoke coordinator leg, as a test: abort the
        coordinator right after it accepts the first row, resume, and
        demand jobs=1-identical totals with no row lost or recomputed
        into the totals twice."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_FAULT_STATE"] = str(tmp_path / "state")
        (tmp_path / "state").mkdir()
        fab = tmp_path / "fab"
        args = [
            sys.executable, "-m", "repro", "sweep", "3-5 RNS",
            "--tables", "4,5", "--fabric", str(fab), "--lease-ttl", "5",
        ]
        killed = subprocess.run(
            args,
            env={**env, "REPRO_FAULT_INJECT": "abort=fabric-merge:table4:3-5 RNS@1"},
            capture_output=True, text=True, timeout=600, cwd=tmp_path,
        )
        assert killed.returncode == 32, killed.stderr
        resumed = subprocess.run(
            [*args, "--resume", "--bench-json", str(tmp_path / "resumed.json")],
            env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "3-5 RNS",
             "--tables", "4,5",
             "--bench-json", str(tmp_path / "clean.json")],
            env=env, capture_output=True, text=True, timeout=600, cwd=tmp_path,
        )
        assert clean.returncode == 0, clean.stderr
        r = json.loads((tmp_path / "resumed.json").read_text())["sweeps"]["fabric"]
        c = json.loads((tmp_path / "clean.json").read_text())["sweeps"]["jobs=1"]
        assert r["rows_resumed"] >= 1
        assert not r["failures"] and not c["failures"]
        assert len(r["row_status"]) == len(c["row_status"]) == 2
        for key in ("op_calls", "kernel_steps", "rows_completed"):
            assert r["stats_totals"][key] == c["stats_totals"][key], key
