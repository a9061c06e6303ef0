"""Failure-matrix tests for the fault-tolerant executor.

Faults are injected deterministically through ``REPRO_FAULT_INJECT``
(see :mod:`repro._faults`): worker crashes (that one worker restarts,
only its row is charged), hangs hitting the row deadline (that one
worker is terminated and restarted), unpicklable results (the worker
dies on the reply; the final attempt runs in-process), and plain
exceptions (retry then quarantine).  Throughout, the invariant is that
``run_tasks`` never loses a row: ``len(results) + len(failures) ==
len(tasks)``, and it never raises for a row failure.
"""

import multiprocessing
import os

import pytest

from repro._faults import parse_spec
from repro.bdd import stats
from repro.errors import FaultInjected
from repro.parallel import (
    CostModel,
    execute_task,
    run_tasks,
    scan_journal,
    table4_task,
    table5_task,
)
from repro.parallel.executor import RowBook

ROWS = [table4_task("3-5 RNS"), table4_task("3-7 RNS"), table5_task("3-5 RNS")]


def _outcome_keys(report):
    return sorted(
        [r.key for r in report.results] + [f.key for f in report.failures]
    )


@pytest.fixture
def fault_env(monkeypatch, tmp_path):
    """Configure injection for one test; always cleaned up."""

    def configure(spec, *, hang_s=None, state=True):
        monkeypatch.setenv("REPRO_FAULT_INJECT", spec)
        if state:
            monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fault-state"))
            (tmp_path / "fault-state").mkdir(exist_ok=True)
        if hang_s is not None:
            monkeypatch.setenv("REPRO_FAULT_HANG_S", str(hang_s))

    return configure


class TestSpecParsing:
    def test_modes_keys_counts(self):
        spec = "crash=table4:foo;hang=table5:a b@2; raise = t6:x "
        assert parse_spec(spec) == [
            ("crash", "table4:foo", None),
            ("hang", "table5:a b", 2),
            ("raise", "t6:x", None),
        ]

    def test_garbage_entries_skipped(self):
        assert parse_spec(";;no-equals;=;") == [("", "", None)]

    def test_empty(self):
        assert parse_spec("") == []


class TestInjectedExceptions:
    def test_raise_fires_in_process(self, fault_env, monkeypatch):
        fault_env("raise=table4:3-5 RNS", state=False)
        monkeypatch.delenv("REPRO_FAULT_PARENT", raising=False)
        with pytest.raises(FaultInjected):
            execute_task(table4_task("3-5 RNS"))

    def test_exhausted_retries_quarantine(self, fault_env):
        fault_env("raise=table4:3-5 RNS", state=False)
        report = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), retries=1, backoff_s=0.01
        )
        assert len(report.results) == 2
        (failure,) = report.failures
        assert failure.key == "table4:3-5 RNS"
        assert failure.status == "failed"
        assert failure.attempts == 2
        assert "FaultInjected" in failure.error
        assert failure.traceback_digest
        assert report.retries == 1

    def test_count_limited_fault_recovers(self, fault_env):
        # Fires once, then the retry succeeds: no quarantine, one retry.
        fault_env("raise=table4:3-5 RNS@1")
        report = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), retries=2, backoff_s=0.01
        )
        assert not report.failures
        assert len(report.results) == len(ROWS)
        assert report.retries == 1


class TestCrashMidSweep:
    def test_crash_rebuilds_pool_and_retry_succeeds(self, fault_env):
        # The crash kills one worker, which is restarted; the
        # count-limited fault does not fire again.
        fault_env("crash=table4:3-5 RNS@1")
        report = run_tasks(
            ROWS, jobs=2, cost_model=CostModel(), retries=2, backoff_s=0.01
        )
        assert not report.failures
        assert sorted(r.key for r in report.results) == sorted(t.key for t in ROWS)
        assert report.retries >= 1  # at least the crashed row was charged
        assert report.stats_totals["rows_completed"] == len(ROWS)

    def test_crash_charges_only_its_row_to_its_worker(self, fault_env):
        # One death costs one retry, booked to the pid of the worker
        # that died — not to every row in flight, and not to "parent".
        fault_env("crash=table4:3-5 RNS@1")
        report = run_tasks(
            ROWS, jobs=2, cost_model=CostModel(), retries=2, backoff_s=0.01
        )
        assert not report.failures
        assert report.retries == 1
        charged = {
            who: usage.failures
            for who, usage in report.workers.items()
            if usage.failures
        }
        assert "parent" not in charged
        ((who, count),) = charged.items()
        assert count == 1
        assert int(who) != os.getpid()

    def test_persistent_crash_quarantines_row_only(self, fault_env):
        fault_env("crash=table4:3-5 RNS", state=False)
        report = run_tasks(
            ROWS, jobs=2, cost_model=CostModel(), retries=1, backoff_s=0.01
        )
        # Non-faulted rows complete even though a worker died mid-sweep.
        assert sorted(r.key for r in report.results) == [
            "table4:3-7 RNS",
            "table5:3-5 RNS",
        ]
        (failure,) = report.failures
        assert failure.key == "table4:3-5 RNS"
        # Last attempt ran in-process, where the crash degrades to a
        # FaultInjected raise — so the terminal status is "failed".
        assert failure.status == "failed"
        assert failure.attempts == 2

    def test_no_silent_row_loss(self, fault_env):
        # Regression: the executor must account for every submitted
        # task even when workers die; no row may silently vanish.
        fault_env("crash=table4:3-5 RNS", state=False)
        report = run_tasks(
            ROWS, jobs=2, cost_model=CostModel(), retries=0, backoff_s=0.01
        )
        assert len(report.results) + len(report.failures) == len(ROWS)
        assert _outcome_keys(report) == sorted(t.key for t in ROWS)


class TestHangAndDeadline:
    def test_hang_hits_deadline_and_quarantines(self, fault_env):
        fault_env("hang=table4:3-5 RNS", hang_s=600, state=False)
        report = run_tasks(
            ROWS,
            jobs=2,
            cost_model=CostModel(),
            timeout=3.0,
            retries=0,
            backoff_s=0.01,
        )
        (failure,) = report.failures
        assert failure.key == "table4:3-5 RNS"
        assert failure.status == "timeout"
        assert failure.attempts == 1
        assert failure.elapsed_s >= 3.0
        # Only the hung row's worker was stopped; the others completed.
        assert sorted(r.key for r in report.results) == [
            "table4:3-7 RNS",
            "table5:3-5 RNS",
        ]
        assert report.retries == 0

    def test_deadline_stops_only_the_hung_worker(
        self, fault_env, monkeypatch, tmp_path
    ):
        # The second worker runs two 1.5 s rows back to back; the hung
        # row's 2.25 s deadline fires while the second one runs.  Only
        # the hung worker is stopped, so that row finishes on its first
        # attempt instead of starting over.
        fault_env(
            "hang=table4:3-5 RNS;slow=table5:3-5 RNS;slow=table4:3-7 RNS",
            hang_s=600,
            state=False,
        )
        monkeypatch.setenv("REPRO_FAULT_SLOW_S", "1.5")
        journal = tmp_path / "sweep.jsonl"
        longest_first = CostModel(
            {"table4:3-5 RNS": 3.0, "table5:3-5 RNS": 2.0, "table4:3-7 RNS": 1.0}
        )
        report = run_tasks(
            ROWS,
            jobs=2,
            cost_model=longest_first,
            timeout=2.25,
            retries=0,
            journal=journal,
        )
        (failure,) = report.failures
        assert failure.key == "table4:3-5 RNS"
        assert failure.status == "timeout"
        attempts = [
            r["key"] for r in scan_journal(journal) if r.get("type") == "attempt"
        ]
        assert sorted(attempts) == sorted(t.key for t in ROWS)

    def test_interrupt_stops_every_worker(self, monkeypatch):
        def interrupt(book, i, result):
            raise KeyboardInterrupt

        monkeypatch.setattr(RowBook, "result", interrupt)
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(KeyboardInterrupt):
            run_tasks(ROWS, jobs=2, cost_model=CostModel(), retries=0)
        assert {p.pid for p in multiprocessing.active_children()} <= before

    def test_inline_deadline_at_jobs_1(self, fault_env):
        fault_env("hang=table4:3-5 RNS", hang_s=600, state=False)
        # In the parent the hang degrades to a raise, so this exercises
        # the jobs=1 retry loop, not the cooperative deadline itself.
        report = run_tasks(
            [table4_task("3-5 RNS")],
            jobs=1,
            cost_model=CostModel(),
            timeout=2.0,
            retries=0,
            backoff_s=0.01,
        )
        assert len(report.failures) == 1


class TestPickleFallback:
    def test_final_attempt_runs_in_process(self, fault_env):
        # The worker computes the row but cannot ship it back, which
        # ends the worker; the final attempt runs in the parent, where
        # nothing is pickled.
        fault_env("pickle=table4:3-5 RNS", state=False)
        report = run_tasks(
            [table4_task("3-5 RNS"), table4_task("3-7 RNS")],
            jobs=2,
            cost_model=CostModel(),
            retries=1,
            backoff_s=0.01,
        )
        assert not report.failures
        assert sorted(r.key for r in report.results) == [
            "table4:3-5 RNS",
            "table4:3-7 RNS",
        ]
        assert report.retries == 1


    def test_registry_counts_a_parent_rescued_row_once(self, fault_env):
        # The rescued row ran here, so its counters are in this
        # process's registry already; only worker rows are merged.
        fault_env("pickle=table4:3-5 RNS", state=False)
        before = stats.snapshot()
        report = run_tasks(
            [table4_task("3-5 RNS"), table4_task("3-7 RNS")],
            jobs=2,
            cost_model=CostModel(),
            retries=1,
            backoff_s=0.01,
        )
        after = stats.snapshot()
        assert not report.failures
        assert report.stats_totals["op_calls"] > 0
        for key in stats.ADDITIVE_KEYS:
            assert after[key] - before[key] == report.stats_totals[key], key


class TestPartialAggregation:
    def test_completed_rows_match_clean_sequential_totals(self, fault_env):
        fault_env("crash=table4:3-5 RNS@1")
        faulty = run_tasks(
            ROWS,
            jobs=2,
            cost_model=CostModel(),
            retries=2,
            backoff_s=0.01,
            merge_stats=False,
        )
        assert not faulty.failures

    def test_totals_additive_over_completed_rows(self, fault_env, monkeypatch):
        # One row quarantined: the remaining rows' additive totals must
        # equal a clean jobs=1 sweep over exactly those rows.
        fault_env("raise=table4:3-5 RNS", state=False)
        faulty = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), retries=0, backoff_s=0.01
        )
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        survivors = [t for t in ROWS if t.key != "table4:3-5 RNS"]
        clean = run_tasks(survivors, jobs=1, cost_model=CostModel())
        for key in stats.ADDITIVE_KEYS:
            assert faulty.stats_totals[key] == clean.stats_totals[key]
        assert faulty.stats_totals["rows_failed"] == 1
        assert clean.stats_totals["rows_failed"] == 0

    def test_failures_and_status_in_record(self, fault_env):
        fault_env("raise=table4:3-5 RNS", state=False)
        report = run_tasks(
            ROWS, jobs=1, cost_model=CostModel(), retries=0, backoff_s=0.01
        )
        record = report.to_record()
        assert record["failures"][0]["key"] == "table4:3-5 RNS"
        assert record["failures"][0]["status"] == "failed"
        assert record["stats_totals"]["rows_failed"] == 1
        assert set(record["row_status"].values()) == {"ok"}


class TestBudgetRows:
    def test_node_limit_row_reports_budget_exceeded(self):
        report = run_tasks(
            [table4_task("3-5 RNS", node_limit=50), table4_task("3-7 RNS")],
            jobs=1,
            cost_model=CostModel(),
            retries=0,
        )
        assert not report.failures  # a budget row is an answer, not a crash
        by_key = {r.key: r for r in report.results}
        limited = by_key["table4:3-5 RNS"]
        assert limited.status == "budget_exceeded"
        assert limited.result is None
        assert "node budget" in limited.error
        assert by_key["table4:3-7 RNS"].status == "ok"
        # Budget rows are excluded from .rows but counted as degraded.
        assert len(report.rows) == 1
        assert report.stats_totals["rows_degraded"] == 1

    def test_node_limit_row_in_worker_process(self):
        report = run_tasks(
            [table4_task("3-5 RNS", node_limit=50), table4_task("3-7 RNS")],
            jobs=2,
            cost_model=CostModel(),
            retries=0,
        )
        by_key = {r.key: r for r in report.results}
        assert by_key["table4:3-5 RNS"].status == "budget_exceeded"
        assert by_key["table4:3-7 RNS"].status == "ok"

    def test_generous_limit_unaffected(self):
        bounded = run_tasks(
            [table4_task("3-5 RNS", node_limit=10_000_000)],
            jobs=1,
            cost_model=CostModel(),
        )
        (result,) = bounded.results
        assert result.status == "ok"
        assert result.result is not None
