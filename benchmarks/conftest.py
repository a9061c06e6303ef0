"""Shared infrastructure for the reproduction benchmarks.

Scale control:

* default        — representative subset of every experiment (minutes).
* REPRO_BENCH_FULL=1  — every Table 4/5 row and every configured word
  list (tens of minutes on one core).
* REPRO_FULL_SCALE=1  — additionally use the paper's word-list sizes
  1730/3366/4705 (hours; see DESIGN.md §6).
* REPRO_BENCH_JOBS=N  — run each row through the parallel executor
  (``repro.parallel``) with N worker processes; default 1 keeps the
  in-process sequential path.
* REPRO_BENCH_TIMEOUT=S / REPRO_BENCH_RETRIES=N — per-attempt row
  deadline and retry budget for those executor runs (DESIGN.md §8); a
  quarantined row fails its benchmark with the failure record.
* REPRO_BENCH_JOURNAL=PATH — write-ahead journal of executor-driven
  rows (DESIGN.md §9); REPRO_BENCH_RESUME=1 additionally skips rows
  already completed in that journal, so a killed benchmark run can be
  restarted without re-paying for finished work.

Each benchmark writes the regenerated table/figure to
``benchmarks/results/<name>.txt`` so the artefacts survive pytest's
output capture.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bdd import stats

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_PR6.json"


def bench_full() -> bool:
    """True when the full benchmark suite was requested."""
    from repro._config import env_flag

    return env_flag("REPRO_BENCH_FULL", False)


def bench_jobs() -> int:
    """Worker-process count for executor-driven rows (default 1)."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def bench_timeout() -> float | None:
    """Per-attempt row deadline (``REPRO_BENCH_TIMEOUT`` seconds)."""
    raw = os.environ.get("REPRO_BENCH_TIMEOUT", "").strip()
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def bench_retries() -> int:
    """Retry budget for executor-backed rows (``REPRO_BENCH_RETRIES``)."""
    raw = os.environ.get("REPRO_BENCH_RETRIES", "").strip()
    try:
        return max(0, int(raw))
    except ValueError:
        return 2


_BENCH_JOURNAL = None


def bench_journal():
    """Session-wide sweep journal (``REPRO_BENCH_JOURNAL``), or ``None``.

    Opened once per session — every :func:`run_row_task` call appends
    to the same journal, and with ``REPRO_BENCH_RESUME=1`` rows a
    previous (killed) benchmark run already completed are replayed
    instead of recomputed.
    """
    global _BENCH_JOURNAL
    path = os.environ.get("REPRO_BENCH_JOURNAL", "").strip()
    if not path:
        return None
    if _BENCH_JOURNAL is None:
        from repro.parallel import Journal

        from repro._config import env_flag

        resume = env_flag("REPRO_BENCH_RESUME", False)
        _BENCH_JOURNAL = Journal(path, resume=resume)
    return _BENCH_JOURNAL


def read_bench_json(path) -> dict:
    """Load a BENCH_*.json, validating its schema version.

    Raises a clear error for a file of any other schema version (or
    foreign JSON) instead of letting a consumer silently read fields
    with a different meaning or miss the host ``meta`` block.
    """
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    found = (data.get("schema"), data.get("schema_version"))
    if not isinstance(data, dict) or found != (stats.SCHEMA, stats.SCHEMA_VERSION):
        raise RuntimeError(
            f"{path}: stale or foreign BENCH report (schema {found[0]!r} "
            f"version {found[1]!r}; this tree writes {stats.SCHEMA!r} "
            f"version {stats.SCHEMA_VERSION}) — regenerate it with the "
            f"current benchmarks"
        )
    return data


def run_row_task(task):
    """Execute one row task through the parallel executor.

    With ``REPRO_BENCH_JOBS=1`` this is the in-process sequential path;
    larger values exercise the process pool (the row itself is the
    granularity, so a single row still occupies one worker).  A
    quarantined row is a benchmark failure — raise with its record.
    """
    from repro.parallel import run_tasks

    report = run_tasks(
        [task],
        jobs=bench_jobs(),
        timeout=bench_timeout(),
        retries=bench_retries(),
        journal=bench_journal(),
    )
    if report.failures:
        failure = report.failures[0]
        raise RuntimeError(
            f"benchmark row {failure.key} quarantined: {failure.status} "
            f"after {failure.attempts} attempt(s) — {failure.error}"
        )
    return report.rows[0]


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist a regenerated table/figure under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_once(benchmark, fn, record_name: str | None = None, **extra):
    """Run a heavy pipeline exactly once under pytest-benchmark timing.

    The region is also captured by :func:`repro.bdd.stats.record` (wall
    time, ops/sec, kernel steps, cache hit rates, peak nodes), keyed by
    ``record_name`` — defaulting to the pytest-benchmark name — so the
    session hook below can emit ``BENCH_PR6.json``.
    """
    name = record_name or getattr(benchmark, "name", None) or "anonymous"
    with stats.record(name, **extra):
        return benchmark.pedantic(fn, rounds=1, iterations=1)


def pytest_sessionfinish(session, exitstatus):
    """Emit the machine-readable engine benchmark report at the repo root."""
    global _BENCH_JOURNAL
    if _BENCH_JOURNAL is not None:
        _BENCH_JOURNAL.close()
        _BENCH_JOURNAL = None
    if stats.RECORDS:
        path = stats.write_bench_json(
            BENCH_JSON,
            meta={"suite": "benchmarks", "exitstatus": int(exitstatus)},
            jobs=bench_jobs(),
        )
        # Read-back through the validating reader: the file we just
        # wrote must be a well-formed current-schema document.
        read_bench_json(path)
        print(f"\nengine benchmark report written to {path}")
