"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table4 [names...]`` — regenerate (a subset of) Table 4.
* ``table5 [names...]`` — regenerate the reconstructed Table 5.
* ``table6 [sizes...]`` — regenerate Table 6 for the given word counts.
* ``sweep`` — run the Table 4+5 row sweep through the parallel
  executor and emit a BENCH_PR3-style comparison JSON.  With
  ``--fabric DIR`` the sweep runs as a distributed work queue any
  number of ``sweep-worker`` processes can join; ``--status PATH``
  summarizes a fabric directory (or journal) without running anything.
* ``sweep-worker DIR`` — join a fabric sweep as an elastic worker:
  lease rows from DIR, heartbeat, append checksummed results.
* ``journal compact PATH`` — rewrite a sweep journal to the latest
  result per row (the original is kept as ``PATH.old``).
* ``figures`` — print the figure reproductions (2, 5, 6, 7, 8, 9).
* ``scaling [sizes...]`` — word-list scaling study (Fig. 8 vs DC=0).
* ``demo`` — the Table 1 worked example, end to end.
* ``pla FILE`` — run support reduction + Algorithm 3.3 on a PLA file
  and report the width profile before/after.
* ``serve`` — run the always-on query daemon (warm sharded managers,
  unix socket + optional local HTTP; see ``repro.service``).
* ``query OP`` — send one query to a running daemon and print the
  JSON response.

The table commands accept ``--jobs N`` to fan the independent rows out
over N worker processes (``repro.parallel``); results are bit-identical
to ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BDD_for_CF width reduction and LUT cascade synthesis "
        "(Matsuura & Sasao, DAC 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(p) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for the row sweep (default: 1, in-process)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="S",
            help="per-attempt row deadline in seconds (default: none); "
            "rows past it are retried, then quarantined",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=2,
            metavar="N",
            help="extra attempts for a failing row, the last one in-process "
            "(default: 2)",
        )
        p.add_argument(
            "--node-limit",
            type=int,
            default=None,
            metavar="N",
            help="per-row BDD node budget; rows exceeding it report "
            "status=budget_exceeded instead of running away (default: none)",
        )
        p.add_argument(
            "--journal",
            metavar="PATH",
            default=None,
            help="write-ahead journal of row progress at PATH; every "
            "attempt/result is fsync'd before the sweep proceeds",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="skip rows already completed in --journal (matching "
            "configuration); requires --journal",
        )

    p4 = sub.add_parser("table4", help="maximum width / node count table")
    p4.add_argument("names", nargs="*", help="benchmark names (default: all)")
    p4.add_argument("--verify", action="store_true", help="cross-check against references")
    p4.add_argument("--no-sift", action="store_true", help="skip variable reordering")
    add_jobs(p4)

    p5 = sub.add_parser("table5", help="cascade realization of arithmetic functions")
    p5.add_argument("names", nargs="*")
    p5.add_argument("--verify", action="store_true")
    add_jobs(p5)

    p6 = sub.add_parser("table6", help="word-list realization (Fig. 8)")
    p6.add_argument("sizes", nargs="*", type=int, help="word counts (default: configured)")
    p6.add_argument("--verify", action="store_true")
    add_jobs(p6)

    psweep = sub.add_parser(
        "sweep", help="Table 4+5 row sweep through the parallel executor"
    )
    psweep.add_argument("names", nargs="*", help="benchmark names (default: all)")
    add_jobs(psweep)
    psweep.add_argument(
        "--compare",
        action="store_true",
        help="also run the --jobs 1 baseline and assert row parity",
    )
    psweep.add_argument(
        "--strict",
        action="store_true",
        help="with --compare: exit non-zero when any row is missing "
        "from either sweep or the fingerprints mismatch (CI mode)",
    )
    psweep.add_argument("--verify", action="store_true")
    psweep.add_argument(
        "--tables",
        default="4,5",
        help="comma-separated table selection out of 4,5,6 (default: 4,5)",
    )
    psweep.add_argument(
        "--bench-json",
        metavar="PATH",
        help="write the BENCH_PR3-style sweep comparison JSON here",
    )
    psweep.add_argument(
        "--cost-file",
        metavar="PATH",
        help="persist/reuse per-row cost estimates at PATH",
    )
    psweep.add_argument(
        "--fabric",
        metavar="DIR",
        default=None,
        help="coordinate the sweep as a distributed work queue in DIR "
        "(lease ledger + journal); any number of 'repro sweep-worker "
        "DIR' processes may join, on this box or others sharing the "
        "filesystem",
    )
    psweep.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="S",
        help="with --fabric: seconds without worker heartbeats before a "
        "row's lease is fenced and the row re-queued (default: 10)",
    )
    psweep.add_argument(
        "--no-local-work",
        action="store_true",
        help="with --fabric: coordinate only; do not run an in-process "
        "worker (the sweep then progresses solely via sweep-worker "
        "processes)",
    )
    psweep.add_argument(
        "--status",
        metavar="PATH",
        default=None,
        help="print rows done/failed/leased/pending and per-worker "
        "heartbeat ages for a fabric directory (or bare journal) "
        "without starting a run, then exit",
    )

    pworker = sub.add_parser(
        "sweep-worker",
        help="join a fabric sweep: lease rows from DIR until done or idle",
    )
    pworker.add_argument("dir", help="the coordinator's --fabric directory")
    pworker.add_argument(
        "--worker-id",
        metavar="ID",
        default=None,
        help="stable worker identity (default: <hostname>-<pid>)",
    )
    pworker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="seconds between lease attempts when no row is available "
        "(default: 0.5)",
    )
    pworker.add_argument(
        "--max-idle",
        type=float,
        default=60.0,
        metavar="S",
        help="exit after S seconds with nothing leasable; 0 waits "
        "forever (default: 60)",
    )

    pjournal = sub.add_parser(
        "journal", help="maintain sweep/fabric write-ahead journals"
    )
    pjournal.add_argument("action", choices=["compact"])
    pjournal.add_argument("path", help="journal file to rewrite")

    sub.add_parser("figures", help="print the figure reproductions")
    sub.add_parser("demo", help="Table 1 worked example")

    pscale = sub.add_parser("scaling", help="word-list scaling study")
    pscale.add_argument("sizes", nargs="*", type=int, default=None)

    ppla = sub.add_parser("pla", help="reduce the width of a PLA function")
    ppla.add_argument("file")
    ppla.add_argument("--dump-dot", metavar="PATH", help="write the reduced CF as DOT")

    pserve = sub.add_parser("serve", help="run the always-on query daemon")
    pserve.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="unix-domain socket to listen on (NDJSON protocol)",
    )
    pserve.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="also listen for local HTTP (POST /query, GET /stats, "
        "GET /healthz); PORT 0 picks a free port",
    )
    pserve.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="write-ahead journal of query attempts/results; makes "
        "in-flight work survive a daemon kill",
    )
    pserve.add_argument(
        "--resume",
        action="store_true",
        help="replay the journal on start: re-queue journaled queries "
        "that never finished; requires --journal",
    )
    pserve.add_argument(
        "--drain-exit",
        action="store_true",
        help="with --resume: execute the replayed queue, then exit "
        "without opening any listener",
    )
    pserve.add_argument(
        "--cost-file",
        metavar="PATH",
        default=None,
        help="persist/reuse per-query cost estimates (admission order)",
    )
    pserve.add_argument(
        "--tenant-max-steps",
        type=int,
        default=None,
        metavar="N",
        help="kernel-step budget per tenant, spent by all its queries, "
        "failed ones included; exhausted tenants are refused at "
        "admission (default: unlimited)",
    )
    pserve.add_argument(
        "--housekeep-nodes",
        type=int,
        default=None,
        metavar="N",
        help="per-shard alive-node ceiling before query scratch is "
        "collected (N >= 1; default: 2,000,000)",
    )
    pserve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="admission queue bound: past N queued queries new requests "
        "are shed with a structured 'overloaded' error (default: unbounded)",
    )
    pserve.add_argument(
        "--tenant-max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant cap on admitted-but-unanswered queries; excess "
        "requests are shed with 'overloaded' (default: unlimited)",
    )
    pserve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="K",
        help="consecutive worker deaths/timeouts before a family's "
        "circuit breaker opens and fails fast with 'circuit_open' "
        "(default: 3)",
    )
    pserve.add_argument(
        "--breaker-reset",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds an open circuit breaker waits before letting one "
        "half-open probe query through (default: 30)",
    )
    pserve.add_argument(
        "--rss-limit-mb",
        type=int,
        default=None,
        metavar="MB",
        help="memory watchdog ceiling on the summed RSS of the daemon and "
        "its shard workers (shared pages count once per process); past it "
        "the daemon degrades in stages — housekeep, evict coldest worker, "
        "shed admissions (default: watchdog samples but never triggers)",
    )
    pserve.add_argument(
        "--watchdog-interval",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds between memory watchdog samples (default: 5)",
    )
    pserve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="S",
        help="default wall-clock deadline per query (a request's own "
        "budget.deadline_s overrides it)",
    )
    pserve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="soft cap on live shard worker processes; every query runs "
        "on its benchmark family's worker (N >= 1; default: one per "
        "shard family)",
    )
    pserve.add_argument(
        "--snapshot-dir",
        metavar="PATH",
        default=None,
        help="persist/reuse binary CF snapshots (RBCF) so cold shards "
        "and rebuilt workers warm up without re-running build+sift",
    )
    pserve.add_argument(
        "--result-cache",
        type=int,
        default=None,
        metavar="N",
        help="cross-request result-cache capacity in entries "
        "(default: 256; 0 disables)",
    )

    pquery = sub.add_parser("query", help="send one query to a running daemon")
    pquery.add_argument(
        "op",
        choices=["ping", "stats", "invalidate", "width_reduce", "decompose",
                 "cascade", "pla_reduce", "shutdown"],
    )
    pquery.add_argument("--socket", metavar="PATH", required=True)
    pquery.add_argument("--benchmark", metavar="NAME", default=None)
    pquery.add_argument(
        "--params",
        metavar="JSON",
        default=None,
        help='extra op parameters as a JSON object, e.g. \'{"cut_height": 3}\'',
    )
    pquery.add_argument(
        "--pla-file",
        metavar="PATH",
        default=None,
        help="for pla_reduce: read the PLA text from this file",
    )
    pquery.add_argument("--tenant", default="default")
    pquery.add_argument(
        "--budget-steps",
        type=int,
        default=None,
        metavar="N",
        help="kernel-step budget for this query",
    )
    pquery.add_argument(
        "--budget-deadline",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock deadline for this query",
    )
    pquery.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="server-side deadline: the daemon answers deadline_exceeded "
        "(exit 124) if the query has not finished MS milliseconds after "
        "admission, and the worker stays reusable",
    )
    pquery.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="give up after S seconds waiting for the daemon to answer "
        "(connecting retries with backoff within the same window; "
        "default: 120)",
    )

    args = parser.parse_args(argv)
    if (
        getattr(args, "resume", False)
        and not getattr(args, "journal", None)
        and not getattr(args, "fabric", None)
    ):
        parser.error("--resume requires --journal PATH (or --fabric DIR)")
    if getattr(args, "fabric", None) and getattr(args, "journal", None):
        parser.error("--fabric keeps its own journal; drop --journal")
    if getattr(args, "fabric", None) and getattr(args, "timeout", None) is not None:
        parser.error("--fabric has no row deadline; drop --timeout")
    command = args.command
    if command in ("table4", "table5", "sweep"):
        # An unknown benchmark name is a misconfigured invocation, not
        # a row fault to quarantine row by row: refuse it before any run.
        from repro.benchfns.registry import get_benchmark
        from repro.errors import BenchmarkError

        for name in args.names:
            try:
                get_benchmark(name)
            except BenchmarkError as exc:
                parser.error(str(exc))
    if command == "table4":
        return _cmd_table4(args)
    if command == "table5":
        return _cmd_table5(args)
    if command == "table6":
        return _cmd_table6(args)
    if command == "sweep":
        return _cmd_sweep(args)
    if command == "sweep-worker":
        return _cmd_sweep_worker(args)
    if command == "journal":
        return _cmd_journal(args)
    if command == "figures":
        return _cmd_figures()
    if command == "scaling":
        return _cmd_scaling(args)
    if command == "demo":
        return _cmd_demo()
    if command == "pla":
        return _cmd_pla(args)
    if command == "serve":
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be at least 1")
        if args.housekeep_nodes is not None and args.housekeep_nodes < 1:
            parser.error("--housekeep-nodes must be at least 1")
        if args.drain_exit and not (args.journal and args.resume):
            parser.error("--drain-exit requires --journal PATH and --resume")
        if not args.drain_exit and not args.socket and not args.http:
            parser.error("serve needs --socket PATH and/or --http HOST:PORT")
        return _cmd_serve(args)
    if command == "query":
        return _cmd_query(args)
    parser.error(f"unknown command {command}")
    return 2


def _warn_missing_rows(produced: int, expected: int, what: str) -> None:
    """Quarantined/budget-dropped rows leave a visible stderr trace."""
    if produced < expected:
        print(
            f"warning: {expected - produced} of {expected} {what} row(s) "
            "were quarantined or exceeded their budget and are missing "
            "from the table",
            file=sys.stderr,
        )


def _cmd_table4(args) -> int:
    from repro.benchfns.registry import table4_names
    from repro.experiments.table4 import format_table4, run_table4

    names = args.names or table4_names()
    rows = run_table4(
        names,
        sift=not args.no_sift,
        verify=args.verify,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        node_limit=args.node_limit,
        journal=args.journal,
        resume=args.resume,
    )
    _warn_missing_rows(len(rows), len(names), "table4")
    print(format_table4(rows))
    return 0


def _cmd_table5(args) -> int:
    from repro.benchfns.registry import arithmetic_names
    from repro.experiments.table5 import format_table5, run_table5

    names = args.names or arithmetic_names()
    rows = run_table5(
        names,
        verify=args.verify,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        node_limit=args.node_limit,
        journal=args.journal,
        resume=args.resume,
    )
    _warn_missing_rows(len(rows), len(names), "table5")
    print(format_table5(rows))
    return 0


def _cmd_table6(args) -> int:
    from repro._config import word_list_sizes
    from repro.experiments.table6 import format_table6, run_table6

    sizes = args.sizes or list(word_list_sizes())
    rows = run_table6(
        sizes,
        verify=args.verify,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        node_limit=args.node_limit,
        journal=args.journal,
        resume=args.resume,
    )
    _warn_missing_rows(len(rows), 2 * len(sizes), "table6")
    print(format_table6(rows))
    return 0


def _cmd_sweep_status(path: str) -> int:
    """``repro sweep --status PATH``: inspect, never run."""
    from repro.errors import ReproError
    from repro.parallel import fabric_status

    try:
        status = fabric_status(path)
    except (ReproError, OSError) as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    parts = [f"done {status['rows_done']}", f"failed {status['rows_failed']}"]
    if "rows_leased" in status:
        parts.append(f"leased {status['rows_leased']}")
    if "rows_pending" in status:
        parts.append(f"pending {status['rows_pending']}")
    total = status.get("rows_total")
    suffix = f" of {total} row(s)" if total is not None else ""
    print(f"{status['journal']}: " + ", ".join(parts) + suffix)
    for key, failure_status in sorted(status["failed"].items()):
        print(f"  failed {key}: {failure_status}")
    for key, info in sorted(status.get("leased", {}).items()):
        print(f"  leased {key} -> {info['worker']} (epoch {info['epoch']})")
    for worker, info in sorted(status.get("workers", {}).items()):
        print(
            f"  worker {worker}: pid {info['pid']} on {info['host']}, "
            f"{info['beats']} beat(s), last heartbeat "
            f"{info['heartbeat_age_s']:.1f}s ago"
        )
    return 0


def _cmd_sweep_worker(args) -> int:
    from repro.errors import ReproError
    from repro.parallel import run_worker

    try:
        summary = run_worker(
            args.dir,
            worker_id=args.worker_id,
            poll_s=args.poll,
            max_idle_s=None if args.max_idle <= 0 else args.max_idle,
        )
    except ReproError as exc:
        print(f"sweep-worker failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"worker {summary['worker']}: leased {summary['leased']}, "
        f"completed {summary['completed']}, failed {summary['failed']}"
    )
    return 0


def _cmd_journal(args) -> int:
    from repro.errors import JournalError
    from repro.parallel import compact_journal

    try:
        before, after = compact_journal(args.path)
    except JournalError as exc:
        print(f"journal compact failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"compacted {args.path}: {before} -> {after} record(s); "
        f"original kept at {args.path}.old"
    )
    return 0


def _cmd_sweep(args) -> int:
    from repro.benchfns.registry import arithmetic_names, table4_names
    from repro.errors import ReproError
    from repro.parallel import (
        CostModel,
        row_fingerprint,
        run_fabric,
        run_tasks,
        table4_task,
        table5_task,
        verify_shipped,
    )
    from repro.parallel.report import write_parallel_bench

    if args.status:
        return _cmd_sweep_status(args.status)
    tables = {t.strip() for t in args.tables.split(",") if t.strip()}
    unknown = tables - {"4", "5", "6"}
    if unknown:
        print(f"unknown tables: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    tasks = []
    if "4" in tables:
        tasks += [
            table4_task(
                n,
                verify=args.verify,
                # Fabric rows must hash identically to jobs=1 rows so a
                # fabric journal resumes into (and totals compare
                # against) the sequential reference.
                ship_cfs=args.jobs > 1 and not args.fabric,
                node_limit=args.node_limit,
            )
            for n in (args.names or table4_names())
        ]
    if "5" in tables:
        tasks += [
            table5_task(n, verify=args.verify, node_limit=args.node_limit)
            for n in (args.names or arithmetic_names())
        ]
    if "6" in tables:
        from repro._config import word_list_sizes
        from repro.parallel import table6_task

        tasks += [
            table6_task(c, verify=args.verify, node_limit=args.node_limit)
            for c in word_list_sizes()
        ]

    cost_model = CostModel.load(args.cost_file) if args.cost_file else None
    sweeps = {}
    parallel_label = "fabric" if args.fabric else f"jobs={args.jobs}"
    # The journal attaches to the sweep the user asked for; the extra
    # --compare baseline is a throwaway check and never journals.
    if args.compare or (args.jobs <= 1 and not args.fabric):
        sweeps["jobs=1"] = run_tasks(
            tasks,
            jobs=1,
            cost_model=cost_model,
            timeout=args.timeout,
            retries=args.retries,
            journal=args.journal if args.jobs <= 1 and not args.fabric else None,
            resume=args.resume if args.jobs <= 1 and not args.fabric else False,
        )
    if args.fabric:
        from repro.parallel.lease import DEFAULT_LEASE_TTL

        report = run_fabric(
            tasks,
            args.fabric,
            lease_ttl=args.lease_ttl or DEFAULT_LEASE_TTL,
            resume=args.resume,
            local_work=not args.no_local_work,
            cost_model=cost_model,
            retries=args.retries,
        )
        sweeps["fabric"] = report
        fab = report.fabric or {}
        print(
            f"fabric {args.fabric}: {len(fab.get('workers', {}))} worker(s), "
            f"leases granted {fab.get('leases_granted', 0)}, "
            f"expired {fab.get('leases_expired', 0)}, "
            f"fenced {fab.get('leases_fenced', 0)}; "
            f"stale results {fab.get('results_stale', 0)}, "
            f"duplicates {fab.get('results_duplicate', 0)}"
        )
    elif args.jobs > 1:
        sweeps[f"jobs={args.jobs}"] = run_tasks(
            tasks,
            jobs=args.jobs,
            cost_model=cost_model,
            timeout=args.timeout,
            retries=args.retries,
            journal=args.journal,
            resume=args.resume,
        )
    parallel_report = sweeps.get(parallel_label)
    if parallel_report is not None:
        for result in parallel_report.results:
            if result.status == "ok":
                verify_shipped(result)
    strict_problems: list[str] = []
    if args.compare and parallel_report is not None:
        baseline = sweeps["jobs=1"]
        # Compare by key: a quarantined row in either sweep is reported
        # on its failures list, not silently skipped by a misaligned zip.
        par_by_key = {r.key: r for r in parallel_report.results}
        compared = 0
        for seq in baseline.results:
            par = par_by_key.get(seq.key)
            if par is None or seq.status != "ok" or par.status != "ok":
                strict_problems.append(
                    f"{seq.key}: not comparable (sequential status "
                    f"{seq.status!r}, parallel "
                    f"{par.status if par is not None else 'missing'!r})"
                )
                continue
            if row_fingerprint(seq.result) != row_fingerprint(par.result):
                if not args.strict:
                    raise ReproError(
                        f"{seq.key}: parallel result differs from sequential"
                    )
                strict_problems.append(
                    f"{seq.key}: parallel result differs from sequential"
                )
                continue
            compared += 1
        missing = {t.key for t in tasks} - {r.key for r in baseline.results}
        strict_problems.extend(
            f"{key}: missing from the sequential sweep" for key in sorted(missing)
        )
        print(
            f"parity OK over {compared} of {len(tasks)} rows: "
            f"jobs=1 {baseline.wall_s:.2f}s vs {parallel_label} "
            f"{parallel_report.wall_s:.2f}s"
        )
    for label, report in sweeps.items():
        resumed = f", {report.rows_resumed} resumed" if report.rows_resumed else ""
        print(
            f"{label}: wall {report.wall_s:.2f}s, busy {report.busy_s:.2f}s, "
            f"overhead {report.scheduling_overhead_s:.2f}s, "
            f"{len(report.workers)} worker(s), {len(report.failures)} "
            f"quarantined, {report.retries} retr(y/ies){resumed}"
        )
        for failure in report.failures:
            print(
                f"  quarantined {failure.key}: {failure.status} after "
                f"{failure.attempts} attempt(s) — {failure.error}",
                file=sys.stderr,
            )
        for result in report.results:
            if result.status != "ok":
                print(
                    f"  {result.key}: status={result.status}"
                    + (f" — {result.error}" if result.error else ""),
                    file=sys.stderr,
                )
    if args.bench_json:
        path = write_parallel_bench(
            args.bench_json, sweeps, meta={"source": "cli sweep"}
        )
        print(f"sweep report written to {path}")
    if args.strict and not args.compare:
        # Without a baseline to diff against, strict still refuses to
        # exit 0 when any requested row is missing from the output.
        for label, report in sweeps.items():
            strict_problems.extend(
                f"{failure.key}: quarantined in {label} ({failure.status})"
                for failure in report.failures
            )
    if args.strict and strict_problems:
        for problem in strict_problems:
            print(f"strict: {problem}", file=sys.stderr)
        print(
            f"strict: {len(strict_problems)} missing/mismatched row(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_figures() -> int:
    from repro.experiments.figures import all_figures, render_reports

    print(render_reports(all_figures()))
    return 0


def _cmd_scaling(args) -> int:
    from repro.experiments.scaling import format_scaling, run_scaling

    sizes = args.sizes or [50, 100, 200]
    print(format_scaling(run_scaling(sizes)))
    return 0


def _cmd_demo() -> int:
    from repro.cf import CharFunction, max_width, width_profile
    from repro.isf import table1_spec
    from repro.reduce import algorithm_3_1, algorithm_3_3

    spec = table1_spec()
    cf = CharFunction.from_spec(spec)
    print("Table 1 function (4 inputs, 2 outputs), order:", " ".join(cf.bdd.order()))
    print("ISF BDD_for_CF:  width", max_width(cf.bdd, cf.root), "nodes", cf.num_nodes())
    print("  profile:", width_profile(cf.bdd, cf.root))
    r31 = algorithm_3_1(cf)
    print("Algorithm 3.1:   width", max_width(r31.bdd, r31.root), "nodes", r31.num_nodes())
    r33, _ = algorithm_3_3(cf)
    print("Algorithm 3.3:   width", max_width(r33.bdd, r33.root), "nodes", r33.num_nodes())
    print("  profile:", width_profile(r33.bdd, r33.root))
    return 0


def _cmd_pla(args) -> int:
    from repro.cf import CharFunction, max_width, width_profile
    from repro.isf.pla import load_pla
    from repro.reduce import algorithm_3_3, reduce_support

    isf = load_pla(args.file)
    cf = CharFunction.from_isf(isf)
    cf.sift(cost="auto")
    print(f"{args.file}: {isf.n_inputs} inputs, {isf.n_outputs} outputs")
    print("before:", "width", max_width(cf.bdd, cf.root), "nodes", cf.num_nodes())
    reduced, removed = reduce_support(cf)
    reduced, _ = algorithm_3_3(reduced)
    print(
        "after: ",
        "width",
        max_width(reduced.bdd, reduced.root),
        "nodes",
        reduced.num_nodes(),
        f"(removed {len(removed)} variables)",
    )
    print("profile:", width_profile(reduced.bdd, reduced.root))
    if args.dump_dot:
        from repro.bdd.dot import to_dot

        with open(args.dump_dot, "w") as handle:
            handle.write(to_dot(reduced.bdd, {"chi": reduced.root}))
        print("DOT written to", args.dump_dot)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import DEFAULT_RESULT_CACHE, Service
    from repro.service.shards import DEFAULT_MAX_ALIVE

    http_host, http_port = None, 0
    if args.http:
        host, _, port = args.http.rpartition(":")
        if not host or not port.isdigit():
            print(f"--http expects HOST:PORT, got {args.http!r}", file=sys.stderr)
            return 2
        http_host, http_port = host, int(port)
    service = Service(
        socket_path=args.socket,
        http_host=http_host,
        http_port=http_port,
        journal_path=args.journal,
        resume=args.resume,
        cost_path=args.cost_file,
        tenant_max_steps=args.tenant_max_steps,
        max_alive=(
            args.housekeep_nodes
            if args.housekeep_nodes is not None
            else DEFAULT_MAX_ALIVE
        ),
        max_queue_depth=args.max_queue_depth,
        tenant_max_inflight=args.tenant_max_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        rss_limit_bytes=(
            args.rss_limit_mb * 1024 * 1024
            if args.rss_limit_mb is not None
            else None
        ),
        watchdog_interval_s=args.watchdog_interval,
        request_timeout=args.request_timeout,
        workers=args.workers,
        snapshot_dir=args.snapshot_dir,
        result_cache_size=(
            args.result_cache
            if args.result_cache is not None
            else DEFAULT_RESULT_CACHE
        ),
    )
    if args.drain_exit:
        executed = asyncio.run(service.drain())
        print(f"drained {executed} journal-replayed quer(y/ies)")
        return 0

    def announce() -> None:
        # Runs after the listeners are bound, so an ephemeral --http
        # HOST:0 reports the port the kernel actually assigned.
        where = " and ".join(
            s
            for s in (
                f"socket {args.socket}" if args.socket else "",
                f"http {http_host}:{service.http_port}" if http_host else "",
            )
            if s
        )
        print(f"serving on {where} (pid {os.getpid()})", flush=True)

    try:
        asyncio.run(service.serve(ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.errors import (
        CircuitOpenError,
        DeadlineError,
        OverloadedError,
        ServiceError,
    )
    from repro.service.client import SocketClient

    # sysexits-style codes so shell retry loops can branch on $?:
    # 75 = EX_TEMPFAIL (overloaded), 124 = timeout convention
    # (deadline_exceeded), 69 = EX_UNAVAILABLE (circuit_open).
    error_exits = (
        (OverloadedError, 75),
        (DeadlineError, 124),
        (CircuitOpenError, 69),
    )

    params: dict = {}
    if args.params:
        try:
            loaded = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"--params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(loaded, dict):
            print("--params must be a JSON object", file=sys.stderr)
            return 2
        params.update(loaded)
    if args.benchmark:
        params["benchmark"] = args.benchmark
    if args.pla_file:
        with open(args.pla_file) as handle:
            params["pla"] = handle.read()
    budget = {}
    if args.budget_steps is not None:
        budget["max_steps"] = args.budget_steps
    if args.budget_deadline is not None:
        budget["deadline_s"] = args.budget_deadline
    try:
        with SocketClient(
            args.socket,
            timeout=args.timeout,
            connect_timeout=min(args.timeout, 5.0),
        ) as client:
            reply = client.call(
                args.op,
                params,
                tenant=args.tenant,
                budget=budget or None,
                deadline_ms=args.deadline_ms,
            )
    except (OverloadedError, DeadlineError, CircuitOpenError) as exc:
        retry_after = getattr(exc, "retry_after", None)
        hint = f" (retry after {retry_after:.3f}s)" if retry_after else ""
        print(f"query refused: {exc}{hint}", file=sys.stderr)
        return next(code for cls, code in error_exits if isinstance(exc, cls))
    except ServiceError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(reply, indent=2, sort_keys=True))
    except BrokenPipeError:
        # Downstream closed the pipe (| head, a pager quitting) — not
        # an error; swallow the late flush too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if reply.get("ok") else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
