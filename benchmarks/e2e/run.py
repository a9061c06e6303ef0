"""End-to-end benchmark: the paper pipeline, the sweep runner, the query service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH] [--smoke] [--golden PATH]

With one ``--workload`` the workload runs in this process: it measures
set-up several times, then runs whole rounds until ``--seconds`` have
passed, checks every output, prints each metric as
``workload metric value unit`` and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With several
workloads (or none: all four) each runs in a fresh subprocess.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
their timings are scaled to the speed of a quiet reference host by
the probes ``host.py`` times between operations.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics; the spans go to ``.bench_out/spans-<workload>-<seed>.json``.
The exit status is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SPEC_PATH = ROOT / "BENCHMARK.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced rounds",
    )
    parser.add_argument("--out", help="append one JSON result line per workload run")
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest inputs and one round (for the benchmark's own tests)",
    )
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def layer_values(rnd: workloads.Round, spans, events) -> dict[str, float]:
    """Per-layer numbers of one traced round (window ``rnd.start..end``)."""
    from trace import covered_seconds, self_times

    window = [s for s in spans if s.start >= rnd.start and s.end <= rnd.end]
    values = {f"{name}_s": seconds for name, seconds in self_times(window).items()}
    counts: dict[str, float] = {}
    for name, value, t in events:
        if rnd.start <= t <= rnd.end:
            counts[name] = counts.get(name, 0.0) + value
    pairs = counts.get("reduce.alg33.pairs", 0.0)
    values["reduce.alg33.pairs"] = pairs
    values["reduce.alg33.compat_ratio"] = (
        counts.get("reduce.alg33.compatible", 0.0) / pairs if pairs else 0.0
    )
    values["cf.width.sift_cost_calls"] = float(
        sum(1 for s in window if s.name == "cf.width.sift_cost")
    )
    values["trace.coverage_pct"] = (
        100.0 * covered_seconds(window, rnd.start, rnd.end) / rnd.wall_s
    )
    values.update(rnd.layers)
    return values


def peak_rss_mb() -> float:
    """Largest single process: this one or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(
    args: argparse.Namespace, name: str, spec: dict, speed_probe: host.SpeedProbe
) -> dict:
    from trace import Tracer

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = {"host": host.host_record()}
    record["host"]["calib_ms_before"] = speed_probe.ms()
    workload = workloads.WORKLOADS[name](
        seed=args.seed, smoke=args.smoke, golden=workloads.load_golden(args.golden),
        speed_probe=speed_probe,
    )
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", name, "--seed", str(args.seed)]
    if args.smoke:
        setup_cmd.append("--smoke")
    spool = None
    plain: list[workloads.Round] = []
    traced: list[workloads.Round] = []
    layers: list[dict[str, float]] = []
    setups: list[float] = []
    setup_probes: list[float] = []
    try:
        workload.prepare()
        for _ in range(workload.setup_repeats):
            setups.append(workload.setup_once(setup_cmd))
            setup_probes.append(speed_probe.ms())
        workload.warm_up()
        tracer = None
        if args.trace:
            workloads.SCRATCH.mkdir(exist_ok=True)
            spool = Path(tempfile.mkdtemp(prefix="spool-", dir=workloads.SCRATCH))
            tracer = Tracer(f"{name}-{args.seed}-{os.getpid()}", spool_dir=spool)
        start = time.perf_counter()
        while True:
            # Each round starts from a collected heap: garbage left by the
            # previous round otherwise raised peak RSS by up to a third.
            gc.collect()
            plain.append(workload.run_round())
            if tracer is not None:
                gc.collect()
                traced.append(workload.run_round(tracer))
            if args.smoke or time.perf_counter() - start >= seconds:
                break
        if tracer is not None:
            spans, events = tracer.collect()
            layers = [layer_values(rnd, spans, events) for rnd in traced]
            record["spans"] = str(tracer.write(
                workloads.SCRATCH / f"spans-{name}-{args.seed}.json", workload=name, seed=args.seed
            ))
    finally:
        workload.close()
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)
    record["host"]["calib_ms_after"] = speed_probe.ms()

    rounds = workload.untimed + plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    cells = {r.cells for r in rounds}
    if len(cells) > 1:
        failed += 1
        errors.append(f"#Cel differs between rounds of the same work: {sorted(cells)}")
    # Timings are reported at the reference host's speed (host.py).
    # The wall is the mean round wall scaled by the mean of all probes
    # of the timed rounds.  A median round would not match the mean
    # probe: in a run whose rounds were half slow, half fast it sat at
    # one level, and over one ten-run set the median raised the spread
    # of table5-arith and sweep-j2 from 6.5 % and 10 % to 17 %.
    walls = [r.wall_s for r in plain]
    probes = [p for r in plain for p in r.probes_ms]
    # Latency percentiles over every operation of the run, each latency
    # first scaled by the probes of its own round, so that rounds at
    # different host speeds do not widen the pooled distribution (the
    # service's 90th percentile spread 19 % over ten runs scaled per
    # run, 7 % scaled per round).  Percentiles per round, then a median
    # over rounds, jumped between a fast and a slow level instead.
    latencies_ms = [
        host.scaled(1000.0 * s, r.probes_ms) for r in plain for s in r.latencies_s
    ]

    if args.trace:
        metrics = per_layer_metrics(spec, plain, traced, layers)
    else:
        values = {
            "wall_s": host.scaled(statistics.fmean(walls), probes),
            # No latencies when every operation failed; the run is wrong then.
            "latency_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
            "latency_p90_ms": workloads.percentile(latencies_ms, 90) if latencies_ms else 0.0,
            "setup_s": host.scaled(statistics.median(setups), setup_probes),
            "peak_rss_mb": peak_rss_mb(),
            "cells": float(statistics.median(r.cells for r in plain)),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    record["host"]["speed"] = host.speed_factor(probes)
    record.update(
        workload=name, seed=args.seed, seconds=seconds, trace=args.trace,
        smoke=args.smoke, rounds=len(plain), traced_rounds=len(traced),
        # Measured values, before scaling by the probes.
        round_walls_s=[r.wall_s for r in plain],
        round_latencies_ms=[[1000.0 * s for s in r.latencies_s] for r in plain],
        round_probes_ms=[r.probes_ms for r in plain],
        traced_round_walls_s=[r.wall_s for r in traced],
        setups_s=setups, setup_probes_ms=setup_probes,
        latency_samples=len(latencies_ms),
        correct=failed == 0 and attempted > 0,
        attempted=attempted, failed=failed, errors=errors[:20], metrics=metrics,
    )
    return record


def per_layer_metrics(spec: dict, plain, traced, layers) -> dict:
    """Median over traced rounds of each layer value, plus the run's own.

    Layer times are as measured, not scaled: compare them between runs
    made side by side, with ``host.calib_ms`` beside them.
    """
    median = statistics.median
    values = {
        m["name"]: median(round_layers.get(m["name"], 0.0) for round_layers in layers)
        for m in spec["per_layer"]
    }
    # Traced and untraced rounds alternate, so both saw the same host.
    traced_wall = median(r.wall_s for r in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall / median(r.wall_s for r in plain) - 1.0)
    values["host.calib_ms"] = statistics.fmean(p for r in plain + traced for p in r.probes_ms)
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]
    }


def emit(record: dict, out: str | None) -> None:
    name = record["workload"]
    host_info = record["host"]
    print(f"{name} host nproc={host_info['nproc']} python={host_info['python']} "
          f"loadavg={host_info['loadavg']} calib_ms={host_info['calib_ms_before']:.2f}"
          f"->{host_info['calib_ms_after']:.2f} speed={host_info['speed']:.3f} "
          f"platform={host_info['platform']}")
    print(f"{name} rounds {record['rounds']} count")
    print(f"{name} latency_samples {record['latency_samples']} count")
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} {m['value']!r} {m['unit']}")
    for error in record["errors"]:
        print(f"{name} FAILED {error}", file=sys.stderr)
    if out:
        with open(out, "a") as handle:
            handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Several workloads: one fresh subprocess each
# ---------------------------------------------------------------------------


def run_many(args: argparse.Namespace, names: list[str]) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace), "--golden", args.golden]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.out:
            cmd += ["--out", args.out]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            status = status or 1
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}:{metric}"] = m
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workloads.ensure_source()
    spec = load_spec()
    names = args.workload or list(workloads.WORKLOADS)
    if args.setup_only:
        workload = workloads.WORKLOADS[names[0]](
            seed=args.seed, smoke=args.smoke, golden={}
        )
        workload.prepare()
        print("ready", flush=True)
        return 0
    if len(names) > 1:
        return run_many(args, names)
    with host.SpeedProbe() as speed_probe:
        record = run_workload(args, names[0], spec, speed_probe)
    emit(record, args.out)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
