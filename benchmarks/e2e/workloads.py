"""The four workloads of the end-to-end benchmark.

Each workload prepares its inputs, runs whole *rounds* (one fixed
unit of work, the same in every round and for every seed) and checks
every output.  The seed orders the service's requests; the other
workloads run fixed inputs.
A round reports its wall time, one latency per operation, the total
``#Cel`` of the designs it produced, counts of attempted and failed
operations, and the host-speed probes (``host.SpeedProbe``) it took
between operations: after every operation in process, before and
after the pool runs for the sweep, after the requests for the service.
Tracing, when asked for, wraps the pipeline's
public entry points with :class:`trace.Tracer` for that round only.

Why these four (see README.md for the measurements behind each):

* ``table5-arith`` — dense arithmetic ISFs through the in-process
  Table 5 pipeline; the sum-of-widths sift cost and Alg. 3.3 pair
  checks lead.
* ``table6-wordlist`` — sparse word-list functions whose CFs exceed the
  width-sum sift limit, so sifting uses node count; the control for
  Alg. 3.3 and sift-cost changes.
* ``sweep-j2`` — the only workload through ``repro.parallel`` (pool,
  pickling, CF shipping, parent-side parity checks).
* ``service-mix`` — the only workload through ``repro.service``
  (admission, result cache, worker IPC, warm shards).
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: What a run leaves in its checkout: the spans files of traced runs,
#: and while it runs the daemon sockets, snapshots and span spools.
#: The benchmark may read and write only inside its checkout.
SCRATCH = ROOT / ".bench_out"


def ensure_source() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"run.py: no repro sources at {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    """What one round did and measured."""

    start: float = 0.0
    end: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    cells: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Per-layer numbers measured outside the tracer (pool report,
    #: service replies, engine counter deltas), keyed by metric name.
    layers: dict[str, float] = field(default_factory=dict)
    #: Host-speed probes taken between the round's operations.
    probes_ms: list[float] = field(default_factory=list)
    #: Time the round spent waiting for its probes; not part of ``wall_s``.
    probing_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start - self.probing_s

    def probe(self, speed_probe: host.SpeedProbe) -> None:
        t0 = time.perf_counter()
        self.probes_ms.append(speed_probe.ms())
        self.probing_s += time.perf_counter() - t0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def engine_layers(delta: dict) -> dict[str, float]:
    """``bdd.*`` per-layer metrics from a ``stats.counter_delta``."""
    lookups = delta.get("cache_hits", 0) + delta.get("cache_misses", 0)
    tt = delta.get("tt_fast_hits", 0) + delta.get("tt_fast_misses", 0)
    return {
        "bdd.op_calls": float(delta.get("op_calls", 0)),
        "bdd.cache_hit_rate": delta.get("cache_hits", 0) / lookups if lookups else 0.0,
        "bdd.tt_hit_rate": delta.get("tt_fast_hits", 0) / tt if tt else 0.0,
        "bdd.peak_nodes": float(delta.get("peak_nodes", 0)),
    }


def percentile(values: list[float], q: int) -> float:
    """``q``-th percentile, interpolated between the samples (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Tracing targets
# ---------------------------------------------------------------------------


def install_pipeline_tracing(tracer) -> None:
    """Rebind the pipeline's layer entry points to traced wrappers.

    ``Benchmark.build`` is traced on the benchmarks ``get_benchmark``
    returns while tracing is installed.
    """
    import repro.benchfns.registry as registry
    import repro.benchfns.wordlist as wordlist
    import repro.cascade.auxmem as auxmem
    import repro.cascade.realization as realization
    import repro.cascade.synth as synth
    import repro.cf.width as width
    import repro.experiments.runner as runner
    import repro.experiments.table4  # noqa: F401  (binds the traced names)
    import repro.experiments.table5 as table5
    import repro.experiments.table6 as table6
    import repro.parallel.tasks as tasks
    import repro.reduce.alg31 as alg31
    import repro.reduce.alg33 as alg33
    import repro.reduce.support as support
    from repro.cf.charfun import CharFunction
    from repro.isf.function import MultiOutputISF

    def trace_build(tr, bench) -> None:
        bench.build = tr.wrap(bench.build, "benchfns.build")

    def count_pairs(tr, result) -> None:
        tr.add("reduce.alg33.pairs", result[1].pairs_checked)

    def count_compatible(tr, result) -> None:
        adjacency = result[0]
        tr.add("reduce.alg33.compatible", sum(len(v) for v in adjacency.values()) / 2)

    tracer.patch_everywhere(registry.get_benchmark, None, observe=trace_build)
    tracer.patch_everywhere(wordlist.build_wordlist_isf, "benchfns.build")
    tracer.patch(MultiOutputISF, "extension", "isf.extension")
    tracer.patch(CharFunction, "from_isf", "cf.build")
    tracer.patch(CharFunction, "sift", "bdd.reorder.sift")
    tracer.patch_everywhere(width.sum_of_widths, "cf.width.sift_cost")
    tracer.patch_everywhere(width.max_width, "cf.width.measure")
    tracer.patch_everywhere(support.reduce_support, "reduce.support")
    tracer.patch_everywhere(alg31.algorithm_3_1, "reduce.alg31")
    tracer.patch_everywhere(alg33.algorithm_3_3, "reduce.alg33", observe=count_pairs)
    # Alg. 3.3's own steps: only the bindings inside the alg33 module, so
    # other callers of these helpers do not count as Alg. 3.3 time.
    tracer.patch(alg33, "columns_at_height", "reduce.alg33.columns")
    tracer.patch(alg33, "build_compatibility_graph", "reduce.alg33.pairs", observe=count_compatible)
    tracer.patch(alg33, "heuristic_clique_cover", "reduce.alg33.cover")
    tracer.patch(alg33, "substitute_columns", "reduce.alg33.subst")
    tracer.patch_everywhere(synth.synthesize_forest, "cascade.synth")
    tracer.patch_everywhere(realization.realize_forest, "cascade.realize")
    tracer.patch(auxmem.AddressGenerator, "build", "cascade.realize")
    for verifier in (
        table5.verify_realization,
        table6.verify_dc0,
        table6.verify_generator,
        runner.verify_cf_against_reference,
    ):
        tracer.patch_everywhere(verifier, "experiments.verify")
    tracer.patch_everywhere(tasks.verify_shipped, "parallel.verify_shipped")


# ---------------------------------------------------------------------------
# Golden outputs
# ---------------------------------------------------------------------------


def check_table5_row(golden: dict, row, rnd: Round) -> None:
    want = golden["table5"].get(row.name)
    got = {
        "cells_dc0": row.dc0.cells,
        "cells_alg33": row.reduced.cells,
        "rv": row.reduced.redundant_vars,
    }
    if want is None:
        rnd.fail(f"{row.name}: no golden Table 5 entry")
    elif got != want:
        rnd.fail(f"{row.name}: Table 5 {got} != golden {want}")


def check_table4_row(golden: dict, row, rnd: Round) -> None:
    want = golden["table4"].get(row.name)
    got = {
        part.label: {v: m.max_width for v, m in sorted(part.measures.items())}
        for part in row.parts
    }
    if want is None:
        rnd.fail(f"{row.name}: no golden Table 4 entry")
    elif got != want:
        rnd.fail(f"{row.name}: Table 4 widths {got} != golden {want}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: prepared inputs, repeatable rounds, checked outputs."""

    name = ""
    #: Setups measured per run; ``setup_s`` is their median.
    setup_repeats = 9

    def __init__(
        self, *, seed: int, smoke: bool, golden: dict,
        speed_probe: host.SpeedProbe | None = None,
    ) -> None:
        self.seed = seed
        self.smoke = smoke
        self.golden = golden
        #: Times the host's speed between operations; rounds need one.
        self.speed_probe = speed_probe
        #: Untimed rounds (warm-up); their outputs are still checked.
        self.untimed: list[Round] = []

    def prepare(self) -> None:
        """Build the inputs in this process (all a set-up process does)."""

    def setup_once(self, setup_cmd: list[str]) -> float:
        """One timed set-up: a fresh interpreter until its inputs are ready."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            setup_cmd, stdout=subprocess.PIPE, env=child_env(), text=True
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        return elapsed

    def warm_up(self) -> None:
        """Untimed work between set-up and the timed rounds."""

    def run_round(self, tracer=None) -> Round:
        """One round; every round of a run does the same work."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything this workload started."""


class InProcessWorkload(Workload):
    """Operations run one after another in the `run.py` process."""

    def operations(self) -> list[tuple[str, object]]:
        """``(label, op)`` pairs; ``op(round)`` checks its output and
        returns its #Cel."""
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        from repro.bdd import stats

        rnd = Round()
        if tracer is not None:
            install_pipeline_tracing(tracer)
        before = stats.snapshot()
        rnd.start = time.perf_counter()
        try:
            # Built after tracing is installed, so the ops call the wrappers.
            for label, op in self.operations():
                rnd.attempted += 1
                t0 = time.perf_counter()
                try:
                    cells = op(rnd)
                except Exception as exc:  # a failed operation is a result, not a crash
                    rnd.fail(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    latency = time.perf_counter() - t0
                    rnd.probe(self.speed_probe)
                rnd.latencies_s.append(latency)
                rnd.cells += cells
        finally:
            rnd.end = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        rnd.layers.update(engine_layers(stats.counter_delta(before, stats.snapshot())))
        return rnd


class Table5Arith(InProcessWorkload):
    name = "table5-arith"
    #: One function of each Table 5 family, small enough for about eight
    #: rounds in a run (3 s a round).  The paper's rows (5-7-11-13 RNS,
    #: 4-digit 11-nary to binary, 3-digit decimal adder) take 8.4 s, so a
    #: run held three rounds and its median moved by 8.6 % (quartile
    #: distance over eight runs).  In these, too, the width-sum sift cost
    #: and Alg. 3.3 pair checks take about half of a round.
    ROWS = ("3-5-7-11 RNS", "5-digit 6-nary to binary", "3-digit decimal adder")
    SMOKE_ROWS = ("3-digit decimal adder",)

    def prepare(self) -> None:
        import repro.experiments.table5  # noqa: F401  (import time counts in set-up)

        self.rows = self.SMOKE_ROWS if self.smoke else self.ROWS

    def operations(self) -> list[tuple[str, object]]:
        from repro.benchfns.registry import get_benchmark
        from repro.experiments import table5

        def row_op(name):
            def op(rnd: Round) -> int:
                row = table5.run_row(get_benchmark(name), verify=True)
                check_table5_row(self.golden, row, rnd)
                return row.dc0.cells + row.reduced.cells
            return op

        return [(name, row_op(name)) for name in self.rows]


class Table6Wordlist(InProcessWorkload):
    name = "table6-wordlist"
    #: 250 words keep every partition's CF above the width-sum sift
    #: limit (node-count sifting, zero sift-cost calls).  400-word lists
    #: moved #Cel between 11 and 13 and peak RSS between 110 and 157 MB
    #: from one list to the next.
    WORDS = 250
    SMOKE_WORDS = 60
    #: One fixed list, the word generator's own default (as ``repro
    #: table6`` uses), not one drawn from the run's seed: the design work
    #: depends on the words (BDD operations of four seeded lists spread
    #: 11 % between seeds, peak RSS 8 %), which the spread between runs
    #: of different seeds would count as noise.
    LIST_SEED = 2005

    def prepare(self) -> None:
        from repro.benchfns.wordlist import WordList, generate_words

        count = self.SMOKE_WORDS if self.smoke else self.WORDS
        self.word_list = WordList(generate_words(count, seed=self.LIST_SEED))

    def operations(self) -> list[tuple[str, object]]:
        from repro.experiments import table6

        word_list = self.word_list

        def design_op(design, verify):
            def op(rnd: Round) -> int:
                cost, built = design(word_list)
                verify(word_list, built)
                return cost.cells
            return op

        return [
            ("DC=0", design_op(table6.design_dc0, table6.verify_dc0)),
            ("Fig.8", design_op(table6.design_fig8, table6.verify_generator)),
        ]


class SweepJ2(Workload):
    name = "sweep-j2"
    #: Table 4 and Table 5 tasks of two table5-arith rows: four tasks of
    #: 0.9-1.3 s each when run alone, which two workers share evenly; a
    #: round takes about 2.8 s, so a run holds about nine.
    ROWS = ("3-5-7-11 RNS", "5-digit 6-nary to binary")
    SMOKE_ROWS = ("3-digit decimal adder",)
    JOBS = 2

    def prepare(self) -> None:
        from repro.parallel import table4_task, table5_task

        rows = self.SMOKE_ROWS if self.smoke else self.ROWS
        self.tasks = [table4_task(n, verify=True, ship_cfs=True) for n in rows] + [
            table5_task(n, verify=True) for n in rows
        ]

    def run_round(self, tracer=None) -> Round:
        import repro.parallel as parallel

        rnd = Round()
        if tracer is not None:
            # Pool workers fork after this point and inherit the wrappers;
            # their spans reach the tracer through its spool directory.
            install_pipeline_tracing(tracer)
        rnd.start = time.perf_counter()
        try:
            # The probes run while the pool is down: one before, one after.
            rnd.probe(self.speed_probe)
            report = parallel.run_tasks(self.tasks, jobs=self.JOBS, retries=0)
            for result in report.results:
                try:
                    parallel.verify_shipped(result)
                except Exception as exc:
                    rnd.fail(f"{result.key}: {type(exc).__name__}: {exc}")
            rnd.probe(self.speed_probe)
        finally:
            rnd.end = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
        rnd.attempted = len(self.tasks)
        for failure in report.failures:
            rnd.fail(f"{failure.key}: {failure.status}: {failure.error}")
        for result in report.results:
            if result.status != "ok":
                rnd.fail(f"{result.key}: status {result.status}")
                continue
            rnd.latencies_s.append(result.wall_s)
            if result.key.startswith("table4:"):
                check_table4_row(self.golden, result.result, rnd)
            else:
                rnd.cells += result.result.dc0.cells + result.result.reduced.cells
                check_table5_row(self.golden, result.result, rnd)
        utilizations = [u.utilization for u in report.workers.values()]
        rnd.layers.update(engine_layers(report.stats_totals))
        rnd.layers.update(
            {
                "parallel.busy_s": report.busy_s,
                "parallel.sched_overhead_s": report.scheduling_overhead_s,
                "parallel.utilization_min": min(utilizations, default=0.0),
                "parallel.critical_row_s": max(rnd.latencies_s, default=0.0),
                "parallel.retries": float(report.retries),
            }
        )
        return rnd


class ServiceMix(Workload):
    """One closed-loop client against ``repro serve --workers 2``.

    The pool holds two shard families (RNS and p-nary), one warm worker
    each.  Every round replays the same seeded request list over one
    connection: all fresh keys of the pool once each, in seeded order,
    plus one exact repeat per three fresh requests (a repeat re-sends an
    earlier request of the round, so the result cache answers it).  The
    seed orders the requests and picks the repeats; the set of fresh
    keys is the same for every seed, so every seed asks for the same
    engine work.  An ``invalidate`` opens each round, so rounds are
    interchangeable.  One untimed round after priming warms the workers'
    computed tables.

    The fresh keys are ``width_reduce`` (with and without payload) and
    ``cascade``; ``decompose`` runs only in priming.  A warm
    ``decompose`` takes about 1.5 ms, mostly process wake-ups between
    client, front-end and worker, which the host slows unlike the engine
    work: with decompose at three cut heights per benchmark the median
    latency fell among them, and its run-to-run spread reached 27 % in
    one ten-run set, against 9 % for the median of the same runs'
    other requests.

    Measured alternatives: two clients, one per family, kept both
    workers, the front-end and the client threads runnable at once on a
    two-core host, and the run-to-run spread of ``latency_p50_ms``
    reached 25 %; a third shard family made the two-worker pool evict an
    idle worker on most family switches.
    """

    name = "service-mix"
    setup_repeats = 3
    WORKERS = 2
    #: Every benchmark's cold build + sift took at most 0.2 s on the
    #: reference host (2 cores, Python 3.11); fixed here so the pool
    #: does not depend on the machine.
    POOL = (
        "3-11 RNS", "5-13 RNS", "7-13 RNS", "11-13 RNS", "3-5-7 RNS", "3-5-13 RNS",
        "3-digit 3-nary to binary", "3-digit 5-nary to binary",
        "3-digit 6-nary to binary", "3-digit 7-nary to binary",
        "4-digit 3-nary to binary", "5-digit 3-nary to binary",
    )
    SMOKE_POOL = ("3-11 RNS", "5-13 RNS", "3-digit 3-nary to binary", "3-digit 5-nary to binary")

    def prepare(self) -> None:
        self.pool = self.SMOKE_POOL if self.smoke else self.POOL
        self.plan = self._plan(self.pool, random.Random(self.seed))
        self.tmp: Path | None = None
        self.daemons: list[dict] = []

    def _plan(self, names, rng: random.Random) -> list[tuple[str, dict, int | None]]:
        """Fresh keys of ``names`` in seeded order, a repeat after every third."""
        fresh: list[tuple[str, dict]] = []
        for name in names:
            fresh.append(("width_reduce", {"benchmark": name}))
            fresh.append(("width_reduce", {"benchmark": name, "payload": True}))
            fresh.append(("cascade", {"benchmark": name}))
        rng.shuffle(fresh)
        total = len(fresh) + len(fresh) // 3
        repeat_at = set(rng.sample(range(1, total), len(fresh) // 3))
        plan: list[tuple[str, dict, int | None]] = []
        sent: list[int] = []
        for position in range(total):
            if position in repeat_at:
                origin = sent[rng.randrange(len(sent))]
                plan.append((plan[origin][0], plan[origin][1], origin))
            else:
                op, params = fresh[len(sent)]
                sent.append(len(plan))
                plan.append((op, params, None))
        return plan

    # -- daemon lifecycle ----------------------------------------------

    def _start_daemon(self, spool: Path | None) -> dict:
        if self.tmp is None:
            SCRATCH.mkdir(exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix="svc-", dir=SCRATCH))
        home = Path(tempfile.mkdtemp(prefix="d", dir=self.tmp))
        sock = home / "svc.sock"
        # Unix socket paths are limited to ~107 bytes: the daemon binds
        # a name relative to its own directory and the clients use the
        # shorter of the absolute and the relative path, so deep
        # checkouts still work.
        sock_arg = min(str(sock), os.path.relpath(sock), key=len)
        serve_args = [
            "serve", "--socket", sock.name, "--workers", str(self.WORKERS),
            "--snapshot-dir", str(home / "snaps"),
        ]
        if spool is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spool), *serve_args]
        log = open(home / "daemon.log", "w")
        proc = subprocess.Popen(
            cmd, cwd=home, env=child_env(), stdout=subprocess.PIPE,
            stderr=log, text=True,
        )
        daemon = {"proc": proc, "log": log, "sock": sock_arg, "home": home}
        self.daemons.append(daemon)
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        banner = proc.stdout.readline() if ready else ""
        if not banner.startswith("serving on"):
            raise RuntimeError(f"daemon did not start: {banner!r}; see {home}/daemon.log")
        return daemon

    def _prime(self, daemon: dict) -> None:
        from repro.service.client import SocketClient

        with SocketClient(daemon["sock"], timeout=120) as client:
            for name in self.pool:
                reply = client.call(
                    "decompose", {"benchmark": name, "cut_height": 1}, check=False
                )
                if not reply.get("ok"):
                    raise RuntimeError(f"priming {name} failed: {reply.get('error')}")

    def _stop_daemon(self, daemon: dict) -> None:
        from repro.service.client import SocketClient

        proc = daemon["proc"]
        if proc.poll() is None:
            try:
                with SocketClient(daemon["sock"], timeout=30, connect_timeout=1) as c:
                    c.call("shutdown", check=False)
                proc.wait(timeout=60)
            except Exception:
                proc.kill()
                proc.wait(timeout=30)
        proc.stdout.close()
        daemon["log"].close()
        self.daemons.remove(daemon)

    def setup_once(self, setup_cmd: list[str]) -> float:
        """Daemon start until every pool benchmark is warm (primed)."""
        # Keep only the newest daemon: untraced rounds run on it.
        for old in list(self.daemons):
            self._stop_daemon(old)
        start = time.perf_counter()
        daemon = self._start_daemon(None)
        self._prime(daemon)
        elapsed = time.perf_counter() - start
        self.untraced = daemon
        return elapsed

    def warm_up(self) -> None:
        self.untimed.append(self._round(self.untraced))

    def _traced_daemon(self, tracer) -> dict:
        traced = getattr(self, "traced", None)
        if traced is None:
            traced = self.traced = self._start_daemon(tracer.spool_dir)
            self._prime(traced)
            self.untimed.append(self._round(traced))
        return traced

    # -- rounds ----------------------------------------------------------

    def run_round(self, tracer=None) -> Round:
        daemon = self.untraced if tracer is None else self._traced_daemon(tracer)
        return self._round(daemon)

    def _round(self, daemon: dict) -> Round:
        from repro.service.client import SocketClient

        snaps = daemon["home"] / "snaps"
        out: list[tuple] = []
        rnd = Round()
        with SocketClient(daemon["sock"], timeout=120) as client:
            client.call("invalidate")
            before = client.call("stats")["result"]
            snaps_before = len(list(snaps.glob("*.rbcf")))
            rnd.start = time.perf_counter()
            try:
                for op, params, origin in self.plan:
                    t0 = time.perf_counter()
                    reply = client.call(op, params, check=False)
                    out.append((op, params, origin, reply, time.perf_counter() - t0))
            except Exception as exc:  # a lost connection is a result, not a crash
                out.append((None, None, None, {"ok": False, "error": repr(exc)}, 0.0))
            rnd.probe(self.speed_probe)
            rnd.end = time.perf_counter()
            after = client.call("stats")["result"]
        engine_ms, overhead_ms, hit_ms = [], [], []
        for op, params, origin, reply, latency in out:
            rnd.attempted += 1
            if not reply.get("ok"):
                rnd.fail(f"{op} {params}: {reply.get('error')}")
                continue
            rnd.latencies_s.append(latency)
            meta = reply.get("meta", {})
            if meta.get("cached"):
                hit_ms.append(latency * 1000.0)
            else:
                engine_ms.append(meta.get("wall_s", 0.0) * 1000.0)
                overhead_ms.append((latency - meta.get("wall_s", 0.0)) * 1000.0)
            result = reply["result"]
            if origin is not None:
                first = out[origin][3]
                if first.get("ok") and first["result"] != result:
                    rnd.fail(f"repeat of {op} {params} differs from its original")
                continue
            self._check(op, params, result, rnd)
        cache_before, cache_after = before["result_cache"], after["result_cache"]
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        restarts = sum(
            p.get("restarts", 0) for p in after.get("workers", {}).get("processes", {}).values()
        ) - sum(
            p.get("restarts", 0) for p in before.get("workers", {}).get("processes", {}).values()
        )
        median = statistics.median
        rnd.layers.update(
            {
                "service.engine_ms_p50": median(engine_ms) if engine_ms else 0.0,
                "service.overhead_ms_p50": median(overhead_ms) if overhead_ms else 0.0,
                "service.hit_latency_ms_p50": median(hit_ms) if hit_ms else 0.0,
                "service.result_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "service.batched_total": float(after["batched_total"] - before["batched_total"]),
                "service.cold_builds": float(len(list(snaps.glob("*.rbcf"))) - snaps_before),
                "service.worker_restarts": float(max(restarts, 0)),
                "service.shed_total": float(after["shed_total"] - before["shed_total"]),
            }
        )
        return rnd

    def _check(self, op: str, params: dict, result: dict, rnd: Round) -> None:
        """Fresh replies against the golden pool values."""
        want = self.golden["service"].get(params["benchmark"])
        if want is None:
            rnd.fail(f"{params['benchmark']}: no golden service entry")
        elif op == "width_reduce":
            got = [result["max_width_before"], result["max_width_after"]]
            if got != want["width_reduce"]:
                rnd.fail(f"width_reduce {params}: {got} != golden {want['width_reduce']}")
        elif op == "cascade":
            rnd.cells += result["cells"]
            if result["cells"] != want["cascade_cells"]:
                rnd.fail(f"cascade {params}: {result['cells']} != golden {want['cascade_cells']}")

    def close(self) -> None:
        for daemon in list(self.daemons):
            self._stop_daemon(daemon)
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


WORKLOADS = {cls.name: cls for cls in (Table5Arith, Table6Wordlist, SweepJ2, ServiceMix)}


def load_golden(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
