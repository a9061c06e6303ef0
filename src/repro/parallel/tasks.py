"""Row tasks: the unit of work the parallel executor schedules.

One *row task* is one (benchmark × partition-set × variant) pipeline of
the Sect. 5 experiments — a Table 4 row, a Table 5 row, or one Table 6
word-list size.  Tasks are shared-nothing: a worker process gets only
the picklable :class:`RowTask` description, rebuilds everything from
the benchmark registry, and ships back a :class:`TaskResult` carrying

* the row result (plain dataclasses of measures/costs),
* the worker's engine counter delta (:func:`repro.bdd.stats.counter_delta`),
* optionally the serialized CF BDDs (``repro.bdd.io`` payloads) so the
  parent can re-measure and refinement-check them *without rebuilding*
  (:func:`verify_shipped`).

Determinism: every sampling verifier inside a row derives its seed from
the stable (benchmark, partition, variant) key — see
:func:`repro.experiments.runner.stable_seed` — so a row computes the
same result in any process at any ``--jobs`` value.

Fault injection (tests and CI only): ``REPRO_FAULT_INJECT`` holds a
``;``-separated list of ``mode=rowkey`` or ``mode=rowkey@count``
entries; :func:`execute_task` consults it on entry and fires the
matching fault deterministically.  The machinery is shared with the
query service and lives in :mod:`repro._faults` (see its docstring for
the full mode list — crash/hang/raise/pickle/abort/slow/oom); a row
task's fault *site* is its :attr:`RowTask.key`.  The executor stamps
each task with its own pid (``RowTask.fault_parent``) so a fault can
tell parent from worker; the marker travels *in the task description*,
never through ``os.environ``, so concurrent sweeps inside one process
(the query service) cannot clobber each other's parent marker.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro import _faults
from repro.errors import (
    DeadlineError,
    ReproError,
    ResourceLimitError,
)


@dataclass(frozen=True)
class RowTask:
    """Description of one experiment row, picklable and hashable.

    ``kind`` selects the pipeline (``table4`` / ``table5`` /
    ``table6``), ``name`` the benchmark (a registry row label, or the
    word count for Table 6).  ``options`` is a sorted tuple of
    ``(key, value)`` pairs forwarded to the pipeline.

    ``fault_parent`` is executor-internal state for the deterministic
    fault-injection hooks: the pid of the sweep parent, stamped by
    :func:`~repro.parallel.executor.run_tasks` via
    ``dataclasses.replace`` so parent-vs-worker fault behaviour needs
    no process-global environment mutation.  It is deliberately *not*
    part of :func:`~repro.parallel.journal.config_hash` (which hashes
    kind/name/options only), so journal resume identity is unaffected.
    """

    kind: str
    name: str
    options: tuple[tuple[str, Any], ...] = ()
    fault_parent: int | None = None

    @property
    def key(self) -> str:
        """Stable identity used for cost estimates and scheduling."""
        return f"{self.kind}:{self.name}"

    def opts(self) -> dict[str, Any]:
        return dict(self.options)


def _freeze(options: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    # node_limit=None means "ungoverned" and is omitted entirely so that
    # option tuples (and row fingerprints over them) are unchanged for
    # callers that never set a limit.
    return tuple(
        sorted((k, v) for k, v in options.items() if not (k == "node_limit" and v is None))
    )


def table4_task(
    name: str,
    *,
    sift: bool = True,
    verify: bool = False,
    ship_cfs: bool = False,
    node_limit: int | None = None,
) -> RowTask:
    """One Table 4 row (both output partitions, all five variants)."""
    return RowTask(
        "table4",
        name,
        _freeze(
            {
                "sift": sift,
                "verify": verify,
                "ship_cfs": ship_cfs,
                "node_limit": node_limit,
            }
        ),
    )


def table5_task(
    name: str,
    *,
    sift: bool = True,
    verify: bool = False,
    node_limit: int | None = None,
) -> RowTask:
    """One Table 5 row (DC=0 and Alg3.3 cascade designs)."""
    return RowTask(
        "table5",
        name,
        _freeze({"sift": sift, "verify": verify, "node_limit": node_limit}),
    )


def table6_task(
    count: int,
    *,
    sift: bool = True,
    verify: bool = False,
    node_limit: int | None = None,
) -> RowTask:
    """One Table 6 word-list size (DC=0 and Fig. 8 designs)."""
    return RowTask(
        "table6",
        str(count),
        _freeze({"sift": sift, "verify": verify, "node_limit": node_limit}),
    )


@dataclass
class TaskResult:
    """What a worker ships back for one row task.

    ``status`` is ``"ok"`` for a normal row, ``"degraded"`` when a
    pipeline stage fell back to a cheaper path under a resource budget
    (``degraded`` lists the fallbacks taken), or ``"budget_exceeded"``
    when the row's own ``node_limit`` budget was exhausted outright —
    then ``result`` is ``None`` and ``error`` describes the limit.
    """

    key: str
    result: Any
    wall_s: float
    pid: int
    stats_delta: dict = field(default_factory=dict)
    shipped_cfs: dict[str, dict] = field(default_factory=dict)
    #: BLAKE2b fingerprints of the shipped payloads, computed *once* in
    #: the worker over the canonical bytes (the hot shipping path used
    #: to serialize each payload a second time whenever the parent
    #: wanted its fingerprint).  Keyed like :attr:`shipped_cfs`.
    shipped_fps: dict[str, str] = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    degraded: tuple[str, ...] = ()


def _maybe_inject(task: RowTask) -> Any | None:
    """Fire a configured fault for ``task``; returns a result poison.

    Returns ``None`` normally, or an unpicklable object the caller must
    attach to its result (``pickle`` mode).  ``crash``/``hang`` never
    return in a worker process.
    """
    return _faults.fire(task.key, parent=task.fault_parent)


def _run_table4(
    name: str, opts: dict
) -> tuple[Any, dict[str, dict], dict[str, str]]:
    from repro.bdd.io import (
        canonical_payload,
        charfunction_payload,
        payload_fingerprint,
    )
    from repro.benchfns.registry import get_benchmark
    from repro.experiments.table4 import run_row

    collect: dict[str, Any] | None = {} if opts.get("ship_cfs") else None
    row = run_row(
        get_benchmark(name),
        sift=opts.get("sift", True),
        verify=opts.get("verify", False),
        collect=collect,
    )
    shipped: dict[str, dict] = {}
    fps: dict[str, str] = {}
    for label, cf in (collect or {}).items():
        payload = charfunction_payload(cf)
        # Canonicalize once: the fingerprint is a digest of these bytes
        # and downstream consumers (journal, parent verification) reuse
        # the fingerprint instead of re-serializing the node list.
        fps[label] = payload_fingerprint(canon=canonical_payload(payload))
        shipped[label] = payload
    return row, shipped, fps


def _run_table5(
    name: str, opts: dict
) -> tuple[Any, dict[str, dict], dict[str, str]]:
    from repro.benchfns.registry import get_benchmark
    from repro.experiments.table5 import run_row

    row = run_row(
        get_benchmark(name),
        sift=opts.get("sift", True),
        verify=opts.get("verify", False),
    )
    return row, {}, {}


def _run_table6(
    name: str, opts: dict
) -> tuple[Any, dict[str, dict], dict[str, str]]:
    from repro.experiments.table6 import table6_row

    rows = table6_row(
        int(name),
        sift=opts.get("sift", True),
        verify=opts.get("verify", False),
    )
    return rows, {}, {}


_DISPATCH = {
    "table4": _run_table4,
    "table5": _run_table5,
    "table6": _run_table6,
}


def execute_task(task: RowTask) -> TaskResult:
    """Run one row task in the current process.

    Sweep workers run it on each :class:`RowTask` they receive; the
    ``jobs=1`` path and the pool's last allowed attempt call it
    in-process, which is exactly the pre-parallel sequential path.

    A ``node_limit`` option runs the row under a
    :class:`~repro.bdd.governor.Budget`; only errors raised by *that*
    budget are converted to a ``status="budget_exceeded"`` result —
    an enclosing budget's error (the executor's per-attempt deadline)
    propagates so the executor can retry or quarantine the row.
    """
    from repro.bdd import stats
    from repro.bdd.governor import Budget

    runner = _DISPATCH.get(task.kind)
    if runner is None:
        raise ReproError(f"unknown row task kind {task.kind!r}")
    poison = _maybe_inject(task)
    opts = task.opts()
    node_limit = opts.pop("node_limit", None)
    budget = Budget(max_nodes=node_limit) if node_limit else None
    before = stats.snapshot()
    t0 = time.perf_counter()
    status = "ok"
    error: str | None = None
    degraded: tuple[str, ...] = ()
    result: Any = None
    shipped: dict[str, dict] = {}
    fps: dict[str, str] = {}
    try:
        if budget is not None:
            with budget:
                result, shipped, fps = runner(task.name, opts)
            degraded = tuple(budget.degradations)
            if degraded:
                status = "degraded"
        else:
            result, shipped, fps = runner(task.name, opts)
    except (ResourceLimitError, DeadlineError) as exc:
        if budget is None or exc.budget is not budget:
            raise  # someone else's budget (e.g. the executor's deadline)
        status = "budget_exceeded"
        error = str(exc)
        result = None
        shipped = {}
        fps = {}
    # Row-boundary self-check (REPRO_SELFCHECK=1): every manager still
    # alive after the row — including one a governor aborted out of a
    # sift — must satisfy the structural invariants.  Runs inside the
    # delta window so the audit counters travel home with the row.
    from repro.bdd import check

    if check.selfcheck_enabled():
        check.selfcheck_live_managers(what=f"after row {task.key}")
    wall = time.perf_counter() - t0
    delta = stats.counter_delta(before, stats.snapshot())
    if poison is not None:
        result = (result, poison)
    return TaskResult(
        key=task.key,
        result=result,
        wall_s=wall,
        pid=os.getpid(),
        stats_delta=delta,
        shipped_cfs=shipped,
        shipped_fps=fps,
        status=status,
        error=error,
        degraded=degraded,
    )


def row_fingerprint(row: Any) -> Any:
    """Hashable summary of a row result, excluding wall-clock fields.

    Parity between ``--jobs`` values means bit-identical widths, node
    counts, and cascade costs; the Algorithm 3.1/3.3 timings inside a
    :class:`~repro.experiments.table4.Table4Row` legitimately vary
    between runs and are excluded.
    """
    if isinstance(row, (list, tuple)):
        return tuple(row_fingerprint(r) for r in row)
    if hasattr(row, "parts"):  # Table4Row
        return (
            row.name,
            row.n_inputs,
            row.n_outputs,
            row.dc_percent,
            tuple(
                (
                    part.label,
                    tuple(
                        (variant, m.max_width, m.nodes)
                        for variant, m in sorted(part.measures.items())
                    ),
                )
                for part in row.parts
            ),
        )
    return row  # Table5Row / Table6Design carry no timing fields


def verify_shipped(result: TaskResult) -> int:
    """Parity-check the CF payloads a worker shipped, without rebuilding.

    For every shipped ``<part>/<variant>`` payload the parent reloads
    the BDD (``repro.bdd.io``) and re-measures it; width and node count
    must be bit-identical to the :class:`VariantMeasure` the worker
    reported.  Where a partition shipped both its ISF and a reduced
    variant, the reduced CF is pulled into the ISF's manager by
    variable name (``repro.bdd.transfer``) and must refine it.

    Returns the number of payloads checked; raises
    :class:`~repro.errors.ReproError` on any mismatch.
    """
    from repro.bdd.io import load_charfunction_payload
    from repro.bdd.transfer import transfer_by_name
    from repro.experiments.runner import measure

    if not result.shipped_cfs:
        return 0
    row = result.result
    measures_by_label = {
        f"{part.label}/{variant}": m
        for part in row.parts
        for variant, m in part.measures.items()
    }
    loaded: dict[str, Any] = {}
    for label, payload in result.shipped_cfs.items():
        fp = result.shipped_fps.get(label)
        if fp is not None:
            from repro.bdd.io import payload_fingerprint

            # Independent recomputation: the worker fingerprinted the
            # canonical bytes it shipped; a mismatch here means the
            # payload was corrupted in transit (pickling, journal).
            if payload_fingerprint(payload) != fp:
                raise ReproError(
                    f"{result.key}: {label} payload fingerprint mismatch "
                    f"(worker shipped {fp})"
                )
        cf = load_charfunction_payload(payload)
        loaded[label] = cf
        want = measures_by_label.get(label)
        if want is None:
            raise ReproError(f"{result.key}: shipped unknown CF {label!r}")
        got = measure(cf)
        if got != want:
            raise ReproError(
                f"{result.key}: {label} parity mismatch: worker reported "
                f"{want}, parent re-measured {got}"
            )
    for label, cf in loaded.items():
        part, _, variant = label.partition("/")
        if variant == "ISF":
            continue
        isf_cf = loaded.get(f"{part}/ISF")
        if isf_cf is None:
            continue
        (root,) = transfer_by_name(cf.bdd, isf_cf.bdd, [cf.root])
        if not isf_cf.bdd.implies(root, isf_cf.root):
            raise ReproError(
                f"{result.key}: {label} does not refine {part}/ISF"
            )
    return len(loaded)
