"""Compare two result sets of the end-to-end benchmark.

Usage::

    python3 benchmarks/e2e/compare.py BASE.jsonl CHANGE.jsonl \
        [--claim METRIC:WORKLOAD]... [--trace]

A result set is the JSON-lines file ``run.py --out`` appends to, one
line per workload run.  For every (metric, workload) pair the report
gives each side's run count, median and quartiles, the change of the
median, the larger of the two spreads (quartile distance over the base
median) and a verdict against the metric's *allowance*: its bound in
``BENCHMARK.json`` times the base median, and for ``setup_s`` at least
0.1 s, so that a set-up of a tenth of a second is not judged on
millisecond noise.

* ``ok``          — the change's median is not worse by more than the allowance;
* ``worse``       — it is worse by more than the allowance;
* ``unresolved``  — a side's quartile distance exceeds the allowance, so
  no conclusion, unless every run of the change beats every run of the
  base (``better``);
* for a ``--claim``ed pair: ``gain`` when the change wins at least 9 of
  every 10 runs paired by seed (ties count for neither) and the medians
  differ by more than the base's quartile distance, else ``not met``.
  Claims need every seed once per side; a repeated seed is an error.

Every run counts in the medians and quartiles, whatever its seed.
``--trace`` compares per-layer records instead; they have no bound, so
the verdict column only says which way the median moved.  The exit
status is 1 when any verdict is ``worse``, ``unresolved`` or
``not met``, when a claim cannot be paired, or when a run reported
wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
BAD = {"worse", "unresolved", "not met"}
#: Smallest allowance per metric, in the metric's unit.
ALLOWANCE_FLOOR = {"setup_s": 0.1}


def load(path: str, trace: bool) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if bool(record.get("trace")) == trace and not record.get("smoke"):
                records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def describe(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def runs(records: list[dict], workload: str, metric: str) -> list[tuple[int, float]]:
    """``(seed, value)`` of every run of ``workload`` that reports ``metric``."""
    return [
        (r["seed"], r["metrics"][metric]["value"])
        for r in records
        if r["workload"] == workload and metric in r["metrics"]
    ]


def paired(base: list[tuple[int, float]], change: list[tuple[int, float]]) -> list[tuple[float, float]]:
    """``(base, change)`` values of the seeds both sides ran, each seed once."""
    sides = []
    for name, side in (("base", base), ("change", change)):
        by_seed = dict(side)
        if len(by_seed) != len(side):
            raise ValueError(f"{name} ran a seed more than once; claims pair runs by seed")
        sides.append(by_seed)
    return [(sides[0][s], sides[1][s]) for s in sorted(set(sides[0]) & set(sides[1]))]


def allowance(metric: dict, base_median: float) -> float:
    return max(metric["bound"] * abs(base_median), ALLOWANCE_FLOOR.get(metric["name"], 0.0))


def verdict(
    base: list[tuple[int, float]],
    change: list[tuple[int, float]],
    metric: dict,
    *,
    claimed: bool,
) -> str:
    b = [v for _, v in base]
    c = [v for _, v in change]
    bq1, mb, bq3 = quartiles(b)
    cq1, mc, cq3 = quartiles(c)
    lower = metric["better"] == "lower"

    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    if claimed:
        pairs = paired(base, change)
        wins = sum(1 for x, y in pairs if better(y, x))
        if pairs and wins * 10 >= 9 * len(pairs) and better(mc, mb) and abs(mc - mb) > bq3 - bq1:
            return "gain"
        return "not met"
    if "bound" not in metric:
        return "lower" if mc < mb else "higher" if mc > mb else "same"
    if all(better(y, x) for x in b for y in c):
        return "better"
    allowed = allowance(metric, mb)
    if max(bq3 - bq1, cq3 - cq1) > allowed:
        return "unresolved"
    worsening = mc - mb if lower else mb - mc
    return "worse" if worsening > allowed else "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    parser.add_argument("--trace", action="store_true", help="compare per-layer records")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    base, change = load(args.base, args.trace), load(args.change, args.trace)
    status = 0
    for side, records in (("base", base), ("change", change)):
        wrong = [r for r in records if not r["correct"]]
        if wrong:
            status = 1
            print(f"{side}: {len(wrong)} run(s) reported wrong outputs")
    workloads = [w["name"] for w in spec["workloads"]]
    print(
        f"{'metric':<26} {'workload':<16} {'runs':>5} {'base median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    for m in metrics:
        for workload in workloads:
            b = runs(base, workload, m["name"])
            c = runs(change, workload, m["name"])
            if not b or not c:
                continue
            try:
                result = verdict(b, c, m, claimed=(m["name"], workload) in claims)
            except ValueError as exc:
                result = f"not met ({exc})"
                status = 1
            if result in BAD:
                status = 1
            qb = quartiles([v for _, v in b])
            qc = quartiles([v for _, v in c])
            moved = (qc[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
            width = max(qb[2] - qb[0], qc[2] - qc[0]) / abs(qb[1]) if qb[1] else 0.0
            bound_text = f"{m['bound']:.0%}" if "bound" in m else "-"
            print(
                f"{m['name']:<26} {workload:<16} {len(b):>2}/{len(c):<2} "
                f"{describe(qb):>30} {describe(qc):>30} {moved:>+8.1%} {width:>7.1%} "
                f"{bound_text:>6}  {result}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
