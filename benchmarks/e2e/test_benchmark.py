"""Checks of the end-to-end benchmark itself.

Validates ``BENCHMARK.json``, the layer map and the golden file, runs
every workload at smoke size, checks that wrong outputs make ``run.py``
fail, checks the host-speed probe and its scaling, and checks
``compare.py`` on synthetic result sets.  From the
repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_benchmark.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import host  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SMOKE_TIMEOUT_S = 60


def run_benchmark(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


def test_spec_has_exactly_the_expected_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][1:] == ["benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_spec_names_units_and_counts():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(E2E) <= 16
    assert 1 <= len(LAYERS) <= 128
    names = WORKLOADS + list(E2E) + list(LAYERS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in [*SPEC["end_to_end"], *SPEC["per_layer"]]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in E2E.values())


def test_every_layer_metric_names_an_end_to_end_metric_and_workload():
    mapping = json.loads((HERE / "layers.json").read_text())["layers"]
    assert set(mapping) == set(LAYERS)
    for layer, targets in mapping.items():
        assert targets, layer
        for metric, workload in targets:
            assert metric in E2E, (layer, metric)
            assert workload in WORKLOADS, (layer, workload)


# ---------------------------------------------------------------------------
# The golden file equals the committed result tables
# ---------------------------------------------------------------------------


def table_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [l for l in path.read_text().splitlines() if "|" in l and not l.startswith("-")]
    header = [c.strip() for c in lines[0].split("|")]
    return header, [[c.strip() for c in l.split("|")] for l in lines[1:]]


def test_golden_table4_widths_equal_committed_table():
    header, rows = table_rows(ROOT / "benchmarks" / "results" / "table4.txt")
    committed: dict[str, dict] = {}
    name = None
    for row in rows:
        if row[0] == "Ratio":
            break
        name = row[0] or name
        part = "F1" if row[0] else "F2"
        committed.setdefault(name, {})[part] = {
            col[2:]: int(value) for col, value in zip(header, row) if col.startswith("W:")
        }
    golden = json.loads((HERE / "golden.json").read_text())["table4"]
    shared = sorted(set(golden) & set(committed))
    assert shared
    for row_name in shared:
        assert golden[row_name] == committed[row_name], row_name


def test_golden_table5_cells_equal_committed_table():
    header, rows = table_rows(ROOT / "benchmarks" / "results" / "table5.txt")
    committed = {
        row[0]: {
            "cells_dc0": int(row[header.index("#Cel DC=0")]),
            "cells_alg33": int(row[header.index("#Cel Alg3.3")]),
            "rv": int(row[header.index("#RV")]),
        }
        for row in rows
        if row[0] != "Total"
    }
    golden = json.loads((HERE / "golden.json").read_text())["table5"]
    shared = sorted(set(golden) & set(committed))
    assert shared
    for row_name in shared:
        assert golden[row_name] == committed[row_name], row_name


# ---------------------------------------------------------------------------
# Smoke runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc, result = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = LAYERS if trace else E2E
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]["unit"]
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


PERTURB = {
    "table5-arith": lambda g: g["table5"]["3-digit decimal adder"].update(cells_alg33=6),
    "sweep-j2": lambda g: g["table4"]["3-digit decimal adder"]["F1"].update({"Alg3.3": 21}),
    "service-mix": lambda g: g["service"]["3-11 RNS"].update(width_reduce=[34, 32]),
}


@pytest.mark.parametrize("workload", sorted(PERTURB))
def test_perturbed_golden_value_fails_the_run(tmp_path, workload):
    golden = json.loads((HERE / "golden.json").read_text())
    PERTURB[workload](golden)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc, result = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--smoke",
        "--golden", str(path),
    )
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_benchmark(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert result is None and proc.stdout == ""


# ---------------------------------------------------------------------------
# The host-speed probe
# ---------------------------------------------------------------------------


def test_speed_probe_answers_from_its_own_process():
    with host.SpeedProbe() as probe:
        times = [probe.ms() for _ in range(2)]
    assert all(t > 0 for t in times)


def test_scaling_keeps_reference_speed_and_takes_out_part_of_a_slowdown():
    ref = host.REFERENCE_PROBE_MS
    assert host.scaled(2.0, [ref, ref]) == pytest.approx(2.0)
    # Probes twice as slow as the reference: a time shrinks by 2 ** exponent.
    slow = host.scaled(2.0, [2 * ref, 2 * ref])
    assert slow == pytest.approx(2.0 / 2 ** host.SCALING_EXPONENT)
    assert 1.0 < slow < 2.0


# ---------------------------------------------------------------------------
# compare.py on synthetic result sets
# ---------------------------------------------------------------------------


def write_set(path: Path, runs: list[tuple[int, dict[str, float]]]) -> Path:
    """A result set of table5-arith runs: ``(seed, {metric: value})`` each."""
    lines = [
        json.dumps({
            "workload": "table5-arith", "seed": seed, "trace": 0, "correct": True,
            "metrics": {name: {"value": value, "unit": E2E[name]["unit"]}
                        for name, value in values.items()},
        })
        for seed, values in runs
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def verdicts(capsys, base: Path, change: Path, *claims: str) -> tuple[int, dict[str, str]]:
    status = compare.main([str(base), str(change), *(f"--claim={c}" for c in claims)])
    rows = capsys.readouterr().out.splitlines()[1:]
    # The verdict is the last column, after two spaces.
    return status, {row.split()[0]: row.rsplit("  ", 1)[-1] for row in rows}


def test_compare_gives_setup_s_an_absolute_floor(tmp_path, capsys):
    # Set-up 0.12 s -> 0.19 s is +58 %, but within the 0.1 s floor;
    # the same relative move of wall_s is a regression.
    base = write_set(tmp_path / "base.jsonl", [
        (s, {"setup_s": 0.12 + 0.001 * s, "wall_s": 3.0 + 0.01 * s}) for s in range(10)
    ])
    change = write_set(tmp_path / "change.jsonl", [
        (s, {"setup_s": 0.19 + 0.001 * s, "wall_s": 4.7 + 0.01 * s}) for s in range(10)
    ])
    status, got = verdicts(capsys, base, change)
    assert got == {"setup_s": "ok", "wall_s": "worse"}
    assert status == 1


def test_compare_counts_every_run_when_seeds_repeat(tmp_path, capsys):
    # Ten runs on one seed: all ten enter the quartiles, so the wide
    # spread is seen (a per-seed dict would keep one run per side).
    values = [3.0, 3.9, 3.1, 4.0, 3.05, 3.95, 3.0, 4.1, 3.1, 3.0]
    base = write_set(tmp_path / "base.jsonl", [(2005, {"wall_s": v}) for v in values])
    change = write_set(tmp_path / "change.jsonl", [(2005, {"wall_s": v}) for v in reversed(values)])
    status, got = verdicts(capsys, base, change)
    assert got["wall_s"] == "unresolved"
    assert status == 1
    status, got = verdicts(capsys, base, change, "wall_s:table5-arith")
    assert got["wall_s"].startswith("not met (base ran a seed more than once")
    assert status == 1


def test_compare_claim_needs_nine_of_ten_pairs(tmp_path, capsys):
    base = write_set(tmp_path / "base.jsonl", [(s, {"wall_s": 3.0 + 0.01 * s}) for s in range(10)])
    faster = [(s, {"wall_s": 2.5 + 0.01 * s}) for s in range(10)]
    status, got = verdicts(capsys, base, write_set(tmp_path / "c1.jsonl", faster), "wall_s:table5-arith")
    assert (status, got["wall_s"]) == (0, "gain")
    faster[0] = (0, {"wall_s": 3.5})
    faster[1] = (1, {"wall_s": 3.5})
    status, got = verdicts(capsys, base, write_set(tmp_path / "c2.jsonl", faster), "wall_s:table5-arith")
    assert (status, got["wall_s"]) == (1, "not met")
