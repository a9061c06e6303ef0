"""Integration tests for the reconstructed Table 5 (arithmetic cascades)."""

from pathlib import Path

import pytest

from repro.benchfns import pnary_benchmark, rns_benchmark
from repro.benchfns.registry import get_benchmark
from repro.experiments.table5 import (
    design,
    format_table5,
    run_row,
    verify_realization,
)


@pytest.fixture(scope="module")
def rns_row():
    return run_row(rns_benchmark([3, 5, 7]), verify=True)


class TestDesign:
    def test_cell_limits_respected(self):
        isf = pnary_benchmark(3, 3).build()
        cost, realization, forest = design(isf, reduce=False, sift=False)
        for cascade, _, _ in forest:
            for cell in cascade.cells:
                assert cell.num_inputs <= 12
                assert cell.num_outputs <= 10

    def test_dc0_realization_exact(self):
        benchmark = pnary_benchmark(3, 3)
        isf = benchmark.build()
        _, realization, _ = design(isf.extension(0), reduce=False, sift=False)
        for m in benchmark.iter_care_minterms():
            assert realization.evaluate(m) == benchmark.reference(m)

    def test_reduced_realization_on_care_set(self):
        benchmark = pnary_benchmark(3, 3)
        isf = benchmark.build()
        _, realization, _ = design(isf, reduce=True, sift=False)
        for m in benchmark.iter_care_minterms():
            assert realization.evaluate(m) == benchmark.reference(m)


class TestRunRow:
    def test_row_fields(self, rns_row):
        assert rns_row.name == "3-5-7 RNS"
        assert rns_row.dc0.cells >= 1
        assert rns_row.reduced.cells >= 1
        assert rns_row.dc0.cascades >= 2  # bi-partitioned outputs

    def test_reduced_not_larger(self, rns_row):
        assert rns_row.reduced.lut_memory_bits <= rns_row.dc0.lut_memory_bits * 1.5

    def test_verify_helper_detects_mismatch(self):
        benchmark = rns_benchmark([3, 5])
        isf = benchmark.build()
        _, realization, _ = design(isf.extension(0), reduce=False, sift=False)

        class Broken:
            def evaluate(self, m):
                return realization.evaluate(m) ^ 1

        with pytest.raises(Exception):
            verify_realization(benchmark, Broken())


class TestFormatting:
    def test_format(self, rns_row):
        text = format_table5([rns_row])
        assert "3-5-7 RNS" in text
        assert "Average cell reduction" in text
        assert "#Cel DC=0" in text


COMMITTED_TABLE5 = Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "table5.txt"


def committed_row(name: str) -> dict[str, int]:
    """One row of the committed Table 5, keyed by column header."""
    lines = COMMITTED_TABLE5.read_text().splitlines()
    header = [cell.strip() for cell in lines[0].split("|")]
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] == name:
            return {h: int(c) for h, c in zip(header[1:], cells[1:])}
    raise AssertionError(f"{name!r} is not in {COMMITTED_TABLE5}")


def test_decimal_adder_matches_committed_table():
    """The fast paper row, verified, equals its committed line in every column."""
    row = run_row(get_benchmark("3-digit decimal adder"), verify=True)
    got = {
        "In": row.n_inputs,
        "Out": row.n_outputs,
        "#Cel DC=0": row.dc0.cells,
        "#Cel Alg3.3": row.reduced.cells,
        "#LUT DC=0": row.dc0.lut_outputs,
        "#LUT Alg3.3": row.reduced.lut_outputs,
        "#Cas DC=0": row.dc0.cascades,
        "#Cas Alg3.3": row.reduced.cascades,
        "#RV": row.reduced.redundant_vars,
        "MemBits DC=0": row.dc0.lut_memory_bits,
        "MemBits Alg3.3": row.reduced.lut_memory_bits,
    }
    assert got == committed_row("3-digit decimal adder")
