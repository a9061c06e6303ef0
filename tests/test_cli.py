"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.isf import dumps_pla, table1_spec


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "width 8 nodes 15" in out
        assert "Algorithm 3.3:   width 4 nodes 12" in out

    def test_table4_small(self, capsys):
        assert main(["table4", "3-5 RNS", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "3-5 RNS" in out
        assert "Ratio" in out

    def test_table5_small(self, capsys):
        assert main(["table5", "3-5 RNS"]) == 0
        out = capsys.readouterr().out
        assert "Average cell reduction" in out

    def test_table6_small(self, capsys):
        assert main(["table6", "30"]) == 0
        out = capsys.readouterr().out
        assert "Fig.8" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "Fig. 9" in out

    def test_pla(self, tmp_path, capsys):
        path = tmp_path / "t.pla"
        path.write_text(dumps_pla(table1_spec()))
        dot = tmp_path / "t.dot"
        assert main(["pla", str(path), "--dump-dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "4 inputs, 2 outputs" in out
        assert dot.read_text().startswith("digraph")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["table4", "table5", "sweep"])
    def test_unknown_benchmark_fails_loudly(self, command, capsys):
        # A usage error (exit 2, one line naming the benchmark), not a
        # traceback, and refused before any row runs.
        with pytest.raises(SystemExit) as info:
            main([command, "3-5 RNS", "definitely-not-a-benchmark"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "unknown benchmark 'definitely-not-a-benchmark'" in captured.err
        assert captured.out == ""

    def test_serve_needs_at_least_one_worker(self, capsys):
        # No listener: the parser must refuse before any other check.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--workers", "0"])
        assert info.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", ["0", "-5"])
    def test_serve_needs_a_positive_housekeep_ceiling(self, capsys, nodes):
        # A ceiling below 1 would evict every warm CF after every query.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--housekeep-nodes", nodes])
        assert info.value.code == 2
        assert "--housekeep-nodes must be at least 1" in capsys.readouterr().err

    def test_sweep_rejects_fabric_with_timeout(self, tmp_path, capsys):
        """A fabric sweep has no row deadline, so ``--timeout`` would
        only reach the ``--compare`` baseline: refused before any run."""
        with pytest.raises(SystemExit) as info:
            main(["sweep", "3-5 RNS", "--tables", "4",
                  "--fabric", str(tmp_path / "fab"), "--timeout", "5"])
        assert info.value.code == 2
        assert "--timeout" in capsys.readouterr().err
        assert not (tmp_path / "fab").exists()
