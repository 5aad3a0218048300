"""Tests for the experiments CLI runner."""

import pytest

from repro.experiments.runner import main


class TestCLI:
    def test_single_figure(self, capsys):
        assert main(["fig03"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out
        assert "SpecJBB" in out

    def test_multiple_figures(self, capsys):
        assert main(["fig03", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "fig10" in out

    def test_unknown_figure_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["fig99"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig03", "--scale", "galactic"])

    def test_engine_flag_forwarded(self, capsys):
        assert main(["fig20", "--engine", "sharded"]) == 0
        out = capsys.readouterr().out
        assert "fig20" in out

    def test_engine_flag_warns_when_unsupported(self, capsys):
        assert main(["fig03", "--engine", "sharded"]) == 0
        err = capsys.readouterr().err
        assert "no engine knob" in err


class TestEngineAwareSweep:
    def test_sharded_grid_matches_cluster_sim(self):
        """fig20-22's shared grid is bit-identical across engines."""
        from repro.experiments.cluster_sweep import cluster_sweep

        flat = cluster_sweep("small", partitioned=True)
        sharded = cluster_sweep("small", partitioned=True, engine="sharded")
        assert len(flat) == len(sharded)
        for f, s in zip(flat, sharded):
            assert f.scenario == s.scenario.with_engine("cluster-sim")
            assert f.sim == s.sim

    def test_sharded_requires_partitioned(self):
        from repro.errors import SimulationError
        from repro.experiments.cluster_sweep import cluster_sweep

        with pytest.raises(SimulationError, match="partitioned"):
            cluster_sweep("small", engine="sharded")
