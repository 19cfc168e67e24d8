"""End-to-end: every zoo spec sweeps, resumes and caches -- with
per-workload keys -- plus the CLI surface (``--workload``,
``--workload-param``, ``workloads``)."""

import pytest

from repro.analysis.sweep import sweep_use_case
from repro.cli import main
from repro.core.config import SystemConfig
from repro.service.cache import ResultCache
from repro.usecase.levels import level_by_name
from repro.workloads.registry import _BUILTIN, resolve_workload

LEVEL = level_by_name("3.1")
CONFIGS = (SystemConfig(channels=2), SystemConfig(channels=4))
SCALE = 1 / 256
ZOO = sorted(_BUILTIN)


class TestSweepEveryZooSpec:
    @pytest.mark.parametrize("name", ZOO)
    def test_sweeps_end_to_end(self, name):
        points = sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload=name
        )
        assert len(points) == len(CONFIGS)
        assert all(p.access_time_ms > 0 for p in points)

    @pytest.mark.parametrize("name", ZOO)
    def test_cache_resume_per_workload(self, name, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload=name, cache=cache
        )
        assert len(cache) == len(CONFIGS)
        again = sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload=name, cache=cache,
            resume=True,
        )
        assert again.cached == len(CONFIGS)
        assert [p.access_time_ms for p in again] == [
            p.access_time_ms for p in first
        ]

    def test_checkpoint_does_not_alias_across_workloads(self, tmp_path):
        """A resumed camcorder sweep must not reuse vvc_encoder points
        stored for the same grid coordinates."""
        cache = ResultCache(tmp_path / "cache")
        vvc = sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload="vvc_encoder",
            cache=cache, resume=True,
        )
        camcorder = sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload="h264_camcorder",
            cache=cache, resume=True,
        )
        assert camcorder.cached == 0
        assert [p.access_time_ms for p in camcorder] != [
            p.access_time_ms for p in vvc
        ]

    def test_cache_does_not_alias_across_workloads(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload="vvc_encoder", cache=cache
        )
        assert cache.stats()["writes"] == len(CONFIGS)
        sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload="vdcm_display", cache=cache
        )
        stats = cache.stats()
        assert stats["hits"] == 0
        assert stats["writes"] == 2 * len(CONFIGS)
        # Same workload again: pure hits.
        sweep_use_case(
            [LEVEL], CONFIGS, scale=SCALE, workload="vvc_encoder", cache=cache
        )
        assert cache.stats()["hits"] == len(CONFIGS)

    def test_workload_params_produce_distinct_results(self):
        base = sweep_use_case(
            [LEVEL], CONFIGS[:1], scale=SCALE, workload="vvc_encoder"
        )
        bound = resolve_workload("vvc_encoder", {"encoder_factor": 24.0})
        heavier = sweep_use_case(
            [LEVEL], CONFIGS[:1], scale=SCALE, workload=bound
        )
        assert heavier[0].access_time_ms > base[0].access_time_ms


class TestCliWorkloadSurface:
    def test_workloads_subcommand_lists_zoo(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ZOO:
            assert name in out
        assert "(default)" in out

    def test_unknown_workload_is_eagerly_loud(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="vvc_encoder"):
            main(["--workload", "vcc_encoder", "fig3"])

    def test_sweep_with_workload(self, capsys):
        assert (
            main(
                [
                    "--workload",
                    "vdcm_display",
                    "--scale",
                    str(SCALE),
                    "sweep",
                    "--levels",
                    "3.1",
                    "--channels",
                    "2",
                    "--freqs",
                    "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[vdcm_display]" in out
        assert "1/1 points completed" in out

    def test_workload_param_flag(self, capsys):
        assert (
            main(
                [
                    "--workload",
                    "h264_lossy_ec",
                    "--workload-param",
                    "ec_ratio=0.25",
                    "--scale",
                    str(SCALE),
                    "breakdown",
                    "--level",
                    "3.1",
                    "--channels",
                    "2",
                ]
            )
            == 0
        )
        assert "Per-stage breakdown" in capsys.readouterr().out

    def test_bad_workload_param_syntax(self):
        with pytest.raises(SystemExit, match="NAME=VALUE"):
            main(
                [
                    "--workload",
                    "vvc_encoder",
                    "--workload-param",
                    "encoder_factor",
                    "fig3",
                ]
            )

    def test_bad_workload_param_value_is_loud(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="encoder_factor"):
            main(
                [
                    "--workload",
                    "vvc_encoder",
                    "--workload-param",
                    "encoder_factor=-1",
                    "fig3",
                ]
            )

    def test_fig3_runs_under_vvc(self, capsys):
        assert (
            main(["--workload", "vvc_encoder", "--scale", str(SCALE), "fig3"])
            == 0
        )
        assert "Fig. 3" in capsys.readouterr().out

    def test_explore_accepts_workload(self, capsys):
        assert (
            main(
                [
                    "--workload",
                    "vdcm_display",
                    "--scale",
                    str(SCALE),
                    "explore",
                    "--level",
                    "3.1",
                ]
            )
            == 0
        )
        assert "Design exploration" in capsys.readouterr().out
