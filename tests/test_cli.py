"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


@pytest.fixture
def fast_args():
    # Tiny workload fraction keeps CLI tests quick.
    return ["--scale", str(1 / 256)]


class TestSubcommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Video encoder" in out

    def test_table2_channels(self, capsys):
        assert main(["table2", "--channels", "4"]) == 0
        out = capsys.readouterr().out
        assert "BC 0" in out
        assert "4 channels" in out

    def test_fig3(self, capsys, fast_args):
        assert main(fast_args + ["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "Clock [MHz]" in out

    def test_fig4(self, capsys, fast_args):
        assert main(fast_args + ["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out

    def test_fig5(self, capsys, fast_args):
        assert main(fast_args + ["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "mW" in out

    def test_xdr(self, capsys, fast_args):
        assert main(fast_args + ["xdr"]) == 0
        out = capsys.readouterr().out
        assert "XDR" in out

    def test_budget_flag(self, capsys):
        assert main(["--budget", "20000", "fig3"]) == 0
        assert "Fig. 3" in capsys.readouterr().out


class TestArgumentHandling:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_fig4_custom_frequency(self, capsys, fast_args):
        assert main(fast_args + ["fig4", "--freq", "266"]) == 0
        assert "266" in capsys.readouterr().out


class TestNewSubcommands:
    def test_breakdown(self, capsys):
        assert main(["--budget", "30000", "breakdown", "--level", "3.1",
                     "--channels", "2"]) == 0
        out = capsys.readouterr().out
        assert "Per-stage breakdown" in out
        assert "Video encoder" in out

    def test_explore(self, capsys):
        assert main(["--budget", "30000", "explore", "--level", "3.2"]) == 0
        out = capsys.readouterr().out
        assert "minimum channels" in out

    def test_csv_export(self, tmp_path, capsys):
        csv_dir = tmp_path / "out"
        assert main(["--budget", "20000", "--csv", str(csv_dir), "fig4"]) == 0
        assert (csv_dir / "fig4.csv").exists()
        header = (csv_dir / "fig4.csv").read_text().splitlines()[0]
        assert header.startswith("level,")

    def test_csv_export_table1(self, tmp_path):
        csv_dir = tmp_path / "t1"
        assert main(["--csv", str(csv_dir), "table1"]) == 0
        assert (csv_dir / "table1.csv").exists()

    def test_chart_flag(self, capsys):
        assert main(["--budget", "20000", "--chart", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # bar characters present

    def test_report(self, tmp_path, capsys):
        out = tmp_path / "R.md"
        assert main(["--budget", "30000", "report", "--out", str(out)]) == 0
        assert out.exists()
        assert "anchors reproduced" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["--budget", "30000", "validate", "--level", "3.1",
                     "--channels", "2"]) == 0
        out = capsys.readouterr().out
        assert "correctness oracles" in out
        assert "VALIDATION FAILED" not in out

    def test_validate_failure_exits_non_zero(self, capsys):
        # 1080p60 on 8 channels at 533 MHz is 18 % off the analytic
        # model, outside its 15 % band.
        assert main(["--budget", "20000", "validate", "--level", "4.2",
                     "--channels", "8", "--freq", "533"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] analytic agreement" in out
        assert "VALIDATION FAILED" in out


class TestResilienceFlags:
    def test_checkpoint_writes_points(self, tmp_path, capsys, fast_args):
        cache = tmp_path / "cache"
        assert main(fast_args + ["--cache-dir", str(cache), "fig4"]) == 0
        assert len(list(cache.glob("*.rc"))) > 0

    def test_resume_reuses_cache(self, tmp_path, capsys, fast_args):
        cache = tmp_path / "cache"
        assert main(fast_args + ["--cache-dir", str(cache), "fig4"]) == 0
        first = capsys.readouterr().out
        entries_after_first = len(list(cache.glob("*.rc")))
        assert main(
            fast_args + ["--cache-dir", str(cache), "--resume", "fig4"]
        ) == 0
        second = capsys.readouterr().out
        # Identical artifact, and no points were re-recorded.
        assert second.split("cache")[0] == first.split("cache")[0]
        assert "0 miss(es), 0 write(s)" in second
        assert len(list(cache.glob("*.rc"))) == entries_after_first

    def test_ignored_quarantine_counts_as_a_miss(
        self, tmp_path, capsys, fast_args
    ):
        # A re-run of a stalled Fig. 3 without --resume retries the
        # quarantined point: its negative entry is read but not served,
        # so it is a miss, and the hits are exactly the points served.
        import json

        from repro.resilience.report import FAILURE_KIND_TIMEOUT, JobFailure
        from repro.service.cache import ResultCache

        cache = tmp_path / "cache"
        assert main(fast_args + ["--cache-dir", str(cache), "fig3"]) == 0
        first = capsys.readouterr().out
        assert "0 hit(s), 24 miss(es), 24 write(s)" in first
        stalled = sorted(cache.glob("*.rc"))[0].stem
        ResultCache(cache).put(
            stalled,
            JobFailure.from_quarantine(
                1, "job", FAILURE_KIND_TIMEOUT, "hung past its deadline"
            ),
        )
        path = tmp_path / "metrics.json"
        assert main(
            fast_args
            + ["--cache-dir", str(cache), "--metrics-out", str(path), "fig3"]
        ) == 0
        rerun = capsys.readouterr().out
        assert "ERR" not in rerun
        assert "23 hit(s), 1 miss(es), 1 write(s)" in rerun
        counters = json.loads(path.read_text())["counters"]
        assert counters["cache.hits"] == counters["sweep.points_cached"] == 23
        assert counters["cache.misses"] == 1

    def test_resume_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["--resume", "fig4"])
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_no_strict_flag_accepted(self, capsys, fast_args):
        assert main(fast_args + ["--no-strict", "fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_check_invariants_fig3(self, capsys):
        assert main(["--budget", "2000", "--check-invariants", "fig3"]) == 0
        assert "Fig. 3" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_metrics_out_writes_schema_valid_json(
        self, tmp_path, capsys, fast_args
    ):
        import json

        from repro.telemetry import validate_metrics

        path = tmp_path / "metrics.json"
        assert main(fast_args + ["--metrics-out", str(path), "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "wrote metrics" in out
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_metrics(payload) == []
        assert payload["command"] == "fig3"
        assert payload["counters"]["sweep.points_total"] > 0
        assert payload["counters"]["engine.reads"] > 0

    def test_metrics_out_artifact_identical_to_untapped_run(
        self, tmp_path, capsys, fast_args
    ):
        assert main(fast_args + ["fig3"]) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "metrics.json"
        assert main(fast_args + ["--metrics-out", str(path), "fig3"]) == 0
        tapped = capsys.readouterr().out
        assert tapped.startswith(plain.rstrip("\n"))

    def test_progress_heartbeats_on_stderr(self, capsys, fast_args):
        assert main(fast_args + ["--progress", "fig3"]) == 0
        err = capsys.readouterr().err
        assert "sweep" in err
        assert "done in" in err

    def test_profile_subcommand(self, capsys, fast_args):
        assert main(fast_args + ["profile", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Phase profile: fig3" in out
        assert "system.engine" in out
        assert "engine.row_hits" in out

    def test_profile_with_metrics_out(self, tmp_path, capsys, fast_args):
        from repro.telemetry import validate_metrics_file

        path = tmp_path / "profile.json"
        assert (
            main(fast_args + ["--metrics-out", str(path), "profile", "fig4"])
            == 0
        )
        assert validate_metrics_file(path) == []

    def test_profile_requires_figure(self):
        with pytest.raises(SystemExit):
            main(["profile"])
        with pytest.raises(SystemExit):
            main(["profile", "table1"])


class TestBackendFlags:
    def test_backend_batch_artifact_identical(self, capsys, fast_args):
        assert main(fast_args + ["fig3"]) == 0
        reference = capsys.readouterr().out
        assert main(fast_args + ["--backend", "batch", "fig3"]) == 0
        batch = capsys.readouterr().out
        assert batch == reference

    def test_backend_analytic_runs(self, capsys, fast_args):
        assert main(fast_args + ["--backend", "analytic", "fig3"]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_unknown_backend_rejected_everywhere(self):
        from repro.errors import ConfigurationError

        # table1 builds no SystemConfig, so this pins the CLI's own
        # eager validation rather than the config's.
        with pytest.raises(ConfigurationError) as excinfo:
            main(["--backend", "nope", "table1"])
        message = str(excinfo.value)
        assert "nope" in message
        assert "reference" in message

    def test_retired_fast_backend_rejected_as_unknown(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            main(["--backend", "fast", "table1"])
        message = str(excinfo.value)
        assert "unknown backend 'fast'" in message
        for name in ("analytic", "batch", "reference"):
            assert name in message

    def test_unknown_prescreen_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["explore", "--level", "3.1", "--prescreen", "nope"])

    def test_metrics_record_backend(self, tmp_path, capsys, fast_args):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            fast_args + ["--backend", "batch", "--metrics-out", str(path),
                         "fig3"]
        ) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["backend"] == "batch"
        assert payload["counters"]["sweep.backend.batch"] > 0

    def test_explore_prescreen(self, capsys):
        assert main(
            ["--budget", "10000", "explore", "--level", "3.1",
             "--prescreen", "analytic"]
        ) == 0
        assert "minimum channels" in capsys.readouterr().out


class TestRegressionSubcommands:
    def test_verify_paper_passes_on_clean_tree(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "cells within tolerance" in out

    def test_verify_paper_screening_backend_widens(self, capsys):
        assert main(["--backend", "analytic", "verify-paper"]) == 0
        assert "backend=analytic" in capsys.readouterr().out

    def test_verify_paper_update_writes_files(self, tmp_path, capsys):
        assert main(
            ["--budget", "3000", "verify-paper", "--update",
             "--goldens", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        for name in ("table1", "table2", "fig3", "fig4", "fig5"):
            assert (tmp_path / f"{name}.json").exists()
        # And the freshly written goldens verify against themselves.
        assert main(["verify-paper", "--goldens", str(tmp_path)]) == 0

    def test_verify_paper_fails_on_mismatch(self, tmp_path, capsys):
        import shutil
        from pathlib import Path

        fixture = (
            Path(__file__).parent / "regression" / "fixtures" / "broken"
        )
        from repro.regression import PACKAGED_GOLDENS_DIR

        for name in ("table2", "fig3", "fig4", "fig5"):
            shutil.copy(PACKAGED_GOLDENS_DIR / f"{name}.json", tmp_path)
        shutil.copy(fixture / "table1.json", tmp_path)
        assert main(["verify-paper", "--goldens", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "MISMATCH" in out

    def test_fuzz_small_campaign(self, capsys):
        assert main(["fuzz", "--cases", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign seed=3: 5 cases" in out
        assert out.rstrip().endswith("PASS")

    def test_fuzz_single_backend_no_invariants(self, capsys):
        assert main(
            ["--backend", "batch", "fuzz", "--cases", "5", "--no-invariants"]
        ) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fuzz_repro_round_trip(self, capsys):
        from repro.regression import generate_case

        spec = generate_case(6, 0).repro()
        assert main(["fuzz", "--repro", spec]) == 0
        out = capsys.readouterr().out
        assert "Repro replay under backend=batch" in out
        assert "PASS" in out

    def test_fuzz_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["--metrics-out", str(path), "fuzz", "--cases", "4"]
        ) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["counters"]["regression.cases"] == 4
        assert payload["counters"]["regression.mismatches"] == 0


class TestSupervisionFlags:
    """--point-timeout and the chaos subcommand."""

    def test_chaos_subcommand_passes(self, capsys):
        from repro.parallel import pool_supported

        if not pool_supported():
            pytest.skip("process pool unavailable on this platform")
        assert main(["--budget", "2000", "chaos", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Chaos campaign" in out
        assert "seed 1:" in out
        assert "PASS" in out

    def test_chaos_rejects_non_integer_seeds(self):
        with pytest.raises(SystemExit, match="comma-separated integer"):
            main(["--budget", "2000", "chaos", "--seeds", "one,two"])

    def test_chaos_rejects_empty_seed_list(self):
        with pytest.raises(SystemExit, match="at least one seed"):
            main(["--budget", "2000", "chaos", "--seeds", ","])

    def test_point_timeout_accepted_on_sweeps(self, capsys, fast_args):
        assert main(fast_args + ["--point-timeout", "120", "fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_point_timeout_accepted_on_explore(self, capsys, fast_args):
        assert main(
            fast_args + ["--point-timeout", "120", "explore", "--level", "3.1"]
        ) == 0

class TestCacheFlags:
    def test_fig3_cold_then_warm(self, tmp_path, capsys, fast_args):
        cache = tmp_path / "cache"
        assert main(fast_args + ["--cache-dir", str(cache), "fig3"]) == 0
        cold = capsys.readouterr().out
        assert "0 hit(s)" in cold
        assert "miss(es)" in cold
        assert main(fast_args + ["--cache-dir", str(cache), "fig3"]) == 0
        warm = capsys.readouterr().out
        assert "24 hit(s), 0 miss(es)" in warm
        # Identical artifact whether computed or served from cache.
        assert warm.split("cache")[0] == cold.split("cache")[0]

    def test_cache_shared_between_figures(self, tmp_path, capsys, fast_args):
        # Fig. 4 and Fig. 5 sweep identical points at 400 MHz, so a
        # cache warmed by one must serve the other.
        cache = tmp_path / "cache"
        assert main(fast_args + ["--cache-dir", str(cache), "fig4"]) == 0
        capsys.readouterr()
        assert main(fast_args + ["--cache-dir", str(cache), "fig5"]) == 0
        out = capsys.readouterr().out
        assert "0 miss(es)" in out
        hits = re.search(r": (\d+) hit\(s\)", out)
        assert hits is not None and int(hits.group(1)) > 0

    def test_explore_accepts_cache_dir(self, tmp_path, capsys, fast_args):
        cache = tmp_path / "cache"
        assert main(
            fast_args
            + ["--cache-dir", str(cache), "explore", "--level", "3.1"]
        ) == 0
        assert "cache" in capsys.readouterr().out

    def test_corrupt_entry_fails_strict_but_degrades(
        self, tmp_path, capsys, fast_args
    ):
        cache = tmp_path / "cache"
        assert main(fast_args + ["--cache-dir", str(cache), "fig3"]) == 0
        capsys.readouterr()
        victim = sorted(cache.glob("*.rc"))[0]
        victim.write_text("garbage, not a cache entry\n")
        # Strict (the default): results still correct, exit code 1
        # flags the store.
        assert main(fast_args + ["--cache-dir", str(cache), "fig3"]) == 1
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "CACHE CORRUPTION" in out
        assert "--no-strict" in out
        # --no-strict tolerates the self-healing recompute.
        assert main(
            fast_args + ["--cache-dir", str(cache), "--no-strict", "fig3"]
        ) == 0
        out = capsys.readouterr().out
        assert "CACHE CORRUPTION" not in out


class TestSweepCommand:
    def test_sweep_reports_grid_and_cache(self, tmp_path, capsys, fast_args):
        cache = tmp_path / "cache"
        args = fast_args + [
            "--cache-dir",
            str(cache),
            "sweep",
            "--levels",
            "3.1",
            "--channels",
            "1,2",
            "--freqs",
            "200,400",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "== Sweep: 1 level(s) x 4 config(s) ==" in cold
        assert "4 write(s)" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "4 served from cache" in warm
        assert "4 hit(s)" in warm

    def test_sweep_metrics_match_engine_sweep(self, tmp_path, fast_args):
        # ``sweep`` exports exactly what a telemetry-enabled
        # ``sweep_use_case`` over the same grid records: per-point
        # engine/system counters and the full phase profile included.
        import json

        from repro.analysis.sweep import sweep_use_case
        from repro.core.config import SystemConfig
        from repro.telemetry import Telemetry
        from repro.usecase.levels import level_by_name

        path = tmp_path / "metrics.json"
        args = fast_args + [
            "--metrics-out", str(path),
            "sweep", "--channels", "1,2", "--freqs", "400",
        ]
        assert main(args) == 0
        payload = json.loads(path.read_text())
        telemetry = Telemetry.enabled()
        sweep_use_case(
            [level_by_name("3.1")],
            [SystemConfig(channels=m, freq_mhz=400.0) for m in (1, 2)],
            scale=1 / 256,
            telemetry=telemetry,
        )
        expected = telemetry.registry.as_dict()
        assert sorted(payload["counters"]) == sorted(expected["counters"])
        assert {"engine.reads", "sim.points", "system.runs"} <= set(
            payload["counters"]
        )
        phases = [phase["name"] for phase in payload["profile"]["phases"]]
        assert phases == [
            phase.name for phase in telemetry.profile_report().phases
        ]
        assert phases[0] == "load.build"
        assert phases[-1] == "power.integrate"

    def test_sweep_metrics_carry_supervision(self, tmp_path, fast_args):
        import json

        path = tmp_path / "metrics.json"
        args = fast_args + [
            "--point-timeout", "60", "--metrics-out", str(path),
            "sweep", "--channels", "1,2", "--freqs", "400",
        ]
        assert main(args) == 0
        payload = json.loads(path.read_text())
        counters = payload["counters"]
        for name in (
            "sweep.timeouts", "sweep.watchdog_kills", "sweep.quarantined"
        ):
            assert counters[name] == 0, name
        interval = payload["histograms"]["sweep.point_interval_seconds"]
        assert interval["count"] == 2

    def test_sweep_defaults_run_paper_grid(self, capsys, fast_args):
        assert main(fast_args + ["sweep", "--freqs", "400"]) == 0
        out = capsys.readouterr().out
        assert "1 level(s) x 4 config(s)" in out
        assert "Verdict" in out

    def test_sweep_rejects_bad_channel_list(self, fast_args):
        with pytest.raises(SystemExit, match="--channels"):
            main(fast_args + ["sweep", "--channels", "1,two"])

    def test_sweep_rejects_empty_freq_list(self, fast_args):
        with pytest.raises(SystemExit, match="--freqs"):
            main(fast_args + ["sweep", "--freqs", ","])

    def test_sweep_rejects_unknown_level(self, fast_args):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="9.9"):
            main(fast_args + ["sweep", "--levels", "9.9"])

    def test_sweep_cache_resume(self, tmp_path, capsys, fast_args):
        cache = tmp_path / "cache"
        args = fast_args + [
            "--cache-dir",
            str(cache),
            "sweep",
            "--freqs",
            "200",
            "--channels",
            "1,2",
        ]
        assert main(args) == 0
        capsys.readouterr()
        resumed_args = args[:2] + ["--resume"] + args[2:]
        assert main(resumed_args) == 0
        assert "2 served from cache" in capsys.readouterr().out
