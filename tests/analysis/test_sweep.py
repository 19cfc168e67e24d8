"""Tests for the sweep machinery."""

import pytest

import repro.analysis.sweep as sweep_mod
from repro.analysis.experiments import run_fig3
from repro.analysis.realtime import RealTimeVerdict
from repro.analysis.sweep import (
    channel_sweep_configs,
    frequency_sweep_configs,
    simulate_use_case,
    sweep_use_case,
)
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.core.system import MultiChannelMemorySystem
from repro.errors import ConfigurationError
from repro.load.model import VideoRecordingLoadModel
from repro.load.pacing import pace_transactions
from repro.telemetry import Telemetry
from repro.usecase.levels import PAPER_LEVELS, level_by_name

BUDGET = 40_000
#: Small enough to run the 120-point paper grid on the stepped engine.
GRID_BUDGET = 2_000


class TestSimulateUseCase:
    def test_point_carries_everything(self):
        level = level_by_name("3.1")
        config = SystemConfig(channels=2, freq_mhz=400.0)
        point = simulate_use_case(level, config, chunk_budget=BUDGET)
        assert point.level is level
        assert point.config is config
        assert point.access_time_ms > 0
        assert point.total_power_mw > 0
        assert isinstance(point.verdict, RealTimeVerdict)

    def test_explicit_scale_respected(self):
        level = level_by_name("3.1")
        config = SystemConfig(channels=2)
        point = simulate_use_case(level, config, scale=1 / 128)
        assert point.result.scale == pytest.approx(1 / 128)

    def test_reported_power_zero_on_fail(self):
        # A single channel cannot do 1080p60: Fig. 5 reports zero.
        point = simulate_use_case(
            level_by_name("4.2"), SystemConfig(channels=1), chunk_budget=BUDGET
        )
        assert point.verdict is RealTimeVerdict.FAIL
        assert point.reported_power_mw == 0.0
        assert point.total_power_mw > 0.0  # raw value still available

    def test_reported_power_nonzero_on_pass(self):
        point = simulate_use_case(
            level_by_name("3.1"), SystemConfig(channels=2), chunk_budget=BUDGET
        )
        assert point.reported_power_mw == point.total_power_mw > 0


class TestSweep:
    def test_cartesian_size(self):
        levels = [level_by_name("3.1"), level_by_name("4")]
        configs = channel_sweep_configs(SystemConfig(), [1, 2])
        points = sweep_use_case(levels, configs, chunk_budget=BUDGET)
        assert len(points) == 4

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            sweep_use_case([], [SystemConfig()])
        with pytest.raises(ConfigurationError):
            sweep_use_case([level_by_name("3.1")], [])


class TestConfigFactories:
    def test_channel_sweep(self):
        configs = channel_sweep_configs(SystemConfig(freq_mhz=266.0), [1, 4, 8])
        assert [c.channels for c in configs] == [1, 4, 8]
        assert all(c.freq_mhz == 266.0 for c in configs)

    def test_frequency_sweep(self):
        configs = frequency_sweep_configs(SystemConfig(channels=2), [200.0, 533.0])
        assert [c.freq_mhz for c in configs] == [200.0, 533.0]
        assert all(c.channels == 2 for c in configs)


def outputs(point):
    """Everything a point's figures are made of, compared exactly."""
    return (
        point.level.name,
        point.config,
        point.access_time_ms,
        point.total_power_mw,
        point.verdict,
        point.result.engine_stats(),
    )


def phase_calls(telemetry, name):
    return {p.name: p.calls for p in telemetry.profile_report().phases}.get(name, 0)


def simulated_metrics(telemetry):
    """Counters and histograms a point records (the sweep's own
    ``sweep.*`` metrics dropped)."""
    metrics = telemetry.registry.as_dict()
    return {
        kind: {
            name: value
            for name, value in metrics[kind].items()
            if not name.startswith("sweep.")
        }
        for kind in ("counters", "histograms")
    }


class TestSharedTraffic:
    """An in-process sweep builds each level's stream once and splits
    it once per channel count; every point still equals its own
    ``simulate_use_case``."""

    @pytest.mark.parametrize("backend", ["reference", "batch"])
    def test_paper_grid_equals_point_by_point(self, backend):
        configs = [
            SystemConfig(channels=m, freq_mhz=f, backend=backend)
            for m in PAPER_CHANNEL_COUNTS
            for f in PAPER_FREQUENCIES_MHZ
        ]
        telemetry = Telemetry.enabled()
        report = sweep_use_case(
            PAPER_LEVELS, configs, chunk_budget=GRID_BUDGET, telemetry=telemetry
        )
        single = Telemetry.enabled()
        expected = [
            simulate_use_case(
                level, config, chunk_budget=GRID_BUDGET, telemetry=single
            )
            for level in PAPER_LEVELS
            for config in configs
        ]
        assert [outputs(p) for p in report] == [outputs(p) for p in expected]
        assert simulated_metrics(telemetry) == simulated_metrics(single)
        assert phase_calls(telemetry, "load.generate") == len(PAPER_LEVELS)
        assert phase_calls(telemetry, "system.interleave") == len(
            PAPER_LEVELS
        ) * len(PAPER_CHANNEL_COUNTS)
        assert phase_calls(single, "load.generate") == len(expected)

    @pytest.mark.parametrize("backend", ["reference", "batch"])
    def test_fig3_equals_point_by_point(self, backend):
        # run_fig3 sweeps frequency-major, so every channel count's
        # split must survive the clock changes between its reuses.
        level = level_by_name("3.1")
        telemetry = Telemetry.enabled()
        fig3 = run_fig3(
            chunk_budget=GRID_BUDGET, backend=backend, telemetry=telemetry
        )
        single = Telemetry.enabled()
        records = []
        for f in PAPER_FREQUENCIES_MHZ:
            for m in PAPER_CHANNEL_COUNTS:
                point = simulate_use_case(
                    level,
                    SystemConfig(channels=m, freq_mhz=f, backend=backend),
                    chunk_budget=GRID_BUDGET,
                    telemetry=single,
                )
                records.append(
                    {
                        "freq_mhz": f,
                        "channels": m,
                        "access_ms": point.access_time_ms,
                        "verdict": point.verdict.name,
                    }
                )
        assert fig3.as_records() == records
        assert simulated_metrics(telemetry) == simulated_metrics(single)
        assert phase_calls(telemetry, "load.generate") == 1
        assert phase_calls(telemetry, "system.interleave") == len(
            PAPER_CHANNEL_COUNTS
        )

    def test_frequency_major_sweep_equals_point_by_point(self):
        level = level_by_name("4")
        configs = [
            SystemConfig(channels=m, freq_mhz=f, backend="batch")
            for f in PAPER_FREQUENCIES_MHZ
            for m in PAPER_CHANNEL_COUNTS
        ]
        report = sweep_use_case([level], configs, chunk_budget=GRID_BUDGET)
        expected = [
            simulate_use_case(level, config, chunk_budget=GRID_BUDGET)
            for config in configs
        ]
        assert [outputs(p) for p in report] == [outputs(p) for p in expected]

    def test_no_state_outlives_a_call(self):
        levels = [level_by_name("3.1"), level_by_name("4")]
        configs = channel_sweep_configs(SystemConfig(backend="batch"), [1, 2])
        telemetry = Telemetry.enabled()
        first = sweep_use_case(
            levels, configs, chunk_budget=GRID_BUDGET, telemetry=telemetry
        )
        assert phase_calls(telemetry, "load.generate") == 2
        second = sweep_use_case(
            levels, configs, chunk_budget=GRID_BUDGET, telemetry=telemetry
        )
        assert phase_calls(telemetry, "load.generate") == 4
        assert phase_calls(telemetry, "system.interleave") == 8
        assert list(second) == list(first)

    @pytest.mark.parametrize(
        "kwargs", [{"workers": 2}, {"point_timeout": 60.0}], ids=["pool", "watchdog"]
    )
    def test_pooled_and_supervised_sweeps_bit_identical(self, kwargs):
        levels = [level_by_name("3.1"), level_by_name("4.2")]
        configs = [
            SystemConfig(channels=m, freq_mhz=f, backend="batch")
            for f in (200.0, 400.0)
            for m in (1, 4)
        ]
        in_process = sweep_use_case(levels, configs, chunk_budget=GRID_BUDGET)
        other = sweep_use_case(levels, configs, chunk_budget=GRID_BUDGET, **kwargs)
        assert list(other) == list(in_process)

    def test_paced_stream_is_split_per_clock(self, monkeypatch):
        """A stream with arrivals splits differently per clock, so the
        sweep must not share one split across clocks."""
        period_ms = 1.0

        class PacedLoad(VideoRecordingLoadModel):
            def generate_frame(self, scale=1.0):
                return pace_transactions(
                    super().generate_frame(scale=scale), period_ms
                )

        monkeypatch.setattr(sweep_mod, "VideoRecordingLoadModel", PacedLoad)
        level = level_by_name("3.1")
        configs = [
            SystemConfig(channels=2, freq_mhz=f, backend="batch")
            for f in (200.0, 400.0)
        ]
        telemetry = Telemetry.enabled()
        report = sweep_use_case(
            [level], configs, chunk_budget=GRID_BUDGET, telemetry=telemetry
        )
        assert phase_calls(telemetry, "system.interleave") == 2
        scale = report[0].result.scale
        paced = PacedLoad(sweep_mod.resolve_workload(None).instantiate(level))
        transactions = paced.generate_frame(scale=scale)
        assert any(txn.arrival_ns for txn in transactions)
        for point, config in zip(report, configs):
            system = MultiChannelMemorySystem(config)
            direct = system.run(transactions, scale=scale)
            assert point.result.channels == direct.channels
