"""Cross-subsystem integration scenarios.

Each test exercises several packages together the way a downstream
user would, beyond what the per-module suites cover.
"""

import dataclasses

import pytest

from repro import (
    MultiChannelMemorySystem,
    SystemConfig,
    VideoRecordingLoadModel,
    VideoRecordingUseCase,
    level_by_name,
    pace_transactions,
    read_trace,
    write_trace,
)
from repro.analysis.validate import validate_configuration
from repro.controller.mapping import AddressMultiplexing
from repro.power.report import compute_frame_power

SCALE = 1 / 64


def frame_txns(level_name="3.1", scale=SCALE, base=0):
    load = VideoRecordingLoadModel(
        VideoRecordingUseCase(level_by_name(level_name)), base_address=base
    )
    return load.generate_frame(scale=scale)


class TestTraceDrivenPipeline:
    def test_trace_file_round_trip_preserves_simulation(self, tmp_path):
        """Generating traffic, persisting it, replaying it from disk
        and simulating must give bit-identical results."""
        txns = frame_txns()
        path = tmp_path / "frame.trace"
        write_trace(path, txns)
        system = MultiChannelMemorySystem(SystemConfig(channels=4))
        direct = system.run(txns, scale=SCALE)
        replayed = system.run(read_trace(path), scale=SCALE)
        assert direct.access_time_ns == replayed.access_time_ns
        assert direct.merged_counters().as_dict() == (
            replayed.merged_counters().as_dict()
        )

    def test_paced_trace_round_trip(self, tmp_path):
        """Arrival times survive the trace format."""
        paced = pace_transactions(frame_txns(), frame_period_ms=33.333 * SCALE)
        path = tmp_path / "paced.trace"
        write_trace(path, paced)
        back = read_trace(path)
        assert [t.arrival_ns for t in back] == [t.arrival_ns for t in paced]


class TestCrossDeviceConsistency:
    def test_same_timing_same_access_time_different_power(self):
        """STANDARD_DDR2 shares the next-gen part's timing, so access
        times match exactly while power differs -- a strong internal
        consistency check across the device/power layers."""
        from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR, STANDARD_DDR2

        txns = frame_txns()
        results = {}
        for device in (NEXT_GEN_MOBILE_DDR, STANDARD_DDR2):
            config = SystemConfig(channels=2, freq_mhz=400.0, device=device)
            result = MultiChannelMemorySystem(config).run(txns, scale=SCALE)
            power = compute_frame_power(config, result, 33.333)
            results[device.name] = (result.access_time_ns, power.total_power_w)
        (t_ng, p_ng) = results[NEXT_GEN_MOBILE_DDR.name]
        (t_std, p_std) = results[STANDARD_DDR2.name]
        assert t_ng == t_std
        assert p_std > 1.5 * p_ng


class TestEndToEndValidation:
    @pytest.mark.parametrize(
        "scheme", list(AddressMultiplexing), ids=lambda s: s.value
    )
    def test_1080p_validates_under_every_mapping(self, scheme):
        config = dataclasses.replace(
            SystemConfig(channels=4, freq_mhz=400.0), multiplexing=scheme
        )
        summary = validate_configuration(
            level_by_name("4"), config, chunk_budget=40_000
        )
        assert summary.all_passed, summary.failures()

    def test_paced_run_validates_protocol(self):
        paced = pace_transactions(frame_txns(), frame_period_ms=33.333 * SCALE)
        system = MultiChannelMemorySystem(SystemConfig(channels=4))
        logs = []
        result = system.run(paced, scale=SCALE, command_logs=logs)
        assert system.audit(logs) == []
        # The paced stream powered down mid-frame and stayed legal.
        assert result.merged_counters().power_down_entries > 0
