"""Tests for paced (real-time) traffic arrival."""

import pytest

from repro.controller.request import MasterTransaction, Op
from repro.core.config import SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.errors import ConfigurationError
from repro.load.model import VideoRecordingLoadModel
from repro.load.pacing import pace_transactions
from repro.power.report import compute_frame_power
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase

SCALE = 1 / 32


def make_frame():
    load = VideoRecordingLoadModel(VideoRecordingUseCase(level_by_name("3.1")))
    return load.generate_frame(scale=SCALE)


class TestPaceTransactions:
    def test_arrivals_monotone_and_in_window(self):
        txns = make_frame()
        paced = pace_transactions(txns, frame_period_ms=33.333 * SCALE)
        arrivals = [t.arrival_ns for t in paced]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert arrivals[-1] < 33.333 * SCALE * 1e6

    def test_duty_compresses_window(self):
        txns = make_frame()
        tight = pace_transactions(txns, 33.333 * SCALE, duty=0.5)
        loose = pace_transactions(txns, 33.333 * SCALE, duty=1.0)
        assert tight[-1].arrival_ns == pytest.approx(0.5 * loose[-1].arrival_ns)

    def test_payload_untouched(self):
        txns = make_frame()
        paced = pace_transactions(txns, 33.333 * SCALE)
        assert [(t.op, t.address, t.size) for t in paced] == [
            (t.op, t.address, t.size) for t in txns
        ]
        # Original list untouched.
        assert all(t.arrival_ns == 0.0 for t in txns)

    def test_empty_stream(self):
        assert pace_transactions([], 33.3) == []

    def test_validation(self):
        txns = [MasterTransaction(Op.READ, 0, 64)]
        with pytest.raises(ConfigurationError):
            pace_transactions(txns, 0.0)
        with pytest.raises(ConfigurationError):
            pace_transactions(txns, 33.3, duty=0.0)
        with pytest.raises(ConfigurationError):
            pace_transactions(txns, 33.3, duty=1.5)


class TestPacedSimulation:
    def test_paced_run_spans_the_injection_window(self):
        config = SystemConfig(channels=4, freq_mhz=400.0)
        system = MultiChannelMemorySystem(config)
        txns = make_frame()
        window_ms = 33.333 * SCALE

        backlogged = system.run(txns, scale=SCALE)
        paced = system.run(
            pace_transactions(txns, window_ms, duty=0.85), scale=SCALE
        )
        # Backlogged finishes as fast as the memory allows; paced is
        # gated by the injection window.
        assert paced.sample_access_time_ns > backlogged.sample_access_time_ns
        assert paced.sample_access_time_ns >= 0.8 * window_ms * 1e6 * 0.85

    def test_paced_run_powers_down_within_frame(self):
        # The gaps between paced bursts engage the immediate
        # power-down policy *inside* the frame.
        config = SystemConfig(channels=4, freq_mhz=400.0)
        system = MultiChannelMemorySystem(config)
        paced = system.run(
            pace_transactions(make_frame(), 33.333 * SCALE), scale=SCALE
        )
        counters = paced.merged_counters()
        assert counters.power_down_entries > 10
        assert paced.merged_states().active_powerdown_ns > 0

    def test_paced_energy_close_to_backlogged(self):
        # Same traffic, same frame period: the frame energy must be
        # nearly identical whether idle time sits inside or after the
        # access burst (power-down either way).
        config = SystemConfig(channels=2, freq_mhz=400.0)
        system = MultiChannelMemorySystem(config)
        txns = make_frame()
        window_ms = 33.333 * SCALE

        backlogged = system.run(txns, scale=SCALE)
        paced = system.run(pace_transactions(txns, window_ms), scale=SCALE)
        e_back = compute_frame_power(config, backlogged, 33.333).energy_per_frame_j
        e_paced = compute_frame_power(config, paced, 33.333).energy_per_frame_j
        assert e_paced == pytest.approx(e_back, rel=0.15)
