"""Tests for the system configuration."""

import pytest

from repro.controller.mapping import AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_design_point(self):
        cfg = SystemConfig()
        assert cfg.channels == 1
        assert cfg.freq_mhz == 400.0
        assert cfg.multiplexing is AddressMultiplexing.RBC
        assert cfg.page_policy is PagePolicy.OPEN
        assert cfg.power_down.name == "immediate"

    def test_paper_sweep_constants(self):
        assert PAPER_CHANNEL_COUNTS == (1, 2, 4, 8)
        assert PAPER_FREQUENCIES_MHZ == (200.0, 266.0, 333.0, 400.0, 466.0, 533.0)


class TestValidation:
    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(channels=0)

    def test_rejects_non_power_of_two_channels(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(channels=3)

    @pytest.mark.parametrize("channels", [True, False, 2.0, "2", None])
    def test_rejects_non_int_channels(self, channels):
        # True == 1 would share the point but not the key of channels=1.
        with pytest.raises(ConfigurationError, match="must be an int"):
            SystemConfig(channels=channels)

    def test_with_channels_rejects_bool(self):
        with pytest.raises(ConfigurationError, match="must be an int"):
            SystemConfig(channels=2).with_channels(True)

    def test_rejects_out_of_range_frequency(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(freq_mhz=100.0)

    def test_accepts_paper_extremes(self):
        SystemConfig(channels=8, freq_mhz=533.0)
        SystemConfig(channels=1, freq_mhz=200.0)


class TestDerived:
    def test_peak_bandwidth_8ch_400mhz(self):
        cfg = SystemConfig(channels=8, freq_mhz=400.0)
        assert cfg.peak_bandwidth_bytes_per_s == pytest.approx(25.6e9)

    def test_total_capacity(self):
        cfg = SystemConfig(channels=4)
        assert cfg.total_capacity_bytes == 4 * 64 * 2**20

    def test_with_channels(self):
        cfg = SystemConfig(channels=1).with_channels(8)
        assert cfg.channels == 8
        assert cfg.freq_mhz == 400.0

    def test_with_frequency(self):
        cfg = SystemConfig().with_frequency(266.0)
        assert cfg.freq_mhz == 266.0

    def test_describe_mentions_key_facts(self):
        text = SystemConfig(channels=4).describe()
        assert "4ch" in text
        assert "400" in text
        assert "RBC" in text
