"""Tests for the XDR reference model."""

import pytest

from repro.errors import ConfigurationError
from repro.power.xdr import XDR_CELL_BE, XdrReference


class TestCellBeReference:
    def test_published_numbers(self):
        # Section IV: 1.6 GHz, 25.6 GB/s, typically 5 W.
        assert XDR_CELL_BE.bandwidth_bytes_per_s == pytest.approx(25.6e9)
        assert XDR_CELL_BE.power_w == pytest.approx(5.0)
        assert XDR_CELL_BE.clock_mhz == pytest.approx(1600.0)

    def test_power_ratio(self):
        # The paper's headline: 205 mW is ~4 % of the XDR power.
        assert XDR_CELL_BE.power_ratio(0.205) == pytest.approx(0.041)

    def test_bandwidth_ratio(self):
        assert XDR_CELL_BE.bandwidth_ratio(25.0e9) == pytest.approx(0.977, abs=1e-3)


class TestValidation:
    def test_rejects_bad_reference(self):
        with pytest.raises(ConfigurationError):
            XdrReference("x", bandwidth_bytes_per_s=0, power_w=5, clock_mhz=100)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ConfigurationError):
            XDR_CELL_BE.power_ratio(-1.0)
        with pytest.raises(ConfigurationError):
            XDR_CELL_BE.bandwidth_ratio(-1.0)
