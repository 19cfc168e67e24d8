"""Tests for refresh parameters."""

import pytest

from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR
from repro.dram.refresh import RefreshParameters
from repro.errors import ConfigurationError


class TestRefreshParameters:
    def test_paper_values(self):
        ref = NEXT_GEN_MOBILE_DDR.refresh
        assert ref.interval_ns == pytest.approx(7800.0)
        assert ref.all_bank

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            RefreshParameters(interval_ns=0.0)
