"""Tests for bank-cluster geometry."""

import dataclasses

import pytest

from repro.dram.device import BankClusterGeometry
from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR
from repro.errors import AddressError, ConfigurationError

GEO = NEXT_GEN_MOBILE_DDR.geometry


class TestPaperGeometry:
    """The Section III bank cluster: 512 Mb, 4 banks, 32-bit words."""

    def test_capacity(self):
        assert GEO.capacity_bits == 512 * 2**20
        assert GEO.capacity_bytes == 64 * 2**20

    def test_banks(self):
        assert GEO.banks == 4

    def test_word_width(self):
        assert GEO.word_bits == 32
        assert GEO.word_bytes == 4

    def test_row_structure(self):
        assert GEO.row_bytes == 4096
        assert GEO.columns_per_row == 1024
        assert GEO.bank_bytes == 16 * 2**20
        assert GEO.rows_per_bank == 4096


class TestValidation:
    def test_rejects_non_power_of_two_banks(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(GEO, banks=3)

    def test_rejects_bad_word_width(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(GEO, word_bits=24)

    def test_rejects_non_power_of_two_row(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(GEO, row_bytes=3000)

    def test_rejects_capacity_not_multiple_of_8(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(GEO, capacity_bits=511)

    def test_rejects_capacity_smaller_than_banks_times_row(self):
        with pytest.raises(ConfigurationError):
            BankClusterGeometry(
                capacity_bits=8 * 1024, banks=4, word_bits=32, row_bytes=4096
            )

    def test_check_local_address(self):
        GEO.check_local_address(0)
        GEO.check_local_address(GEO.capacity_bytes - 1)
        with pytest.raises(AddressError):
            GEO.check_local_address(GEO.capacity_bytes)
        with pytest.raises(AddressError):
            GEO.check_local_address(-1)
