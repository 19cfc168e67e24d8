"""Bank-cluster geometry.

The paper's memory subsystem has *M* parallel channels; each channel
ends in a **bank cluster** -- "one or more memory banks" with a total
capacity of 512 Mb, four banks, and a 32-bit data word (Section III).
This module describes that geometry; the engines keep per-bank state
in plain lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError, ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class BankClusterGeometry:
    """Static geometry of one bank cluster (one channel's DRAM).

    All sizes are powers of two so that address decoding reduces to
    shifts and masks, exactly as a hardware memory controller does it.
    """

    #: Total capacity in bits (the paper: 512 Mb).
    capacity_bits: int
    #: Number of banks (the paper: 4).
    banks: int
    #: Data word width in bits (the paper: 32).
    word_bits: int
    #: Row (page) size in bytes.
    row_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bits <= 0 or self.capacity_bits % 8:
            raise ConfigurationError(
                f"capacity_bits must be a positive multiple of 8, got {self.capacity_bits}"
            )
        if not _is_power_of_two(self.banks):
            raise ConfigurationError(f"banks must be a power of two, got {self.banks}")
        if self.word_bits % 8 or not _is_power_of_two(self.word_bits // 8):
            raise ConfigurationError(
                f"word_bits must be 8 * power-of-two, got {self.word_bits}"
            )
        if not _is_power_of_two(self.row_bytes):
            raise ConfigurationError(
                f"row_bytes must be a power of two, got {self.row_bytes}"
            )
        if not _is_power_of_two(self.capacity_bytes):
            raise ConfigurationError(
                f"capacity must be a power of two in bytes, got {self.capacity_bytes}"
            )
        if self.rows_per_bank < 1:
            raise ConfigurationError(
                "geometry inconsistent: capacity smaller than banks * row size"
            )

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes (64 MB for the 512 Mb cluster)."""
        return self.capacity_bits // 8

    @property
    def word_bytes(self) -> int:
        """Data word width in bytes."""
        return self.word_bits // 8

    @property
    def bank_bytes(self) -> int:
        """Capacity of one bank in bytes."""
        return self.capacity_bytes // self.banks

    @property
    def rows_per_bank(self) -> int:
        """Number of rows in each bank."""
        return self.bank_bytes // self.row_bytes

    @property
    def columns_per_row(self) -> int:
        """Number of word-sized columns per row."""
        return self.row_bytes // self.word_bytes

    def check_local_address(self, local_addr: int) -> None:
        """Validate a channel-local byte address against the capacity."""
        if not 0 <= local_addr < self.capacity_bytes:
            raise AddressError(
                f"local address {local_addr:#x} outside bank cluster "
                f"capacity {self.capacity_bytes:#x}"
            )


#: Sentinel for "no row open" in the engines' per-bank ``open_row`` lists.
NO_OPEN_ROW = -1
