"""DRAM address multiplexing: how a channel-local address becomes a
(bank, row, column) triple.

Section IV of the paper: *"The address multiplexing type defines how
the DRAM input address is mapped to bank address, row address, and
column address.  The shown results utilize Row-Bank-Column (RBC)
address multiplexing type since somewhat better performance were
achieved compared to the Bank-Row-Column (BRC) multiplexing type."*

With **RBC** (row bits above bank bits above column bits) a sequential
stream walks all columns of a row, then the same row index in the
*next bank*, and only wraps to a new row after visiting every bank --
so consecutive row activations land in different banks and can overlap.
With **BRC** the bank bits are on top: a sequential stream exhausts an
entire bank before touching the next, so every row crossing is a
same-bank precharge+activate that cannot be overlapped.  This module
reduces every scheme to shift/mask pairs the channel engines apply
once per aligned block of chunks (:attr:`AddressMapping.block_shift`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.controller.request import CHUNK_SHIFT
from repro.dram.device import BankClusterGeometry
from repro.errors import AddressError, ConfigurationError


class AddressMultiplexing(enum.Enum):
    """Supported address multiplexing types."""

    #: Row-Bank-Column: the paper's default (better performance).
    RBC = "rbc"
    #: Bank-Row-Column: the paper's comparison scheme.
    BRC = "brc"
    #: RBC with the row's low bits XOR-folded into the bank index --
    #: the permutation-based interleaving common in later controllers
    #: (Zhang et al.-style).  Spreads row-conflicting strides across
    #: banks; an extension beyond the paper's two schemes, explored by
    #: the mapping ablation benchmark.
    RBC_XOR = "rbc-xor"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value.upper()


def _log2_exact(value: int, what: str) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ConfigurationError(f"{what} must be a power of two, got {value}")
    return bits


@dataclass(frozen=True)
class AddressMapping:
    """Resolved shift/mask decoding for one multiplexing scheme.

    Decoding operates on *chunk indices* (local byte address divided by
    16) because the engine schedules whole bursts; the four
    byte-offset bits and the two in-burst column bits never influence
    timing.

    Attributes are plain ints so the channel engine can inline
    ``(chunk >> bank_shift) & bank_mask`` without attribute chains in
    the loop (it copies them to locals first).
    """

    scheme: AddressMultiplexing
    geometry: BankClusterGeometry
    bank_shift: int
    bank_mask: int
    row_shift: int
    row_mask: int
    #: Chunks per row (how many bursts fit in one page).
    chunks_per_row: int
    #: XOR folding of the bank index: the engine computes
    #: ``bank = ((chunk >> bank_shift) ^ ((chunk >> xor_shift) & xor_mask))
    #: & bank_mask``.  Plain schemes set ``xor_mask = 0`` so the same
    #: formula decodes every scheme branch-free.
    xor_shift: int = 0
    xor_mask: int = 0

    @classmethod
    def build(
        cls, geometry: BankClusterGeometry, scheme: AddressMultiplexing
    ) -> "AddressMapping":
        """Construct the decode for ``scheme`` over ``geometry``."""
        bank_bits = _log2_exact(geometry.banks, "bank count")
        row_offset_bits = _log2_exact(geometry.row_bytes, "row size")
        row_bits = _log2_exact(geometry.rows_per_bank, "rows per bank")
        if row_offset_bits < CHUNK_SHIFT:
            raise ConfigurationError(
                f"row size {geometry.row_bytes} smaller than the 16-byte "
                "interleaving granularity"
            )
        row_chunk_bits = row_offset_bits - CHUNK_SHIFT

        xor_shift = 0
        xor_mask = 0
        if scheme is AddressMultiplexing.RBC:
            # chunk = row | bank | column-chunks
            bank_shift = row_chunk_bits
            row_shift = row_chunk_bits + bank_bits
        elif scheme is AddressMultiplexing.BRC:
            # chunk = bank | row | column-chunks
            row_shift = row_chunk_bits
            bank_shift = row_chunk_bits + row_bits
        elif scheme is AddressMultiplexing.RBC_XOR:
            bank_shift = row_chunk_bits
            row_shift = row_chunk_bits + bank_bits
            xor_shift = row_shift
            xor_mask = geometry.banks - 1
        else:  # pragma: no cover - exhaustive enum
            raise ConfigurationError(f"unknown multiplexing scheme {scheme!r}")

        return cls(
            scheme=scheme,
            geometry=geometry,
            bank_shift=bank_shift,
            bank_mask=geometry.banks - 1,
            row_shift=row_shift,
            row_mask=geometry.rows_per_bank - 1,
            chunks_per_row=1 << row_chunk_bits,
            xor_shift=xor_shift,
            xor_mask=xor_mask,
        )

    @property
    def block_shift(self) -> int:
        """log2 of :attr:`chunks_per_row`: the lowest decode shift.

        Every scheme puts the column-chunk bits lowest, so ``(bank,
        row)`` is constant over each aligned ``2**block_shift`` block
        of chunks and can change only at a block boundary.  The
        engines decode once per block rather than once per burst.
        """
        return self.chunks_per_row.bit_length() - 1

    # -- decoding ----------------------------------------------------------

    def decode_chunk(self, chunk: int) -> Tuple[int, int]:
        """Decode a local chunk index into ``(bank, row)``.

        The engine inlines this arithmetic; this method exists for
        tests, tools and readability.
        """
        self._check_chunk(chunk)
        bank = (
            (chunk >> self.bank_shift) ^ ((chunk >> self.xor_shift) & self.xor_mask)
        ) & self.bank_mask
        row = (chunk >> self.row_shift) & self.row_mask
        return bank, row

    def decode_address(self, local_addr: int) -> Tuple[int, int, int]:
        """Decode a local byte address into ``(bank, row, column)``.

        The column is the word index within the row, matching how the
        controller presents addresses to the device.
        """
        self.geometry.check_local_address(local_addr)
        chunk = local_addr >> CHUNK_SHIFT
        bank, row = self.decode_chunk(chunk)
        column = (local_addr % self.geometry.row_bytes) // self.geometry.word_bytes
        return bank, row, column

    def encode(self, bank: int, row: int, column: int) -> int:
        """Inverse of :meth:`decode_address` (used by property tests to
        prove the mapping is a bijection)."""
        if not 0 <= bank < self.geometry.banks:
            raise AddressError(f"bank {bank} out of range")
        if not 0 <= row < self.geometry.rows_per_bank:
            raise AddressError(f"row {row} out of range")
        if not 0 <= column < self.geometry.columns_per_row:
            raise AddressError(f"column {column} out of range")
        row_offset = column * self.geometry.word_bytes
        chunk_in_row = row_offset >> CHUNK_SHIFT
        # Invert the XOR folding: XOR is an involution given the row.
        stored_bank = bank ^ (row & self.xor_mask) if self.xor_mask else bank
        chunk = (
            (row << self.row_shift) | (stored_bank << self.bank_shift) | chunk_in_row
        )
        return (chunk << CHUNK_SHIFT) | (row_offset & 0xF)

    def _check_chunk(self, chunk: int) -> None:
        max_chunk = self.geometry.capacity_bytes >> CHUNK_SHIFT
        if not 0 <= chunk < max_chunk:
            raise AddressError(
                f"chunk {chunk} outside bank cluster capacity ({max_chunk} chunks)"
            )

    def banks_between(self, chunk_a: int, chunk_b: int) -> bool:
        """Whether two chunks decode to different banks (used by the
        analytic model to reason about activate overlap)."""
        return self.decode_chunk(chunk_a)[0] != self.decode_chunk(chunk_b)[0]
