"""Channel interleaving: the paper's Table II memory mapping.

Section III: *"the data for the channels is interleaved in such a way
that all the channels can be used in a single master transaction. ...
Byte addressable memory is used, minimum DRAM burst size is four, and
word length is 32 bits (4 bytes).  This makes minimum practical
interleaving granularity 16 (= 4x4).  For example, addresses from 0 to
15 are located in bank cluster zero and addresses from 16 to 31 in
bank cluster one."*

So global chunk *g* (16-byte granule) lives on channel ``g mod M`` at
local chunk ``g div M``.  Because the mapping is a perfect round-robin,
a contiguous global range decomposes into one *contiguous local* run
per channel -- the property that lets the system simulate channels
independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.controller.request import CHUNK_BYTES, CHUNK_SHIFT, MasterTransaction
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChannelInterleaver:
    """Round-robin interleaving of 16-byte granules over M channels."""

    channels: int
    granularity: int = CHUNK_BYTES

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigurationError(
                f"channel count must be >= 1, got {self.channels}"
            )
        if self.granularity != CHUNK_BYTES:
            raise ConfigurationError(
                "the paper's minimum practical interleaving granularity is "
                f"{CHUNK_BYTES} bytes (burst 4 x 32-bit word); got "
                f"{self.granularity}"
            )

    # -- single-address mapping (Table II) ---------------------------------

    def channel_of(self, address: int) -> int:
        """Bank cluster holding global byte ``address`` (Table II)."""
        if address < 0:
            raise ConfigurationError(f"address must be >= 0, got {address}")
        return (address >> CHUNK_SHIFT) % self.channels

    def local_address(self, address: int) -> int:
        """Channel-local byte address of global byte ``address``."""
        if address < 0:
            raise ConfigurationError(f"address must be >= 0, got {address}")
        chunk = address >> CHUNK_SHIFT
        return ((chunk // self.channels) << CHUNK_SHIFT) | (address & (CHUNK_BYTES - 1))

    def global_address(self, channel: int, local_addr: int) -> int:
        """Inverse mapping: reconstruct the global byte address."""
        if not 0 <= channel < self.channels:
            raise ConfigurationError(f"channel {channel} out of range")
        if local_addr < 0:
            raise ConfigurationError(f"local address must be >= 0, got {local_addr}")
        local_chunk = local_addr >> CHUNK_SHIFT
        chunk = local_chunk * self.channels + channel
        return (chunk << CHUNK_SHIFT) | (local_addr & (CHUNK_BYTES - 1))

    # -- transaction splitting ----------------------------------------------

    def split_span(
        self, first_chunk: int, last_chunk: int
    ) -> List[Tuple[int, int, int]]:
        """Split a global chunk span into per-channel local runs.

        Returns ``(channel, local_start_chunk, count)`` triples for
        every channel that receives at least one chunk of the span
        ``[first_chunk, last_chunk]`` (inclusive).
        """
        if first_chunk < 0 or last_chunk < first_chunk:
            raise ConfigurationError(
                f"invalid chunk span [{first_chunk}, {last_chunk}]"
            )
        m = self.channels
        if m == 1:
            return [(0, first_chunk, last_chunk - first_chunk + 1)]
        out: List[Tuple[int, int, int]] = []
        for ch in range(m):
            offset = (ch - first_chunk) % m
            first_g = first_chunk + offset
            if first_g > last_chunk:
                continue
            count = (last_chunk - first_g) // m + 1
            out.append((ch, first_g // m, count))
        return out

    def split_transaction(
        self, txn: MasterTransaction
    ) -> List[Tuple[int, int, int, int]]:
        """Split a master transaction into per-channel run tuples.

        Returns ``(channel, op, local_start_chunk, count)``; the
        arrival time is handled by the caller because it needs the
        channel clock to convert nanoseconds into cycles.
        """
        span = txn.chunk_span()
        return [
            (ch, int(txn.op), start, count)
            for ch, start, count in self.split_span(span.start, span.stop - 1)
        ]

    def table2_rows(self, columns: int = 6) -> List[Tuple[str, str]]:
        """Regenerate Table II: address ranges and their bank clusters.

        Returns ``(address_range, bank_cluster)`` string pairs covering
        ``columns`` granules and the wrap-around entry, mirroring the
        paper's presentation (``0 -> BC 0``, ``16 -> BC 1``, ...,
        ``16 x (M-1) -> BC M-1``, ``16 x M -> BC 0``).
        """
        rows = []
        for i in range(min(columns, self.channels)):
            base = i * CHUNK_BYTES
            rows.append(
                (f"{base}..{base + CHUNK_BYTES - 1}", f"BC {self.channel_of(base)}")
            )
        wrap = self.channels * CHUNK_BYTES
        rows.append((f"{wrap}..{wrap + CHUNK_BYTES - 1}", f"BC {self.channel_of(wrap)}"))
        return rows
