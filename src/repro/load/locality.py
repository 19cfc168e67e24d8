"""Static row-buffer locality analysis of a transaction stream.

Predicts, without running the timing engine, how a transaction stream
will behave in the row buffers: per-channel burst counts, row-buffer
hit rates and activate counts under the open-page policy.  The
prediction walks the exact per-channel, per-bank open-row state the
controller would hold, so for refresh-free windows it matches the
engine's counters *exactly* — the cross-validation test pins that.
(Refresh closes all rows every tREFI, so over long windows the engine
reports slightly more activates; the analyzer quantifies the gap.)

Use cases: sizing interleaving/mapping choices before committing to a
simulation sweep, and sanity-checking workload generators (a "video
recording" trace with a 60 % predicted hit rate is a buggy trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.controller.request import CHUNK_SHIFT, MasterTransaction
from repro.core.interleave import ChannelInterleaver
from repro.dram.device import NO_OPEN_ROW, BankClusterGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LocalityPrediction:
    """Predicted row-buffer behaviour of one stream on one layout."""

    channels: int
    scheme: AddressMultiplexing
    #: Bursts per channel.
    chunks_per_channel: Tuple[int, ...]
    #: Predicted activates per channel (open-page, no refresh).
    activates_per_channel: Tuple[int, ...]

    @property
    def total_chunks(self) -> int:
        """Total bursts across channels."""
        return sum(self.chunks_per_channel)

    @property
    def total_activates(self) -> int:
        """Total predicted activates."""
        return sum(self.activates_per_channel)

    @property
    def row_hit_rate(self) -> float:
        """Predicted fraction of bursts hitting an open row."""
        if self.total_chunks == 0:
            return 1.0
        return 1.0 - self.total_activates / self.total_chunks


def predict_locality(
    transactions: Iterable[MasterTransaction],
    channels: int,
    geometry: BankClusterGeometry,
    scheme: AddressMultiplexing = AddressMultiplexing.RBC,
) -> LocalityPrediction:
    """Walk the open-row state a controller would hold for ``transactions``.

    Addresses wrap modulo the total capacity, mirroring
    :meth:`repro.core.system.MultiChannelMemorySystem.run`.
    """
    if channels < 1:
        raise ConfigurationError(f"channels must be >= 1, got {channels}")
    interleaver = ChannelInterleaver(channels)
    mapping = AddressMapping.build(geometry, scheme)
    bank_shift = mapping.bank_shift
    bank_mask = mapping.bank_mask
    row_shift = mapping.row_shift
    row_mask = mapping.row_mask
    xor_shift = mapping.xor_shift
    xor_mask = mapping.xor_mask

    total_chunks_cap = (geometry.capacity_bytes >> CHUNK_SHIFT) * channels
    chunk_counts = [0] * channels
    activates = [0] * channels
    open_rows: List[List[int]] = [
        [NO_OPEN_ROW] * geometry.banks for _ in range(channels)
    ]

    for txn in transactions:
        span = txn.chunk_span()
        first = span.start % total_chunks_cap
        remaining = len(span)
        while remaining > 0:
            take = min(remaining, total_chunks_cap - first)
            for ch, start, count in interleaver.split_span(first, first + take - 1):
                chunk_counts[ch] += count
                rows = open_rows[ch]
                for k in range(count):
                    chunk = start + k
                    bank = (
                        (chunk >> bank_shift) ^ ((chunk >> xor_shift) & xor_mask)
                    ) & bank_mask
                    row = (chunk >> row_shift) & row_mask
                    if rows[bank] != row:
                        rows[bank] = row
                        activates[ch] += 1
            first = 0
            remaining -= take

    return LocalityPrediction(
        channels=channels,
        scheme=scheme,
        chunks_per_channel=tuple(chunk_counts),
        activates_per_channel=tuple(activates),
    )
