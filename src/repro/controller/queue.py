"""Bounded command-queue model.

A real memory controller holds a finite number of outstanding column
commands; command issue can therefore only run a bounded distance
ahead of the data the DRAM is still delivering.  The paper's channel
model is transaction-level, so we capture the effect with a single
parameter: the command for access *i* may not issue before the data
phase of access *i - depth* has started.

The bound matters for row misses: with a deep queue the controller
issues the precharge/activate pair for an upcoming row while earlier
bursts still occupy the data bus, hiding most of tRP+tRCD; with a
shallow queue the miss latency lands on the critical path.

Where ``depth - 1`` bursts cover the column latency the bound provably
never binds (:meth:`CommandQueueModel.can_bind`), and the engines skip
the ring altogether.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.dram.timing import TimingCycles


@dataclass(frozen=True)
class CommandQueueModel:
    """Depth of the controller's column-command queue."""

    #: Maximum accesses whose commands may be in flight ahead of data.
    depth: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= 4096:
            raise ConfigurationError(
                f"queue depth must be in [1, 4096], got {self.depth}"
            )

    def make_ring(self) -> list:
        """Create the engine's ring buffer of past data-start times."""
        return [0] * self.depth

    def covers(self, burst: int, latency: int) -> bool:
        """Whether ``depth - 1`` bursts cover a column latency, so that
        the queue floor cannot bind on an access whose predecessor was
        issued with at most that latency.

        Each access's data starts at least one burst after its
        predecessor's (the column command is max'ed with ``bus_free -
        latency``), so the ring entry access *j* consumes is ``ds[j -
        depth] <= ds[j - 1] - (depth - 1) * burst``.  Access *j - 1*
        left ``cmd_free >= ds[j - 1] - latency + 1``; when ``(depth -
        1) * burst >= latency - 1`` the floor is at most ``cmd_free``
        and cannot raise the issue time or count a stall.  Initial
        entries are zero and ``cmd_free`` never goes below zero.
        """
        return (self.depth - 1) * burst >= latency - 1

    def can_bind(self, timing: "TimingCycles") -> bool:
        """Whether the queue floor can ever bind at these timings:
        true unless the queue :meth:`covers` the longer of the read
        and write latencies.  Where it cannot bind, an engine may skip
        the ring (its reads, writes and index steps) with no effect on
        any result or issued command."""
        return not self.covers(
            timing.burst_cycles, max(timing.cas_latency, timing.write_latency)
        )
