"""Refresh parameters of a device.

Section III: *"The memory controller takes also care of the data
refresh, done periodically for all DRAM banks."*  The evaluated device
uses all-bank auto refresh every tREFI (7.8 us), each refresh occupying
the cluster for tRFC and leaving every page closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RefreshParameters:
    """Static refresh behaviour of a device.

    ``interval_ns`` is the average periodic refresh interval (tREFI);
    the refresh cycle time itself (tRFC) lives with the other timing
    parameters in :class:`repro.dram.timing.TimingParameters`.
    """

    #: Average refresh command interval, ns (tREFI).
    interval_ns: float
    #: Whether a refresh hits all banks at once (the modelled device
    #: only supports all-bank auto refresh, like Mobile DDR).
    all_bank: bool = True

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise ConfigurationError(
                f"refresh interval must be positive, got {self.interval_ns}"
            )
