"""System-level configuration of the multi-channel memory subsystem."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.backends.registry import default_backend_name, validate_backend_name
from repro.controller.interconnect import InterconnectModel
from repro.controller.mapping import AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.dram.datasheet import DeviceDescriptor, NEXT_GEN_MOBILE_DDR
from repro.dram.powerstate import ImmediatePowerDown, PowerDownPolicy
from repro.errors import ConfigurationError

#: Channel counts the paper evaluates (Figs. 3-5).
PAPER_CHANNEL_COUNTS = (1, 2, 4, 8)

#: DDR2-derived interface clocks the paper sweeps in Fig. 3, MHz.
PAPER_FREQUENCIES_MHZ = (200.0, 266.0, 333.0, 400.0, 466.0, 533.0)


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of one multi-channel memory subsystem.

    The defaults reproduce the paper's evaluated design point apart
    from the channel count and clock, which every experiment sweeps:
    next-generation mobile DDR bank clusters, RBC multiplexing, open
    page policy, and power-down after the first idle cycle.
    """

    #: Number of parallel channels (the paper evaluates 1, 2, 4, 8).
    channels: int = 1
    #: Interface clock frequency, MHz (the paper sweeps 200-533).
    freq_mhz: float = 400.0
    #: The DRAM device in each channel's bank cluster.
    device: DeviceDescriptor = field(default_factory=lambda: NEXT_GEN_MOBILE_DDR)
    #: Address multiplexing type (Section IV: RBC performs best).
    multiplexing: AddressMultiplexing = AddressMultiplexing.RBC
    #: Row-buffer policy (Section IV: open page everywhere).
    page_policy: PagePolicy = PagePolicy.OPEN
    #: Idle-gap power-down policy (Section III: immediate).
    power_down: PowerDownPolicy = field(default_factory=ImmediatePowerDown)
    #: DRAM interconnect overhead model.
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    #: Controller command-queue model.
    queue: CommandQueueModel = field(default_factory=CommandQueueModel)
    #: Simulation backend evaluating each channel's access stream:
    #: ``"reference"`` (event-driven engine, exact), ``"batch"``
    #: (cached segment decode + closed-form batching, bit-identical to
    #: reference and an order of magnitude faster on streaming
    #: traffic) or ``"analytic"`` (closed-form, O(runs), screening
    #: fidelity) -- plus any backend
    #: registered via :func:`repro.backends.register_backend`.  The
    #: default is the process-wide default backend (``reference``
    #: unless overridden with
    #: :func:`repro.backends.set_default_backend`).
    backend: str = field(default_factory=default_backend_name)
    #: Audit every engine run's command stream against the datasheet
    #: timing constraints, raising :class:`~repro.errors.ProtocolError`
    #: on any violation.  Roughly doubles per-burst simulation cost;
    #: intended for validation runs, not large sweeps.
    check_invariants: bool = False

    def __post_init__(self) -> None:
        # True equals 1 but keys as JSON ``true``; 2.0 is no count at all.
        if isinstance(self.channels, bool) or not isinstance(self.channels, int):
            raise ConfigurationError(
                f"channel count must be an int, got {self.channels!r}"
            )
        if self.channels < 1 or self.channels > 64:
            raise ConfigurationError(
                f"channel count must be in [1, 64], got {self.channels}"
            )
        if self.channels & (self.channels - 1):
            raise ConfigurationError(
                "channel count must be a power of two for the Table II "
                f"interleaving, got {self.channels}"
            )
        validate_backend_name(self.backend)
        self.device.timing.validate_frequency(self.freq_mhz)
        # 400 and 400.0 are one clock and must share one point key
        # (the canonical JSON spells them differently).
        object.__setattr__(self, "freq_mhz", float(self.freq_mhz))

    # -- derived quantities -------------------------------------------------

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Raw aggregate bandwidth: channels x 2 x word bytes x clock.

        25.6 GB/s for eight 32-bit channels at 400 MHz, the number the
        paper compares against the XDR interface's 25.6 GB/s.
        """
        return self.channels * self.device.peak_bandwidth_bytes_per_s(self.freq_mhz)

    @property
    def total_capacity_bytes(self) -> int:
        """Total memory capacity across channels."""
        return self.channels * self.device.geometry.capacity_bytes

    def with_channels(self, channels: int) -> "SystemConfig":
        """Return a copy with a different channel count."""
        return replace(self, channels=channels)

    def with_frequency(self, freq_mhz: float) -> "SystemConfig":
        """Return a copy with a different interface clock."""
        return replace(self, freq_mhz=freq_mhz)

    def with_backend(self, backend: str) -> "SystemConfig":
        """Return a copy selecting a different simulation backend."""
        return replace(self, backend=backend)

    def describe(self) -> str:
        """One-line human-readable description for reports."""
        return (
            f"{self.channels}ch x {self.device.name} @ {self.freq_mhz:g} MHz, "
            f"{self.multiplexing}, {self.page_policy}-page, "
            f"power-down={self.power_down.name}, backend={self.backend}"
        )
