"""The XDR / Cell Broadband Engine comparison point.

Section IV: *"the Cell Broadband Engine (Cell BE) contains a dual XDR
DRAM memory interface.  The XDR memory interface operating with
1.6 GHz clock frequency acquires 25.6 GB/s bandwidth and consumes
typically power of 5 W.  According to this study, the proposed
theoretical next generation mobile DDR SDRAM with eight channels and
400 MHz clock frequency has similar bandwidth (25.0 GB/s) but power
consumption from 4 % to 25 % of the XDR value, depending on the used
encoding format."*
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class XdrReference:
    """A published memory-interface reference point."""

    name: str
    #: Peak bandwidth, bytes/s.
    bandwidth_bytes_per_s: float
    #: Typical power, watts.
    power_w: float
    #: Interface clock, MHz (informational).
    clock_mhz: float

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0 or self.power_w <= 0:
            raise ConfigurationError("reference bandwidth and power must be positive")

    def power_ratio(self, power_w: float) -> float:
        """Fraction of the reference power a competing subsystem uses."""
        if power_w < 0:
            raise ConfigurationError(f"power must be >= 0, got {power_w}")
        return power_w / self.power_w

    def bandwidth_ratio(self, bandwidth_bytes_per_s: float) -> float:
        """Fraction of the reference bandwidth a competitor provides."""
        if bandwidth_bytes_per_s < 0:
            raise ConfigurationError(
                f"bandwidth must be >= 0, got {bandwidth_bytes_per_s}"
            )
        return bandwidth_bytes_per_s / self.bandwidth_bytes_per_s


#: The Cell BE's dual-channel XDR interface (the paper's reference [18]).
XDR_CELL_BE = XdrReference(
    name="Cell BE dual XDR",
    bandwidth_bytes_per_s=25.6e9,
    power_w=5.0,
    clock_mhz=1600.0,
)
