"""DRAM timing parameters and their frequency extrapolation.

The paper's rule (Section III): *"The parameters with clear connection
to clock frequency are extrapolated accordingly.  The other parameters
are used exactly as they are denoted in the utilized Mobile DDR SDRAM
datasheet for 200 MHz."*

Concretely that means:

- analog core timings quoted in **nanoseconds** (tRCD, tRP, tRAS, tRC,
  tRRD, tWR, tRFC, CAS latency expressed as an access time, refresh
  interval) stay fixed in nanoseconds and their **cycle counts grow**
  with the interface clock; and
- protocol timings quoted in **clock cycles** (burst length, write
  latency, tWTR, tXP, tCKE) stay fixed in cycles.

:class:`TimingParameters` holds the frequency-independent description;
:meth:`TimingParameters.at_frequency` resolves it into the integer
cycle counts (:class:`TimingCycles`) the controller engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import clock_period_ns, ns_to_cycles


@dataclass(frozen=True)
class TimingParameters:
    """Frequency-independent timing description of a DRAM device.

    Nanosecond-valued fields describe analog core behaviour; cycle-
    valued fields describe interface protocol behaviour.  See
    :mod:`repro.dram.datasheet` for the calibrated values used for the
    paper's next-generation mobile DDR SDRAM.
    """

    #: Row-to-column delay (ACT to RD/WR), ns.
    t_rcd_ns: float
    #: Row precharge time (PRE to ACT), ns.
    t_rp_ns: float
    #: Minimum row active time (ACT to PRE), ns.
    t_ras_ns: float
    #: Row cycle time (ACT to ACT, same bank), ns.
    t_rc_ns: float
    #: ACT-to-ACT delay between *different* banks, ns.
    t_rrd_ns: float
    #: Write recovery (last write data to PRE), ns.
    t_wr_ns: float
    #: Refresh cycle time (REF command duration), ns.
    t_rfc_ns: float
    #: Average periodic refresh interval, ns.
    t_refi_ns: float
    #: CAS (read) latency expressed as an access time, ns.  The cycle
    #: count is ``ceil(cas_ns / tCK)``: 15 ns is CL=3 at 200 MHz and
    #: CL=6 at 400 MHz, matching how DDR2 speed bins kept the access
    #: time roughly constant across the frequency range.
    cas_ns: float

    #: Four-activate window: at most four ACTIVATEs may issue within
    #: any tFAW, bounding the activation current draw, ns.
    t_faw_ns: float = 50.0
    #: Burst length in words (the paper: minimum DRAM burst size is 4).
    burst_length: int = 4
    #: Write latency in cycles (mobile DDR uses a fixed WL of 1).
    write_latency_cycles: int = 1
    #: Write-to-read turnaround after the last write data beat, cycles.
    t_wtr_cycles: int = 2
    #: Read-to-write bus turnaround gap, cycles.
    t_rtw_gap_cycles: int = 1
    #: Power-down exit to first command, cycles.
    t_xp_cycles: int = 2
    #: Minimum CKE-low time (minimum power-down residency), cycles.
    t_cke_cycles: int = 1

    #: Lowest and highest supported interface clock (the paper:
    #: "restricted from 200 to 533 MHz according to DDR2 specification").
    f_min_mhz: float = 200.0
    f_max_mhz: float = 533.0

    def __post_init__(self) -> None:
        for name in (
            "t_rcd_ns",
            "t_rp_ns",
            "t_ras_ns",
            "t_rc_ns",
            "t_rrd_ns",
            "t_wr_ns",
            "t_rfc_ns",
            "t_refi_ns",
            "t_faw_ns",
            "cas_ns",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.burst_length < 2 or self.burst_length % 2:
            raise ConfigurationError(
                f"burst_length must be an even number >= 2 for a DDR device, "
                f"got {self.burst_length}"
            )
        if self.t_rc_ns + 1e-9 < self.t_ras_ns + self.t_rp_ns - 1e-9:
            raise ConfigurationError(
                "t_rc must be at least t_ras + t_rp "
                f"({self.t_rc_ns} < {self.t_ras_ns} + {self.t_rp_ns})"
            )
        if self.f_min_mhz <= 0 or self.f_max_mhz < self.f_min_mhz:
            raise ConfigurationError(
                f"invalid frequency range [{self.f_min_mhz}, {self.f_max_mhz}] MHz"
            )

    def validate_frequency(self, freq_mhz: float) -> None:
        """Raise :class:`ConfigurationError` if ``freq_mhz`` is outside
        the supported interface clock range."""
        if not (self.f_min_mhz <= freq_mhz <= self.f_max_mhz):
            raise ConfigurationError(
                f"clock frequency {freq_mhz} MHz outside the device's "
                f"supported range [{self.f_min_mhz}, {self.f_max_mhz}] MHz"
            )

    def at_frequency(self, freq_mhz: float) -> "TimingCycles":
        """Resolve into integer cycle counts at ``freq_mhz`` (MHz).

        Implements the paper's extrapolation rule: nanosecond
        parameters are converted with ceiling division by the clock
        period; cycle parameters pass through unchanged.  tRCD, tRP and
        tRRD are at least one cycle however short their positive
        nanosecond value: the engines issue PRE, ACT and the column
        command on distinct cycles on that premise.
        """
        self.validate_frequency(freq_mhz)
        tck = clock_period_ns(freq_mhz)
        return TimingCycles(
            freq_mhz=freq_mhz,
            t_ck_ns=tck,
            t_rcd=max(1, ns_to_cycles(self.t_rcd_ns, freq_mhz)),
            t_rp=max(1, ns_to_cycles(self.t_rp_ns, freq_mhz)),
            t_ras=ns_to_cycles(self.t_ras_ns, freq_mhz),
            t_rc=ns_to_cycles(self.t_rc_ns, freq_mhz),
            t_rrd=max(1, ns_to_cycles(self.t_rrd_ns, freq_mhz)),
            t_wr=ns_to_cycles(self.t_wr_ns, freq_mhz),
            t_rfc=ns_to_cycles(self.t_rfc_ns, freq_mhz),
            t_refi=ns_to_cycles(self.t_refi_ns, freq_mhz),
            t_faw=ns_to_cycles(self.t_faw_ns, freq_mhz),
            cas_latency=max(2, ns_to_cycles(self.cas_ns, freq_mhz)),
            write_latency=self.write_latency_cycles,
            burst_cycles=self.burst_length // 2,
            t_wtr=self.t_wtr_cycles,
            t_rtw_gap=self.t_rtw_gap_cycles,
            t_xp=self.t_xp_cycles,
            t_cke=self.t_cke_cycles,
        )


@dataclass(frozen=True)
class TimingCycles:
    """Timing parameters resolved to integer cycle counts at one
    interface clock frequency.

    This is the object the controller hot loop consumes; everything is
    a plain ``int`` so the loop stays arithmetic-only.
    """

    freq_mhz: float
    t_ck_ns: float
    t_rcd: int
    t_rp: int
    t_ras: int
    t_rc: int
    t_rrd: int
    t_wr: int
    t_rfc: int
    t_refi: int
    t_faw: int
    cas_latency: int
    write_latency: int
    #: Data-bus occupancy of one burst: BL/2 cycles on a DDR bus.
    burst_cycles: int
    t_wtr: int
    t_rtw_gap: int
    t_xp: int
    t_cke: int

    def __post_init__(self) -> None:
        # Each engine's refresh catch-up loop moves the command bus on by
        # t_rfc + 1 and the next deadline by t_refi per REF, so it ends
        # only if the deadline outruns the bus.
        if self.t_refi <= self.t_rfc + 1:
            raise ConfigurationError(
                f"tREFI must exceed tRFC + 1 cycles, got tREFI = {self.t_refi} "
                f"and tRFC = {self.t_rfc} cycles at {self.freq_mhz:g} MHz"
            )

    def row_miss_penalty(self) -> int:
        """Unhidden cycles added by a precharge+activate sequence
        relative to a row hit (ignoring overlap with other banks)."""
        return self.t_rp + self.t_rcd

    def faw_can_bind(self, banks: int) -> bool:
        """Whether the four-activate window can ever delay an ACTIVATE
        of an in-order engine on a device with ``banks`` banks.

        Each ACT issues at least ``t_rrd`` after the one before it, so
        ``ACT(n) >= ACT(n-4) + 4*t_rrd``.  Each ACT on a bank issues at
        least ``t_rc`` after the previous ACT on that bank; with at most
        four banks two of any five consecutive ACTs share a bank, so
        ``ACT(n) >= ACT(n-4) + t_rc`` as well.  The window floor
        ``ACT(n-4) + t_faw`` can bind only past both bounds.  Where it
        cannot, an engine may skip its ACT history with no effect on any
        result or issued command.
        """
        return self.t_faw > 4 * self.t_rrd and (banks > 4 or self.t_faw > self.t_rc)

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a cycle count at this frequency to nanoseconds."""
        return cycles * self.t_ck_ns

    def ns_to_cycle_count(self, ns: float) -> int:
        """Convert nanoseconds to a (ceiling) cycle count at this clock."""
        return ns_to_cycles(ns, self.freq_mhz)
