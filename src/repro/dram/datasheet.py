"""Calibrated parameter sets for the paper's *next-generation mobile
DDR SDRAM*.

Section III: the bank clusters are "based on our best estimations on
the next generation mobile DDR SDRAM", because "no 3D integration
compatible standard memory components exist at this time".  Timing and
power are "estimated according to the contemporary Mobile DDR SDRAM
devices" (Micron 512 Mb x32 Mobile DDR, 133-200 MHz [12]-[14]), with
frequency-linked parameters extrapolated over the DDR2 clock range
(200-533 MHz) and the core voltage projected to 1.35 V; the I/O voltage
is projected to 1.2 V.

The paper never publishes its extrapolated numbers, so the values here
are reconstructed the same way the authors describe and then
**calibrated** so the published anchors hold at 400 MHz:

- single-channel 720p30 recording ~ 150 mW, 8-channel ~ 205 mW,
- 4-channel 1080p30 ~ 345 mW,
- 8-channel 2160p30 ~ 1280 mW (4 %-25 % of the 5 W XDR reference).

Each constant is annotated with its provenance.  The power-down
currents are *effective* values: they fold in the per-channel
controller/interconnect clocking the paper's channel model charges to
an idle channel (Fig. 5 implies about 7-8 mW per idle channel at
400 MHz, well above a bare Mobile DDR die's sub-milliwatt IDD2P).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import TimingParameters
from repro.dram.device import BankClusterGeometry
from repro.dram.refresh import RefreshParameters
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CurrentSet:
    """IDD operating currents (mA) at a reference clock and voltage.

    The naming follows the Micron power-calculation methodology
    (Micron TN-46-03, reference [13] of the paper).  Currents are
    scaled to other operating points by :class:`repro.dram.power.PowerModel`:

    - background currents scale as ``0.5 + 0.5 * f/f0`` (half static,
      half clock-tree),
    - switching increments (bursts, activates, refreshes) scale
      linearly with ``f/f0``,
    - all powers scale with ``(V/V0)**2``.
    """

    #: Reference clock (MHz) and core voltage (V) of the quoted currents.
    reference_freq_mhz: float
    reference_voltage_v: float

    #: IDD0: one-bank activate-precharge cycling at tRC.
    idd0_ma: float
    #: IDD2P: precharge power-down (effective, incl. channel clocking).
    idd2p_ma: float
    #: IDD2N: precharge standby (all banks idle, CKE high).
    idd2n_ma: float
    #: IDD3P: active power-down (row open, CKE low).
    idd3p_ma: float
    #: IDD3N: active standby (row open, CKE high, no data).
    idd3n_ma: float
    #: IDD4R: continuous burst read.
    idd4r_ma: float
    #: IDD4W: continuous burst write.
    idd4w_ma: float
    #: IDD5: auto-refresh current averaged over tRFC.
    idd5_ma: float
    #: IDD6: self refresh (no model here uses it; kept so each
    #: datasheet's current table is complete).
    idd6_ma: float

    def __post_init__(self) -> None:
        if self.reference_freq_mhz <= 0 or self.reference_voltage_v <= 0:
            raise ConfigurationError("reference operating point must be positive")
        for name in (
            "idd0_ma",
            "idd2p_ma",
            "idd2n_ma",
            "idd3p_ma",
            "idd3n_ma",
            "idd4r_ma",
            "idd4w_ma",
            "idd5_ma",
            "idd6_ma",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.idd4r_ma < self.idd3n_ma or self.idd4w_ma < self.idd3n_ma:
            raise ConfigurationError(
                "burst currents must be at least the active-standby current"
            )
        if self.idd0_ma < self.idd3n_ma:
            raise ConfigurationError(
                "IDD0 must be at least the active-standby current"
            )


@dataclass(frozen=True)
class DeviceDescriptor:
    """Complete description of one bank cluster (one channel's DRAM).

    Bundles geometry, timing, refresh and current parameters together
    with the projected operating voltage so a channel model can be
    built from a single object.
    """

    name: str
    geometry: BankClusterGeometry
    timing: TimingParameters
    refresh: RefreshParameters
    currents: CurrentSet
    #: Projected core supply voltage, V (the paper projects 1.35 V).
    core_voltage_v: float
    #: Projected I/O supply voltage, V (the paper estimates 1.2 V for
    #: the interface-power equation).
    io_voltage_v: float

    def __post_init__(self) -> None:
        if self.core_voltage_v <= 0 or self.io_voltage_v <= 0:
            raise ConfigurationError("supply voltages must be positive")

    def peak_bandwidth_bytes_per_s(self, freq_mhz: float) -> float:
        """Theoretical peak data bandwidth of one channel in bytes/s.

        A 32-bit DDR interface moves ``2 * 4`` bytes per clock:
        3.2 GB/s per channel at 400 MHz, hence the paper's 25.6 GB/s
        raw for eight channels.
        """
        self.timing.validate_frequency(freq_mhz)
        bytes_per_cycle = 2 * (self.geometry.word_bits // 8)
        return bytes_per_cycle * freq_mhz * 1e6


def next_gen_mobile_ddr() -> DeviceDescriptor:
    """Build the calibrated next-generation mobile DDR SDRAM descriptor.

    Timing provenance (Micron 512 Mb x32 Mobile DDR, -5 speed grade at
    200 MHz, reference [12]):

    ========== ========= =========================================
    parameter   value     datasheet origin
    ========== ========= =========================================
    tRCD        15 ns     3 clocks at 5 ns
    tRP         15 ns     3 clocks at 5 ns
    tRAS        40 ns     8 clocks at 5 ns
    tRC         55 ns     tRAS + tRP
    tRRD        10 ns     2 clocks at 5 ns
    tWR         15 ns     3 clocks at 5 ns
    tRFC        72 ns     auto-refresh cycle
    tREFI       7.8 us    64 ms / 8192 rows
    CAS         15 ns     CL=3 at 200 MHz, kept constant in ns
    BL          4 words   paper: "minimum DRAM burst size is four"
    ========== ========= =========================================

    Current provenance: IDD shapes follow the Micron Mobile DDR power
    notes ([13], [14]); absolute values are calibrated to the paper's
    Fig. 5 anchors as described in the module docstring.
    """
    geometry = BankClusterGeometry(
        capacity_bits=512 * 2**20,  # 512 Mb per bank cluster (Section III)
        banks=4,  # "The bank cluster contains four banks"
        word_bits=32,  # "The word width of a data access is 32 bits"
        row_bytes=4096,  # x32 device, 1024 columns of 4 bytes
    )
    timing = TimingParameters(
        t_rcd_ns=15.0,
        t_rp_ns=15.0,
        t_ras_ns=40.0,
        t_rc_ns=55.0,
        t_rrd_ns=10.0,
        t_wr_ns=15.0,
        t_rfc_ns=72.0,
        t_refi_ns=7800.0,
        cas_ns=15.0,
        burst_length=4,
        write_latency_cycles=1,
        t_wtr_cycles=2,
        t_rtw_gap_cycles=1,
        t_xp_cycles=2,
        t_cke_cycles=1,
        f_min_mhz=200.0,
        f_max_mhz=533.0,
    )
    refresh = RefreshParameters(
        interval_ns=7800.0,
        all_bank=True,
    )
    currents = CurrentSet(
        reference_freq_mhz=200.0,
        reference_voltage_v=1.8,
        idd0_ma=65.0,
        idd2p_ma=6.5,  # effective: device IDD2P + channel clocking (see module doc)
        idd2n_ma=18.0,
        idd3p_ma=10.0,  # effective, same reasoning as idd2p
        idd3n_ma=22.0,
        idd4r_ma=118.0,
        idd4w_ma=108.0,
        idd5_ma=120.0,
        idd6_ma=0.35,
    )
    return DeviceDescriptor(
        name="next-gen-mobile-ddr-512Mb-x32",
        geometry=geometry,
        timing=timing,
        refresh=refresh,
        currents=currents,
        core_voltage_v=1.35,
        io_voltage_v=1.2,
    )


def contemporary_mobile_ddr() -> DeviceDescriptor:
    """The paper's baseline device: a contemporary (2008) Micron-class
    512 Mb x32 Mobile DDR SDRAM (reference [12]).

    Same core timings as the next-generation projection (they were
    extrapolated *from* this device) but limited to the Mobile DDR
    clock range (133-200 MHz) and the 1.8 V supply.  Currents are the
    device-only values -- in particular the true sub-milliamp
    power-down currents, without the next-generation model's effective
    per-channel clocking overhead.  Useful as the "what you could buy
    in 2008" comparison point.
    """
    base = next_gen_mobile_ddr()
    timing = TimingParameters(
        t_rcd_ns=base.timing.t_rcd_ns,
        t_rp_ns=base.timing.t_rp_ns,
        t_ras_ns=base.timing.t_ras_ns,
        t_rc_ns=base.timing.t_rc_ns,
        t_rrd_ns=base.timing.t_rrd_ns,
        t_wr_ns=base.timing.t_wr_ns,
        t_rfc_ns=base.timing.t_rfc_ns,
        t_refi_ns=base.timing.t_refi_ns,
        cas_ns=base.timing.cas_ns,
        burst_length=base.timing.burst_length,
        write_latency_cycles=base.timing.write_latency_cycles,
        t_wtr_cycles=base.timing.t_wtr_cycles,
        t_rtw_gap_cycles=base.timing.t_rtw_gap_cycles,
        t_xp_cycles=base.timing.t_xp_cycles,
        t_cke_cycles=base.timing.t_cke_cycles,
        f_min_mhz=133.0,
        f_max_mhz=200.0,
    )
    currents = CurrentSet(
        reference_freq_mhz=200.0,
        reference_voltage_v=1.8,
        idd0_ma=65.0,
        idd2p_ma=0.6,  # device-only power-down (Micron Mobile DDR class)
        idd2n_ma=18.0,
        idd3p_ma=2.0,
        idd3n_ma=22.0,
        idd4r_ma=118.0,
        idd4w_ma=108.0,
        idd5_ma=120.0,
        idd6_ma=0.35,
    )
    return DeviceDescriptor(
        name="mobile-ddr-512Mb-x32-2008",
        geometry=base.geometry,
        timing=timing,
        refresh=base.refresh,
        currents=currents,
        core_voltage_v=1.8,
        io_voltage_v=1.8,
    )


def standard_ddr2() -> DeviceDescriptor:
    """A standard (non-mobile) DDR2-class 512 Mb x32 device.

    The paper's reference [14] (Micron, "Low-Power Versus Standard DDR
    SDRAM") motivates mobile parts by their drastically lower standby
    and power-down currents.  This descriptor captures a standard
    DDR2-class current profile at the same 200-533 MHz clock range so
    the device-comparison benchmark can quantify that argument: similar
    bandwidth, several times the background power.
    """
    base = next_gen_mobile_ddr()
    currents = CurrentSet(
        reference_freq_mhz=200.0,
        reference_voltage_v=1.8,
        idd0_ma=90.0,
        idd2p_ma=35.0,  # standard DDR2 fast-exit power-down
        idd2n_ma=50.0,
        idd3p_ma=40.0,
        idd3n_ma=55.0,
        idd4r_ma=200.0,
        idd4w_ma=190.0,
        idd5_ma=210.0,
        idd6_ma=7.0,
    )
    return DeviceDescriptor(
        name="standard-ddr2-512Mb-x32",
        geometry=base.geometry,
        timing=base.timing,
        refresh=base.refresh,
        currents=currents,
        core_voltage_v=1.8,
        io_voltage_v=1.8,
    )


#: Shared immutable default descriptor (safe to reuse: frozen dataclasses).
NEXT_GEN_MOBILE_DDR = next_gen_mobile_ddr()

#: The 2008-era Mobile DDR baseline (133-200 MHz, 1.8 V).
CONTEMPORARY_MOBILE_DDR = contemporary_mobile_ddr()

#: A standard DDR2-class device with non-mobile current profile.
STANDARD_DDR2 = standard_ddr2()
