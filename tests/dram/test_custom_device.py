"""Generality test: a user-defined device through the whole stack.

The library must not be hard-wired to the paper's 512 Mb / 4-bank /
x32 part.  This suite builds an eight-bank device with 2 KB rows and
different currents, and drives it through the engine, the protocol
checker, the interleaver, the power model and a full use-case
simulation.  Eight banks also make the four-activate window (tFAW)
*bindable* — on the 4-bank default ``TimingCycles.faw_can_bind`` proves
tRC and tRRD imply it, and the engines skip it — so this is where
tFAW's enforcement is genuinely exercised.
"""

import pytest

from repro.controller.engine import ChannelEngine
from repro.controller.interconnect import InterconnectModel
from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.core.config import SystemConfig
from repro.dram.commands import Command
from repro.dram.datasheet import CurrentSet, DeviceDescriptor, NEXT_GEN_MOBILE_DDR
from repro.dram.device import BankClusterGeometry
from repro.dram.power import PowerModel
from repro.dram.refresh import RefreshParameters
from repro.dram.timing import TimingParameters

IDEAL = InterconnectModel(0.0)


def make_eight_bank_device() -> DeviceDescriptor:
    """A 1 Gb, eight-bank, 2 KB-row x32 device at DDR2 clocks."""
    return DeviceDescriptor(
        name="custom-1Gb-x32-8bank",
        geometry=BankClusterGeometry(
            capacity_bits=1024 * 2**20,  # 1 Gb = 128 MB
            banks=8,
            word_bits=32,
            row_bytes=2048,
        ),
        timing=TimingParameters(
            t_rcd_ns=15.0,
            t_rp_ns=15.0,
            t_ras_ns=40.0,
            t_rc_ns=55.0,
            t_rrd_ns=10.0,
            t_wr_ns=15.0,
            t_rfc_ns=110.0,  # bigger die, longer refresh
            t_refi_ns=7800.0,
            cas_ns=15.0,
            # A power-constrained die: the four-activate window is
            # twice the default so it genuinely binds (in-order issue
            # naturally spaces ACTs ~7 cycles apart at 400 MHz, so
            # 50 ns would never be the limiter).
            t_faw_ns=100.0,
        ),
        refresh=RefreshParameters(interval_ns=7800.0),
        currents=CurrentSet(
            reference_freq_mhz=200.0,
            reference_voltage_v=1.8,
            idd0_ma=80.0,
            idd2p_ma=5.0,
            idd2n_ma=20.0,
            idd3p_ma=8.0,
            idd3n_ma=25.0,
            idd4r_ma=150.0,
            idd4w_ma=140.0,
            idd5_ma=160.0,
            idd6_ma=0.5,
        ),
        core_voltage_v=1.5,
        io_voltage_v=1.2,
    )


@pytest.fixture(scope="module")
def device():
    return make_eight_bank_device()


class TestGeometry:
    def test_derived_structure(self, device):
        geo = device.geometry
        assert geo.capacity_bytes == 128 * 2**20
        assert geo.bank_bytes == 16 * 2**20
        assert geo.rows_per_bank == 8192
        assert geo.columns_per_row == 512

    def test_mapping_adapts(self, device):
        # 2 KB rows = 128 chunks; RBC bank bits sit above 7 chunk bits.
        mapping = AddressMapping.build(device.geometry, AddressMultiplexing.RBC)
        assert mapping.chunks_per_row == 128
        assert mapping.decode_chunk(0) == (0, 0)
        assert mapping.decode_chunk(128) == (1, 0)
        assert mapping.decode_chunk(128 * 8) == (0, 1)

    def test_peak_bandwidth(self, device):
        assert device.peak_bandwidth_bytes_per_s(400.0) == pytest.approx(3.2e9)


class TestTfawBinding:
    def test_activate_storm_limited_by_tfaw(self, device):
        """Eight single-burst reads to eight different banks: in-order
        issue would space ACTs ~7 cycles apart, but the 100 ns window
        (40 cycles at 400 MHz) forces the 5th ACT to wait."""
        engine = ChannelEngine(device, 400.0, interconnect=IDEAL)
        runs = [(0, bank * 128, 1) for bank in range(8)]
        log = []
        engine.run(runs, command_log=log)
        acts = [rec.cycle for rec in log if rec.command is Command.ACTIVATE]
        assert len(acts) == 8
        assert acts[4] - acts[0] >= 40
        assert acts[5] - acts[1] >= 40
        # Unconstrained, the first four flow at the natural rate.
        assert acts[3] - acts[0] < 40
        assert engine.make_checker().check(log) == []

    def test_tfaw_throttles_vs_relaxed_window(self, device):
        import dataclasses

        relaxed = dataclasses.replace(
            device, timing=dataclasses.replace(device.timing, t_faw_ns=10.0)
        )
        runs = [(0, bank * 128, 1) for bank in range(8)]
        tight = ChannelEngine(device, 400.0, interconnect=IDEAL).run(runs)
        loose = ChannelEngine(relaxed, 400.0, interconnect=IDEAL).run(runs)
        assert tight.finish_cycle > loose.finish_cycle


class TestEndToEnd:
    def test_sequential_stream_protocol_clean(self, device):
        engine = ChannelEngine(device, 400.0, interconnect=IDEAL)
        log = []
        result = engine.run([(0, 0, 4000)], command_log=log)
        assert engine.make_checker().check(log) == []
        # 2 KB rows rotate banks twice as often as the 4 KB default.
        assert result.counters.activates >= 4000 // 128

    def test_power_model_accepts_custom_currents(self, device):
        model = PowerModel(device, 400.0)
        assert model.read_burst_energy_j > 0
        assert model.precharge_powerdown_power_w < model.active_standby_power_w

    def test_full_use_case_runs(self, device):
        from repro.analysis.sweep import simulate_use_case
        from repro.usecase.levels import level_by_name

        config = SystemConfig(channels=2, freq_mhz=400.0, device=device)
        point = simulate_use_case(
            level_by_name("3.1"), config, chunk_budget=30_000
        )
        assert point.access_time_ms > 0
        assert point.total_power_mw > 0
        # Double the capacity per channel vs the default device.
        assert config.total_capacity_bytes == 2 * 128 * 2**20
