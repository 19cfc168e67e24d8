"""Tests for DRAM timing parameters and frequency extrapolation."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.backends.batch import BatchChannelEngine
from repro.controller.engine import ChannelEngine
from repro.controller.frfcfs import ReorderingChannelEngine
from repro.dram.datasheet import (
    NEXT_GEN_MOBILE_DDR,
    contemporary_mobile_ddr,
    next_gen_mobile_ddr,
    standard_ddr2,
)
from repro.dram.timing import TimingParameters
from repro.errors import ConfigurationError
from repro.resilience.faults import corrupt_timing

TIMING = NEXT_GEN_MOBILE_DDR.timing


class TestValidation:
    def test_paper_device_is_valid(self):
        # Construction succeeded at import; spot-check key values.
        assert TIMING.t_rcd_ns == 15.0
        assert TIMING.burst_length == 4
        assert TIMING.f_min_mhz == 200.0
        assert TIMING.f_max_mhz == 533.0

    def test_rejects_negative_ns_parameter(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TIMING, t_rp_ns=-1.0)

    def test_rejects_odd_burst_length(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TIMING, burst_length=3)

    def test_rejects_trc_smaller_than_tras_plus_trp(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TIMING, t_rc_ns=30.0)  # < 40 + 15

    def test_rejects_inverted_frequency_range(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TIMING, f_min_mhz=500.0, f_max_mhz=300.0)

    def test_validate_frequency_inside_range(self):
        TIMING.validate_frequency(200.0)
        TIMING.validate_frequency(533.0)

    def test_validate_frequency_outside_range(self):
        with pytest.raises(ConfigurationError):
            TIMING.validate_frequency(150.0)
        with pytest.raises(ConfigurationError):
            TIMING.validate_frequency(600.0)


class TestExtrapolation:
    """The paper's rule: ns parameters fixed, cycle counts rescale."""

    def test_200mhz_matches_datasheet_cycles(self):
        t = TIMING.at_frequency(200.0)
        # 5 ns period: tRCD/tRP are 3 clocks, tRAS 8, tRC 11, CL 3.
        assert t.t_ck_ns == pytest.approx(5.0)
        assert t.t_rcd == 3
        assert t.t_rp == 3
        assert t.t_ras == 8
        assert t.t_rc == 11
        assert t.cas_latency == 3

    def test_400mhz_doubles_ns_cycle_counts(self):
        t = TIMING.at_frequency(400.0)
        assert t.t_rcd == 6
        assert t.t_rp == 6
        assert t.t_ras == 16
        assert t.t_rc == 22
        assert t.cas_latency == 6

    def test_cycle_valued_parameters_do_not_scale(self):
        t200 = TIMING.at_frequency(200.0)
        t400 = TIMING.at_frequency(400.0)
        assert t200.burst_cycles == t400.burst_cycles == 2
        assert t200.write_latency == t400.write_latency == 1
        assert t200.t_wtr == t400.t_wtr
        assert t200.t_xp == t400.t_xp

    def test_noninteger_period_rounds_up(self):
        # 266 MHz: 15 ns / 3.759 ns = 3.99 -> 4 cycles.
        t = TIMING.at_frequency(266.0)
        assert t.t_rcd == 4

    def test_refresh_interval_scales(self):
        t200 = TIMING.at_frequency(200.0)
        t400 = TIMING.at_frequency(400.0)
        assert t200.t_refi == 1560
        assert t400.t_refi == 3120

    @given(st.sampled_from([200.0, 266.0, 333.0, 400.0, 466.0, 533.0]))
    def test_ns_values_are_respected_at_every_frequency(self, freq):
        t = TIMING.at_frequency(freq)
        for cycles, ns in [
            (t.t_rcd, TIMING.t_rcd_ns),
            (t.t_rp, TIMING.t_rp_ns),
            (t.t_ras, TIMING.t_ras_ns),
            (t.t_rc, TIMING.t_rc_ns),
            (t.t_rfc, TIMING.t_rfc_ns),
            (t.cas_latency, TIMING.cas_ns),
        ]:
            assert cycles * t.t_ck_ns >= ns - 1e-6

    @given(
        st.sampled_from([200.0, 266.0, 333.0]),
        st.sampled_from([400.0, 466.0, 533.0]),
    )
    def test_cycle_counts_monotone_in_frequency(self, low, high):
        t_low = TIMING.at_frequency(low)
        t_high = TIMING.at_frequency(high)
        assert t_high.t_rcd >= t_low.t_rcd
        assert t_high.t_rc >= t_low.t_rc
        assert t_high.cas_latency >= t_low.cas_latency

    def test_out_of_range_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            TIMING.at_frequency(100.0)


class TestTimingCycles:
    def test_row_miss_penalty(self):
        t = TIMING.at_frequency(400.0)
        assert t.row_miss_penalty() == t.t_rp + t.t_rcd == 12

    def test_ns_to_cycle_count(self):
        t = TIMING.at_frequency(400.0)
        assert t.ns_to_cycle_count(15.0) == 6


class TestFourActivateWindow:
    def test_tfaw_resolves(self):
        t = TIMING.at_frequency(400.0)
        assert t.t_faw == 20  # 50 ns at 2.5 ns

    def test_tfaw_scales_with_clock(self):
        assert TIMING.at_frequency(200.0).t_faw == 10
        assert TIMING.at_frequency(533.0).t_faw == 27

    def test_tfaw_validated(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(TIMING, t_faw_ns=0.0)

    @pytest.mark.parametrize(
        "device",
        [next_gen_mobile_ddr(), contemporary_mobile_ddr(), standard_ddr2()],
        ids=lambda device: device.name,
    )
    def test_window_cannot_bind_on_shipped_devices(self, device):
        # Every clock the device supports, in whole MHz.
        timing = device.timing
        lo, hi = int(timing.f_min_mhz), int(timing.f_max_mhz)
        for freq in range(lo, hi + 1):
            cycles = timing.at_frequency(float(freq))
            assert not cycles.faw_can_bind(device.geometry.banks), freq

    def test_faw_can_bind_algebra(self):
        t = TIMING.at_frequency(400.0)
        replace = dataclasses.replace
        # tRRD alone implies the window: 4 * tRRD >= tFAW, any bank count.
        assert not replace(t, t_faw=4 * t.t_rrd, t_rc=1).faw_can_bind(16)
        # Four banks: tRC implies it too.
        assert not replace(t, t_faw=t.t_rc, t_rrd=1).faw_can_bind(4)
        assert replace(t, t_faw=t.t_rc + 1, t_rrd=1).faw_can_bind(4)
        # Five banks break the pigeonhole; tRC no longer implies it.
        assert replace(t, t_faw=t.t_rc, t_rrd=1).faw_can_bind(5)
        assert not replace(t, t_faw=4, t_rrd=1).faw_can_bind(5)

    def test_premise_cycles_at_least_one(self):
        # A positive but sub-picosecond tRCD/tRP still resolves to one
        # cycle, so PRE, ACT and the column never share a cycle.
        tiny = dataclasses.replace(
            TIMING, t_rcd_ns=1e-12, t_rp_ns=1e-12, t_rrd_ns=1e-12
        )
        t = tiny.at_frequency(533.0)
        assert t.t_rcd == t.t_rp == t.t_rrd == 1


class TestRefreshCatchUpGuard:
    """Every engine's refresh catch-up loop terminates only when tREFI
    exceeds tRFC + 1 cycles; anything else is refused up front."""

    ENGINES = [ChannelEngine, BatchChannelEngine, ReorderingChannelEngine]

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("t_refi_ns", [72.0, 1e-12], ids=["trfc", "tiny"])
    def test_engines_refuse_a_refresh_interval_inside_trfc(self, engine, t_refi_ns):
        device = dataclasses.replace(
            NEXT_GEN_MOBILE_DDR,
            timing=dataclasses.replace(TIMING, t_refi_ns=t_refi_ns),
        )
        with pytest.raises(ConfigurationError, match="tREFI .* tRFC") as err:
            engine(device, 400.0)
        assert "400 MHz" in str(err.value)

    def test_boundary_is_trfc_plus_one_cycle(self):
        t = TIMING.at_frequency(400.0)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(t, t_refi=t.t_rfc + 1)
        assert dataclasses.replace(t, t_refi=t.t_rfc + 2).t_refi == t.t_rfc + 2

    def test_corrupted_timing_is_refused(self):
        t = TIMING.at_frequency(400.0)
        with pytest.raises(ConfigurationError):
            corrupt_timing(t, "t_refi", -t.t_refi)

    @pytest.mark.parametrize(
        "device",
        [next_gen_mobile_ddr(), contemporary_mobile_ddr(), standard_ddr2()],
        ids=lambda device: device.name,
    )
    def test_shipped_devices_construct_at_every_clock(self, device):
        # Every clock the device supports, in whole MHz.
        timing = device.timing
        lo, hi = int(timing.f_min_mhz), int(timing.f_max_mhz)
        for freq in range(lo, hi + 1):
            cycles = timing.at_frequency(float(freq))
            assert cycles.t_refi > cycles.t_rfc + 1, freq
        for engine in self.ENGINES:
            engine(device, float(lo))
            engine(device, float(hi))
