"""Tests for the channel engine: the timing heart of the simulator.

Exact cycle counts below are hand-derived from the device timing at
the given clock (see each test's comment), so a regression in any
constraint shows up as an off-by-N in a specific scenario.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.engine import ChannelEngine
from repro.controller.interconnect import InterconnectModel
from repro.controller.mapping import AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.controller.request import ChannelRun, Op
from repro.dram.commands import Command
from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR
from repro.dram.powerstate import NoPowerDown
from repro.errors import AddressError, ConfigurationError

IDEAL = InterconnectModel(address_cycles_per_access=0.0)


def make_engine(freq=400.0, **kwargs):
    kwargs.setdefault("interconnect", IDEAL)
    return ChannelEngine(NEXT_GEN_MOBILE_DDR, freq, **kwargs)


class TestSingleAccess:
    def test_single_read_400mhz(self):
        # ACT@0, RD@tRCD=6, data [12, 14): tRCD + CL + BL/2 = 14.
        r = make_engine(400.0).run([(0, 0, 1)])
        assert r.finish_cycle == 14
        assert r.counters.activates == 1
        assert r.counters.reads == 1
        assert r.counters.precharges == 0

    def test_single_read_200mhz(self):
        # tRCD=3, CL=3, burst 2 -> 8 cycles.
        r = make_engine(200.0).run([(0, 0, 1)])
        assert r.finish_cycle == 8

    def test_single_write_400mhz(self):
        # ACT@0, WR@6, data [7, 9): tRCD + WL + BL/2 = 9.
        r = make_engine(400.0).run([(1, 0, 1)])
        assert r.finish_cycle == 9
        assert r.counters.writes == 1

    def test_finish_ns(self):
        r = make_engine(400.0).run([(0, 0, 1)])
        assert r.finish_ns == pytest.approx(14 * 2.5)

    def test_bytes_moved(self):
        r = make_engine().run([(0, 0, 3)])
        assert r.bytes_moved == 48
        assert r.total_chunks == 3


class TestRowHits:
    def test_sequential_row_is_seamless(self):
        # One full 4 KB row = 256 chunks: tRCD + CL + 256 bursts
        # = 6 + 6 + 512 = 524 cycles, a single activate.
        r = make_engine().run([(0, 0, 256)])
        assert r.finish_cycle == 524
        assert r.counters.activates == 1
        assert r.bus_efficiency == pytest.approx(512 / 524)

    def test_row_hit_rate_high_for_sequential(self):
        r = make_engine().run([(0, 0, 1024)])
        assert r.counters.row_hit_rate() > 0.99

    def test_second_row_activate_overlaps_with_rbc(self):
        # RBC: chunk 256 lands in bank 1, whose activate can issue
        # while bank 0's data drains; two rows cost barely more than
        # 2x the burst time.
        r = make_engine().run([(0, 0, 512)])
        assert r.counters.activates == 2
        assert r.finish_cycle < 524 + 524  # far better than serial


class TestRowMissCost:
    def test_same_bank_conflict_pays_precharge(self):
        # Two accesses to different rows of the same bank (RBC: rows
        # 0 and 1 of bank 0 are chunks 0 and 1024).
        r = make_engine().run([(0, 0, 1), (0, 1024, 1)])
        assert r.counters.activates == 2
        assert r.counters.precharges == 1
        # First access done at 14; PRE waits for tRAS (ACT@0 + 16),
        # ACT@22 (tRP), RD@28, data end 36.
        assert r.finish_cycle == 36

    def test_tras_enforced_before_precharge(self):
        # A precharge immediately after one access must still respect
        # tRAS = 16 cycles from the activate.
        r = make_engine().run([(0, 0, 1), (0, 1024, 1)])
        # If tRAS were ignored, finish would be 14 + tRP + tRCD + CL + 2 = 34.
        assert r.finish_cycle > 34

    def test_different_banks_no_precharge(self):
        # Chunks 0 and 256 are different banks under RBC: both rows
        # stay open.
        r = make_engine().run([(0, 0, 1), (0, 256, 1)])
        assert r.counters.precharges == 0
        assert r.counters.activates == 2


class TestTurnaround:
    def test_write_to_read_pays_twtr(self):
        seq = make_engine().run([(0, 0, 8)])
        mixed = make_engine().run([(1, 0, 4), (0, 256, 4)])
        # Mixed stream must be slower than the same volume of reads:
        # the W->R switch exposes tWTR + CL.
        assert mixed.finish_cycle > seq.finish_cycle

    def test_alternating_directions_slower_than_batched(self):
        batched = make_engine().run([(0, 0, 32), (1, 512, 32)])
        alternating = make_engine().run(
            [(0, i, 1) if i % 2 == 0 else (1, 512 + i, 1) for i in range(64)]
        )
        assert alternating.finish_cycle > batched.finish_cycle

    def test_rw_counts(self):
        r = make_engine().run([(0, 0, 4), (1, 256, 4), (0, 8, 4)])
        assert r.chunks_read == 8
        assert r.chunks_written == 4


class TestRefresh:
    def test_refresh_count_matches_trefi(self):
        # 100k sequential reads at 400 MHz run ~206k cycles;
        # tREFI = 3120 cycles -> floor(finish / 3120) refreshes.
        r = make_engine().run([(0, 0, 100_000)])
        assert r.counters.refreshes == r.finish_cycle // 3120

    def test_short_run_has_no_refresh(self):
        r = make_engine().run([(0, 0, 64)])
        assert r.counters.refreshes == 0

    def test_refresh_closes_rows(self):
        # After a refresh the open row must be re-activated: over a
        # long single-row... not directly observable, but activates
        # must exceed the row count when refreshes interleave.
        r = make_engine().run([(0, 0, 4096)])  # 16 rows
        assert r.counters.refreshes >= 2
        assert r.counters.activates >= 16 + r.counters.refreshes

    def test_refresh_overhead_is_small(self):
        r = make_engine().run([(0, 0, 50_000)])
        assert r.bus_efficiency > 0.9


class TestClosedPage:
    def test_closed_page_precharges_every_access(self):
        r = make_engine(page_policy=PagePolicy.CLOSED).run([(0, 0, 2)])
        assert r.counters.precharges == 2
        assert r.counters.activates == 2
        assert r.finish_cycle == 39  # measured reference (see git history)

    def test_closed_much_slower_on_streaming(self):
        open_r = make_engine().run([(0, 0, 512)])
        closed_r = make_engine(page_policy=PagePolicy.CLOSED).run([(0, 0, 512)])
        assert closed_r.finish_cycle > 2 * open_r.finish_cycle

    def test_closed_page_zero_row_hits(self):
        r = make_engine(page_policy=PagePolicy.CLOSED).run([(0, 0, 100)])
        assert r.counters.row_hit_rate() == 0.0


class TestPowerDown:
    def test_idle_gap_enters_power_down(self):
        r = make_engine().run([(0, 0, 1, 0), (0, 8, 1, 1000)])
        assert r.counters.power_down_entries == 1
        assert r.counters.power_down_exits == 1
        # Gap = 1000 - 14 busy cycles; residency = gap - 1 detection
        # cycle = 985; 2.5 ns per cycle.
        assert r.states.active_powerdown_ns == pytest.approx(985 * 2.5)
        # Exit penalty tXP=2 delays the read: 1000 + 2 + CL + burst.
        assert r.finish_cycle == 1010

    def test_no_power_down_policy_idles_in_standby(self):
        r = make_engine(power_down=NoPowerDown()).run(
            [(0, 0, 1, 0), (0, 8, 1, 1000)]
        )
        assert r.counters.power_down_entries == 0
        assert r.states.active_powerdown_ns == 0.0
        # No tXP penalty: finishes 2 cycles earlier.
        assert r.finish_cycle == 1008

    def test_backlogged_stream_never_powers_down(self):
        r = make_engine().run([(0, 0, 64), (1, 512, 64)])
        assert r.counters.power_down_entries == 0

    def test_state_durations_cover_finish(self):
        r = make_engine().run([(0, 0, 1, 0), (0, 8, 1, 1000)])
        assert r.states.total_ns() == pytest.approx(r.finish_ns)

    def test_open_page_books_active_states(self):
        # Open page keeps rows open across the idle gap: CKE drops
        # with banks active, so residency is IDD3-class.
        r = make_engine().run([(0, 0, 1, 0), (0, 8, 1, 1000)])
        assert r.states.active_powerdown_ns > 0
        assert r.states.precharge_powerdown_ns == 0.0
        assert r.states.precharge_standby_ns == 0.0

    def test_closed_page_books_precharged_states(self):
        # Closed page precharges after every access, so the same idle
        # gap is spent with all banks closed: both the standby and the
        # power-down residency must be booked to the precharged
        # (IDD2-class) states, not the active ones.
        r = make_engine(page_policy=PagePolicy.CLOSED).run(
            [(0, 0, 1, 0), (0, 8, 1, 1000)]
        )
        assert r.counters.power_down_entries == 1
        assert r.states.precharge_powerdown_ns > 0
        assert r.states.precharge_standby_ns > 0
        assert r.states.active_powerdown_ns == 0.0
        assert r.states.active_standby_ns == 0.0
        assert r.states.total_ns() == pytest.approx(r.finish_ns)


class TestBrcVsRbc:
    def test_brc_sequential_slower_than_rbc(self):
        # Section IV: RBC achieved "somewhat better performance".
        # 8 rows of sequential data: BRC pays same-bank precharges.
        rbc = make_engine().run([(0, 0, 2048)])
        brc = make_engine(multiplexing=AddressMultiplexing.BRC).run([(0, 0, 2048)])
        assert brc.finish_cycle > rbc.finish_cycle

    def test_brc_pays_precharges_on_streaming(self):
        brc = make_engine(multiplexing=AddressMultiplexing.BRC).run([(0, 0, 2048)])
        rbc = make_engine().run([(0, 0, 2048)])
        assert brc.counters.precharges > rbc.counters.precharges


class TestQueueDepth:
    def test_deeper_queue_hides_row_misses(self):
        shallow = make_engine(queue=CommandQueueModel(depth=1)).run([(0, 0, 4096)])
        deep = make_engine(queue=CommandQueueModel(depth=16)).run([(0, 0, 4096)])
        assert deep.finish_cycle <= shallow.finish_cycle


class TestInterconnectOverhead:
    def test_overhead_slows_stream_by_expected_fraction(self):
        ideal = make_engine().run([(0, 0, 10_000)])
        real = ChannelEngine(
            NEXT_GEN_MOBILE_DDR, 400.0,
            interconnect=InterconnectModel(address_cycles_per_access=0.5),
        ).run([(0, 0, 10_000)])
        # 0.5 extra cycles per 2-cycle burst: ~25 % more time.
        ratio = real.finish_cycle / ideal.finish_cycle
        assert ratio == pytest.approx(1.25, abs=0.02)


class TestOverheadAccumulatorScale:
    """The hot loop's stall insertion must stay in sync with
    OVERHEAD_SCALE: the shift is derived, never hardcoded."""

    def test_shift_derived_from_scale(self):
        from repro.controller.interconnect import OVERHEAD_SCALE, OVERHEAD_SHIFT

        assert 1 << OVERHEAD_SHIFT == OVERHEAD_SCALE

    @pytest.mark.parametrize("ovh", [0.2, 0.45, 0.95])
    def test_long_run_average_stall_matches_configuration(self, ovh):
        # The regression oracle for the fixed-point accumulator: over a
        # long run the *average* extra stall per access converges to
        # the configured address_cycles_per_access.  A mismatched
        # shift/scale pair would insert 2^k times too many (or too
        # few) stall cycles and miss this by a wide margin.
        n = 20_000
        ideal = make_engine().run([(0, 0, n)])
        real = ChannelEngine(
            NEXT_GEN_MOBILE_DDR,
            400.0,
            interconnect=InterconnectModel(address_cycles_per_access=ovh),
        ).run([(0, 0, n)])
        per_access = (real.finish_cycle - ideal.finish_cycle) / n
        # Tolerance covers the handful of extra refresh periods the
        # slower run crosses (tens of cycles over 20k accesses).
        assert per_access == pytest.approx(ovh, abs=0.03)


class TestInputHandling:
    def test_accepts_channel_run_objects(self):
        r = make_engine().run([ChannelRun(Op.READ, 0, 4)])
        assert r.chunks_read == 4

    def test_accepts_three_tuples(self):
        r = make_engine().run([(0, 0, 4)])
        assert r.chunks_read == 4

    def test_rejects_bad_op(self):
        with pytest.raises(ConfigurationError):
            make_engine().run([(3, 0, 4)])

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            make_engine().run([(0, 0, 0)])

    def test_rejects_bad_op_in_channel_run(self):
        # ChannelRun does not validate op at construction; the engine
        # must apply the same checks to both input forms instead of
        # trusting the object wrapper.
        with pytest.raises(ConfigurationError):
            make_engine().run([ChannelRun(3, 0, 4)])

    def test_rejects_corrupted_channel_run_count(self):
        run = ChannelRun(Op.READ, 0, 4)
        object.__setattr__(run, "count", 0)
        with pytest.raises(ConfigurationError):
            make_engine().run([run])

    def test_rejects_corrupted_channel_run_start(self):
        run = ChannelRun(Op.READ, 0, 4)
        object.__setattr__(run, "start_chunk", -1)
        with pytest.raises(ConfigurationError):
            make_engine().run([run])

    def test_rejects_over_capacity_run(self):
        max_chunk = NEXT_GEN_MOBILE_DDR.geometry.capacity_bytes >> 4
        with pytest.raises(AddressError):
            make_engine().run([(0, max_chunk - 1, 2)])

    def test_empty_stream(self):
        r = make_engine().run([])
        assert r.finish_cycle == 0
        assert r.total_chunks == 0
        assert r.bus_efficiency == 0.0

    def test_rejects_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            ChannelEngine(NEXT_GEN_MOBILE_DDR, 50.0)


class TestDeterminismAndMonotonicity:
    def test_deterministic(self):
        runs = [(0, 0, 100), (1, 4096, 100), (0, 200, 50)]
        a = make_engine().run(runs)
        b = make_engine().run(runs)
        assert a.finish_cycle == b.finish_cycle
        assert a.counters.as_dict() == b.counters.as_dict()

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=20, deadline=None)
    def test_time_monotone_in_traffic(self, count):
        shorter = make_engine().run([(0, 0, count)])
        longer = make_engine().run([(0, 0, count + 100)])
        assert longer.finish_cycle > shorter.finish_cycle

    @given(st.sampled_from([200.0, 266.0, 333.0, 400.0, 466.0, 533.0]))
    @settings(max_examples=6, deadline=None)
    def test_time_ns_decreases_with_frequency(self, freq):
        base = make_engine(200.0).run([(0, 0, 2000)])
        faster = make_engine(freq).run([(0, 0, 2000)])
        assert faster.finish_ns <= base.finish_ns + 1e-6

    def test_frequency_doubling_near_doubles_throughput(self):
        # The Fig. 3 "close to 2x" trend at the engine level.
        slow = make_engine(200.0).run([(0, 0, 50_000)])
        fast = make_engine(400.0).run([(0, 0, 50_000)])
        speedup = slow.finish_ns / fast.finish_ns
        assert 1.8 <= speedup <= 2.1


class TestBankStatistics:
    def test_sequential_traffic_balances_banks(self):
        # Full rotations through all four banks (RBC): balanced.
        r = make_engine().run([(0, 0, 4096)])
        assert len(r.bank_accesses) == 4
        assert sum(r.bank_accesses) == 4096
        assert r.bank_balance == 1.0

    def test_single_row_hits_one_bank(self):
        r = make_engine().run([(0, 0, 256)])
        assert r.bank_accesses == (256, 0, 0, 0)
        assert r.bank_balance == 0.0

    def test_xor_mapping_rebalances_row_strides(self):
        runs = [(0, i * 1024, 4) for i in range(64)]
        plain = make_engine().run(runs)
        xor = make_engine(multiplexing=AddressMultiplexing.RBC_XOR).run(runs)
        assert plain.bank_balance == 0.0
        assert xor.bank_balance == 1.0

    def test_empty_run_balance(self):
        assert make_engine().run([]).bank_balance == 1.0


class TestFrequencyBoundaries:
    """Exact behaviour at the device's clock range edges."""

    def test_533mhz_single_read(self):
        # tCK = 1.876 ns: tRCD = ceil(15/1.876) = 8, CL = 8, burst 2.
        r = make_engine(533.0).run([(0, 0, 1)])
        assert r.finish_cycle == 8 + 8 + 2

    def test_boundary_frequencies_accepted(self):
        make_engine(200.0).run([(0, 0, 4)])
        make_engine(533.0).run([(0, 0, 4)])

    def test_just_outside_boundaries_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine(199.9)
        with pytest.raises(ConfigurationError):
            make_engine(533.1)


class TestCombinedPolicies:
    def test_brc_closed_page_protocol_clean(self):
        engine = make_engine(
            multiplexing=AddressMultiplexing.BRC,
            page_policy=PagePolicy.CLOSED,
        )
        log = []
        engine.run([(0, 0, 300), (1, 4096, 100)], command_log=log)
        assert engine.make_checker().check(log) == []

    def test_depth_one_queue_closed_page(self):
        engine = make_engine(
            queue=CommandQueueModel(depth=1), page_policy=PagePolicy.CLOSED
        )
        r = engine.run([(0, 0, 64)])
        assert r.chunks_read == 64

    def test_capacity_edge_run_accepted(self):
        max_chunk = NEXT_GEN_MOBILE_DDR.geometry.capacity_bytes >> 4
        r = make_engine().run([(0, max_chunk - 8, 8)])
        assert r.total_chunks == 8


class TestFourActivateWindow:
    def test_default_device_never_bound_by_tfaw(self):
        """On the 4-bank default device the fifth ACT revisits a bank,
        so tRC (22 cyc) always dominates tFAW (20 cyc): the window is
        modelled but never the limiter (the 8-bank custom-device test
        exercises the binding case)."""
        runs = [(0, i * 256, 1) for i in range(5)]
        log = []
        engine = make_engine()
        engine.run(runs, command_log=log)
        from repro.dram.commands import Command

        acts = [rec.cycle for rec in log if rec.command is Command.ACTIVATE]
        assert len(acts) == 5
        assert acts[4] - acts[0] >= 20
        assert engine.make_checker().check(log) == []

    def test_sequential_streaming_unaffected(self):
        """Row-hit streams issue ACTs ~512 cycles apart: tFAW never
        binds and the calibrated results stay put."""
        r = make_engine().run([(0, 0, 1024)])
        assert r.finish_cycle == pytest.approx(2060, abs=30)


#: Runs around the 256-chunk decode blocks of the default device: a
#: mid-block start spanning several blocks, single chunks on either
#: side of a block edge, a block-aligned run, one ending exactly on an
#: edge, and one at the top of the capacity; reads and writes mixed.
_BLOCK_RUNS = [
    (0, 100, 700),
    (1, 255, 1),
    (1, 256, 1),
    (0, 1024, 256),
    (1, 2000, 48),
    (0, 77777, 3),
    (1, 300037, 600),
    (0, (NEXT_GEN_MOBILE_DDR.geometry.capacity_bytes >> 4) - 300, 300),
]


class TestBlockDecode:
    """The engine decodes (bank, row) once per aligned block; every
    column command must still carry its own chunk's decode."""

    @staticmethod
    def _check(engine, runs):
        log = []
        result = engine.run(runs, command_log=log)
        mapping = engine.mapping
        expected = [
            (op, *mapping.decode_chunk(chunk))
            for op, start, count in runs
            for chunk in range(start, start + count)
        ]
        issued = [
            (0 if rec.command is Command.READ else 1, rec.bank, rec.row)
            for rec in log
            if rec.command in (Command.READ, Command.WRITE)
        ]
        assert issued == expected
        tally = Counter(bank for _, bank, _ in expected)
        assert result.bank_accesses == tuple(
            tally[bank] for bank in range(engine.device.geometry.banks)
        )

    @pytest.mark.parametrize("page_policy", list(PagePolicy))
    @pytest.mark.parametrize("scheme", list(AddressMultiplexing))
    def test_column_commands_carry_their_chunk_decode(self, scheme, page_policy):
        engine = make_engine(multiplexing=scheme, page_policy=page_policy)
        self._check(engine, _BLOCK_RUNS)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_runs_carry_their_chunk_decode(self, data):
        max_chunk = NEXT_GEN_MOBILE_DDR.geometry.capacity_bytes >> 4
        runs = []
        for _ in range(data.draw(st.integers(1, 5))):
            count = data.draw(st.integers(1, 1200))
            start = data.draw(st.integers(0, max_chunk - count))
            runs.append((data.draw(st.sampled_from((0, 1))), start, count))
        engine = make_engine(
            multiplexing=data.draw(st.sampled_from(list(AddressMultiplexing))),
            page_policy=data.draw(st.sampled_from(list(PagePolicy))),
        )
        self._check(engine, runs)
