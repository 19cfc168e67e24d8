"""Tests for the FR-FCFS reordering engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.engine import ChannelEngine
from repro.controller.frfcfs import ReorderingChannelEngine
from repro.controller.interconnect import InterconnectModel
from repro.controller.mapping import AddressMultiplexing
from repro.dram.datasheet import NEXT_GEN_MOBILE_DDR
from repro.dram.powerstate import (
    ImmediatePowerDown,
    NoPowerDown,
    TimeoutPowerDown,
)
from repro.errors import AddressError, ConfigurationError

IDEAL = InterconnectModel(0.0)


def make_frfcfs(**kwargs):
    kwargs.setdefault("interconnect", IDEAL)
    return ReorderingChannelEngine(NEXT_GEN_MOBILE_DDR, 400.0, **kwargs)


def make_fcfs():
    return ChannelEngine(NEXT_GEN_MOBILE_DDR, 400.0, interconnect=IDEAL)


def interleaved_bank_conflicts(pairs=200):
    """Alternating accesses to two conflicting rows of the same bank
    (RBC rows 0 and 1 of bank 0 are chunks 0.. and 1024..): the worst
    case for in-order scheduling, prime reordering territory."""
    runs = []
    for i in range(pairs):
        runs.append((0, i % 256, 1))          # bank 0, row 0
        runs.append((0, 1024 + (i % 256), 1))  # bank 0, row 1
    return runs


class TestBasics:
    def test_single_read_matches_fcfs(self):
        assert make_frfcfs().run([(0, 0, 1)]).finish_cycle == 14

    def test_counts_preserved(self):
        r = make_frfcfs().run([(0, 0, 100), (1, 4096, 50)])
        assert r.chunks_read == 100
        assert r.chunks_written == 50

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReorderingChannelEngine(NEXT_GEN_MOBILE_DDR, 400.0, window=0)
        with pytest.raises(ConfigurationError):
            ReorderingChannelEngine(NEXT_GEN_MOBILE_DDR, 400.0, max_skips=0)
        with pytest.raises(ConfigurationError):
            ReorderingChannelEngine(NEXT_GEN_MOBILE_DDR, 100.0)

    def test_over_capacity_rejected(self):
        max_chunk = NEXT_GEN_MOBILE_DDR.geometry.capacity_bytes >> 4
        with pytest.raises(AddressError):
            make_frfcfs().run([(0, max_chunk - 1, 2)])

    def test_empty_stream(self):
        r = make_frfcfs().run([])
        assert r.finish_cycle == 0

    def test_deterministic(self):
        runs = interleaved_bank_conflicts(50)
        a = make_frfcfs().run(runs)
        b = make_frfcfs().run(runs)
        assert a.finish_cycle == b.finish_cycle


class TestReorderingWins:
    def test_beats_fcfs_on_bank_conflicts(self):
        runs = interleaved_bank_conflicts()
        fcfs = make_fcfs().run(runs)
        frfcfs = make_frfcfs().run(runs)
        # FR-FCFS batches row hits and slashes the activate count.
        assert frfcfs.finish_cycle < 0.7 * fcfs.finish_cycle
        assert frfcfs.counters.activates < fcfs.counters.activates

    def test_row_hit_rate_improves(self):
        runs = interleaved_bank_conflicts()
        fcfs = make_fcfs().run(runs)
        frfcfs = make_frfcfs().run(runs)
        assert frfcfs.counters.row_hit_rate() > fcfs.counters.row_hit_rate()

    def test_window_one_degenerates_to_fcfs_order(self):
        runs = interleaved_bank_conflicts(50)
        narrow = make_frfcfs(window=1).run(runs)
        wide = make_frfcfs(window=32).run(runs)
        assert wide.finish_cycle < narrow.finish_cycle

    def test_sequential_traffic_gains_nothing(self):
        # The paper's workload: already row-friendly, so reordering
        # changes little -- validating the paper's in-order model.
        runs = [(0, 0, 4096)]
        fcfs = make_fcfs().run(runs)
        frfcfs = make_frfcfs().run(runs)
        assert frfcfs.finish_cycle == pytest.approx(fcfs.finish_cycle, rel=0.05)


def random_runs(rng, t_refi):
    """A short random run list with non-decreasing arrivals; some gaps
    idle the channel past several refresh intervals."""
    runs, arrival = [], 0
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.5:
            arrival += rng.choice((0, 5, 300, 3 * t_refi))
        runs.append(
            (rng.randint(0, 1), rng.randrange(2**17), rng.randint(1, 48), arrival)
        )
    return runs


class TestWindowOneEqualsInOrder:
    """A one-entry window has nothing to reorder: FR-FCFS must equal the
    in-order engine on every ChannelResult field."""

    @pytest.mark.parametrize("scheme", list(AddressMultiplexing))
    @pytest.mark.parametrize("freq", [200.0, 400.0, 533.0])
    def test_every_field_matches(self, scheme, freq):
        rng = random.Random(f"{scheme.value}-{freq}")
        policies = (ImmediatePowerDown(), NoPowerDown(), TimeoutPowerDown(16))
        for case in range(12):
            power_down = policies[case % len(policies)]
            kwargs = dict(multiplexing=scheme, power_down=power_down)
            fcfs = ChannelEngine(NEXT_GEN_MOBILE_DDR, freq, **kwargs)
            runs = random_runs(rng, fcfs.timing.t_refi)
            expected = fcfs.run(runs)
            got = ReorderingChannelEngine(
                NEXT_GEN_MOBILE_DDR, freq, window=1, **kwargs
            ).run(runs)
            assert got == expected, runs

    def test_bank_statistics_reported(self):
        # Alternating rows of one bank: every access after the first
        # precharges the other open row.
        runs = interleaved_bank_conflicts(50)
        result = make_frfcfs(window=1).run(runs)
        assert sum(result.bank_accesses) == 100
        assert result.bank_accesses[0] == 100
        assert result.bank_conflicts == 99
        assert result.bank_balance < 1.0
        assert result == make_fcfs().run(runs)


class TestFairness:
    def test_aging_bound_prevents_starvation(self):
        # A long row-0 stream with one row-1 request in the middle:
        # the miss must still complete within the run (it does, since
        # the stream is finite), and with a tight bound it must be
        # issued before the hit stream ends.
        runs = [(0, 0, 200), (0, 1024, 1), (0, 200, 56)]
        tight = make_frfcfs(window=8, max_skips=2).run(runs, command_log=[])
        assert tight.chunks_read == 257

    def test_max_skips_trades_throughput(self):
        runs = interleaved_bank_conflicts(100)
        patient = make_frfcfs(max_skips=64).run(runs)
        impatient = make_frfcfs(max_skips=1).run(runs)
        assert patient.finish_cycle <= impatient.finish_cycle


class TestProtocolCleanliness:
    @pytest.mark.parametrize(
        "runs",
        [
            [(0, 0, 2000)],
            interleaved_bank_conflicts(150),
            [(0, 0, 64, 0), (1, 4096, 64, 3000), (0, 128, 64, 9000)],
        ],
        ids=["sequential", "conflicts", "gappy"],
    )
    def test_emitted_stream_is_clean(self, runs):
        engine = make_frfcfs()
        log = []
        engine.run(runs, command_log=log)
        assert engine.make_checker().check(log) == []

    @given(
        runs=st.lists(
            st.tuples(
                st.integers(0, 1),
                st.integers(0, 2**18),
                st.integers(1, 200),
                st.integers(0, 20_000),
            ),
            min_size=1,
            max_size=20,
        ),
        scheme=st.sampled_from(
            [AddressMultiplexing.RBC, AddressMultiplexing.RBC_XOR]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_workloads_clean(self, runs, scheme):
        engine = ReorderingChannelEngine(
            NEXT_GEN_MOBILE_DDR, 400.0, multiplexing=scheme, interconnect=IDEAL
        )
        log = []
        engine.run(runs, command_log=log)
        violations = engine.make_checker().check(log)
        assert violations == [], violations[:3]
