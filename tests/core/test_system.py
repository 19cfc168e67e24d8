"""Tests for the multi-channel memory system."""

import random

import pytest

from repro.controller.request import MasterTransaction, Op
from repro.core.config import SystemConfig
from repro.core.system import _ARRIVAL_EPSILON_CYCLES, MultiChannelMemorySystem
from repro.errors import AddressError, ConfigurationError
from repro.load.generators import sequential_stream
from repro.load.pacing import pace_transactions
from repro.telemetry import Telemetry
from repro.units import clock_period_ns


def make_system(channels=2, freq=400.0):
    return MultiChannelMemorySystem(SystemConfig(channels=channels, freq_mhz=freq))


class TestRun:
    def test_single_transaction_spreads_over_channels(self):
        system = make_system(channels=4)
        result = system.run([MasterTransaction(Op.READ, 0, 256)])
        # 16 chunks over 4 channels: 4 chunks each.
        assert [ch.total_chunks for ch in result.channels] == [4, 4, 4, 4]

    def test_all_channels_used_by_one_master_transaction(self):
        # Section III: interleaved "in such a way that all the channels
        # can be used in a single master transaction".
        system = make_system(channels=8)
        result = system.run([MasterTransaction(Op.READ, 0, 16 * 8)])
        assert all(ch.total_chunks == 1 for ch in result.channels)

    def test_total_bytes_preserved(self):
        system = make_system(channels=4)
        txns = sequential_stream(64 * 1024, block_bytes=4096)
        result = system.run(txns)
        assert result.sample_bytes == 64 * 1024

    def test_scale_recorded(self):
        system = make_system()
        result = system.run([MasterTransaction(Op.READ, 0, 64)], scale=0.25)
        assert result.scale == 0.25
        assert result.access_time_ns == pytest.approx(
            result.sample_access_time_ns / 0.25
        )

    def test_empty_channel_allowed(self):
        # A tiny transaction may touch only some channels.
        system = make_system(channels=8)
        result = system.run([MasterTransaction(Op.READ, 0, 16)])
        assert result.channels[0].total_chunks == 1
        assert result.channels[1].total_chunks == 0


class TestChannelScaling:
    def test_speedup_near_two_per_doubling(self):
        # Fig. 3/4's central trend at the system level.
        txns = sequential_stream(2 * 2**20, block_bytes=4096)
        times = {}
        for m in (1, 2, 4):
            times[m] = make_system(channels=m).run(txns).sample_access_time_ns
        assert 1.7 <= times[1] / times[2] <= 2.05
        assert 1.7 <= times[2] / times[4] <= 2.05

    def test_effective_bandwidth_below_peak(self):
        system = make_system(channels=2)
        txns = sequential_stream(2**20, block_bytes=4096)
        result = system.run(txns)
        assert 0 < result.effective_bandwidth_bytes_per_s < (
            system.peak_bandwidth_bytes_per_s
        )


class TestCapacityWrap:
    def test_wrap_maps_modulo_capacity(self):
        system = make_system(channels=1)
        capacity = system.config.total_capacity_bytes
        wrapped = system.run([MasterTransaction(Op.READ, capacity, 16)])
        direct = system.run([MasterTransaction(Op.READ, 0, 16)])
        assert wrapped.sample_access_time_ns == direct.sample_access_time_ns

    def test_wrap_disabled_raises(self):
        system = make_system(channels=1)
        capacity = system.config.total_capacity_bytes
        with pytest.raises(AddressError):
            system.run(
                [MasterTransaction(Op.READ, capacity - 16, 64)],
                wrap_capacity=False,
            )

    def test_transaction_bigger_than_memory_rejected(self):
        system = make_system(channels=1)
        capacity = system.config.total_capacity_bytes
        with pytest.raises(AddressError):
            system.run([MasterTransaction(Op.READ, 0, capacity + 16)])

    def test_straddling_transaction_splits(self):
        system = make_system(channels=2)
        capacity = system.config.total_capacity_bytes
        result = system.run([MasterTransaction(Op.READ, capacity - 32, 64)])
        assert result.sample_bytes == 64


class TestArrivalConversion:
    """Arrival timestamps convert to cycles by *ceiling*: a request
    arriving strictly inside cycle k cannot issue at cycle k (the old
    truncation started it one cycle early), and an arrival of exactly
    0.0 ns is a timestamp, not a missing one."""

    def _finish(self, arrival_ns):
        system = make_system(channels=1)
        txn = MasterTransaction(Op.READ, 0, 16, arrival_ns=arrival_ns)
        return system.run([txn]).channels[0].finish_cycle

    def test_exact_edge_issues_on_the_edge(self):
        # 25.0 ns at 400 MHz (tck = 2.5 ns) is exactly cycle 10: one
        # cycle later than a 22.5 ns (cycle 9) arrival.
        assert self._finish(25.0) == self._finish(22.5) + 1

    def test_sub_cycle_arrival_rounds_up(self):
        # 24.9 ns lies strictly inside cycle 9: the access must wait
        # for cycle 10, same as an exact 25.0 ns arrival.  Truncation
        # issued it at cycle 9.
        assert self._finish(24.9) == self._finish(25.0)

    def test_past_edge_costs_one_more_cycle(self):
        assert self._finish(25.1) == self._finish(25.0) + 1

    def test_float_noise_on_edge_absorbed(self):
        # Sub-epsilon overshoot from ns float arithmetic must not push
        # the arrival into the next cycle.
        assert self._finish(25.0 + 1e-9) == self._finish(25.0)

    def test_zero_arrival_equals_missing_arrival(self):
        system = make_system(channels=1)
        zero = system.run([MasterTransaction(Op.READ, 0, 16, arrival_ns=0.0)])
        missing = system.run(
            [MasterTransaction(Op.READ, 0, 16, arrival_ns=None)]
        )
        assert zero.channels == missing.channels

    def test_negative_arrival_rejected(self):
        # Regression: int() truncates toward zero, so a negative
        # arrival silently rounded the *wrong* way (e.g. -2.4 ns ->
        # cycle -1 -> clamped semantics nobody asked for).  It must be
        # rejected loudly instead of accepted as roughly-zero.
        system = make_system(channels=1)
        with pytest.raises(ConfigurationError, match="arrival_ns"):
            system.run([MasterTransaction(Op.READ, 0, 16, arrival_ns=-2.4)])

    def test_slightly_negative_arrival_rejected(self):
        # Even a sub-cycle negative value is a caller bug, not noise:
        # the load models never produce one.
        system = make_system(channels=1)
        with pytest.raises(ConfigurationError, match="arrival_ns"):
            system.run([MasterTransaction(Op.READ, 0, 16, arrival_ns=-0.1)])


class TestSplit:
    """``split`` is the interleave ``run`` performs; ``run_split``
    simulates its result, so one split can feed several runs."""

    def _stream(self):
        return sequential_stream(2**16, block_bytes=4096)

    def test_split_is_immutable_runs_and_counts(self):
        system = make_system(channels=4)
        split = system.split([MasterTransaction(Op.READ, 0, 256)])
        assert split.runs == tuple(((0, 0, 4, 0),) for _ in range(4))
        assert (split.transactions, split.chunks) == (1, 16)

    def test_run_is_split_then_run_split(self):
        system = make_system(channels=2)
        txns = self._stream()
        assert system.run(txns).channels == (
            system.run_split(system.split(txns)).channels
        )

    def test_unpaced_split_reused_across_clocks(self):
        txns = self._stream()
        split = make_system(channels=2, freq=200.0).split(txns)
        other = make_system(channels=2, freq=400.0)
        assert other.split(txns) == split
        assert other.run_split(split).channels == other.run(txns).channels

    def test_paced_split_depends_on_clock(self):
        paced = pace_transactions(self._stream(), frame_period_ms=0.1)
        slow = make_system(channels=2, freq=200.0).split(paced)
        fast = make_system(channels=2, freq=400.0).split(paced)
        assert slow != fast
        assert slow.runs[0][-1][3] < fast.runs[0][-1][3]

    def test_split_keeps_every_check(self):
        system = make_system(channels=1)
        capacity = system.config.total_capacity_bytes
        with pytest.raises(AddressError):
            system.split(
                [MasterTransaction(Op.READ, capacity - 16, 64)],
                wrap_capacity=False,
            )
        with pytest.raises(AddressError):
            system.split([MasterTransaction(Op.READ, 0, capacity + 16)])
        with pytest.raises(ConfigurationError, match="arrival_ns"):
            system.split([MasterTransaction(Op.READ, 0, 16, arrival_ns=-0.1)])

    def test_run_split_rejects_foreign_channel_count(self):
        split = make_system(channels=2).split(self._stream())
        with pytest.raises(ConfigurationError, match="channel"):
            make_system(channels=4).run_split(split)

    def test_counters_come_from_the_split(self):
        system = make_system(channels=2)
        split = system.split(self._stream())
        telemetry = Telemetry.enabled()
        system.run_split(split, telemetry=telemetry)
        system.run_split(split, telemetry=telemetry)
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["system.runs"] == 2
        assert counters["system.transactions"] == 2 * split.transactions
        assert counters["system.chunks_queued"] == 2 * split.chunks


def _plain_split(system, transactions):
    """The Table II split spelled out: each transaction's
    ``chunk_span`` wrapped at capacity and cut by ``split_span``."""
    capacity_chunks = system.config.total_capacity_bytes >> 4
    tck = clock_period_ns(system.config.freq_mhz)
    per_channel = [[] for _ in range(system.config.channels)]
    chunks = 0
    for txn in transactions:
        arrival = 0
        if txn.arrival_ns is not None:
            cycles = txn.arrival_ns / tck
            arrival = int(cycles)
            if cycles - arrival > _ARRIVAL_EPSILON_CYCLES:
                arrival += 1
        span = txn.chunk_span()
        chunks += len(span)
        first = span.start % capacity_chunks
        remaining = len(span)
        while remaining:
            take = min(remaining, capacity_chunks - first)
            for ch, start, count in system.interleaver.split_span(
                first, first + take - 1
            ):
                per_channel[ch].append((int(txn.op), start, count, arrival))
            first = 0
            remaining -= take
    return tuple(map(tuple, per_channel)), len(transactions), chunks


def _random_stream(rng, capacity, tck):
    """Unaligned reads and writes, some ending just short of the
    capacity, some wrapping at it or lying beyond it, with missing, zero, on-edge, near-edge and arbitrary
    arrival times."""
    txns = []
    for _ in range(300):
        size = rng.randint(1, 20000)
        address = rng.choice(
            [
                rng.randrange(0, capacity - size),
                capacity - size - rng.randrange(0, 4096),
                rng.randrange(capacity - size, capacity),
                rng.randrange(capacity, 3 * capacity),
            ]
        )
        edge = rng.randrange(1, 10**6) * tck
        nudge = rng.uniform(-0.5, 0.5) * _ARRIVAL_EPSILON_CYCLES * tck
        arrival = rng.choice(
            [None, 0.0, edge, edge + nudge, rng.uniform(0, 10**6)]
        )
        op = rng.choice((Op.READ, Op.WRITE))
        txns.append(MasterTransaction(op, address, size, arrival_ns=arrival))
    return txns


class TestSplitAgainstPlainSplit:
    """The split loop computes each span from ``address``/``size`` and
    skips the conversion of backlogged arrivals; it must still equal
    the plain per-transaction split, and fail in the same way."""

    @pytest.mark.parametrize("freq", [333.0, 400.0])
    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_matches_plain_split(self, channels, freq):
        system = make_system(channels=channels, freq=freq)
        rng = random.Random(channels * 1000 + int(freq))
        txns = _random_stream(
            rng, system.config.total_capacity_bytes, clock_period_ns(freq)
        )
        split = system.split(txns)
        assert (split.runs, split.transactions, split.chunks) == _plain_split(
            system, txns
        )

    def test_errors_unchanged(self):
        system = make_system(channels=2)
        capacity = system.config.total_capacity_bytes
        negative = MasterTransaction(Op.READ, 0, 16, arrival_ns=1.0)
        object.__setattr__(negative, "arrival_ns", -0.5)
        cases = [
            (
                [MasterTransaction(Op.READ, capacity - 16, 64)],
                False,
                AddressError,
                f"transaction [{capacity - 16:#x}, {capacity + 48:#x}) "
                f"exceeds total capacity {capacity:#x}",
            ),
            (
                [MasterTransaction(Op.READ, 0, capacity + 16)],
                True,
                AddressError,
                f"transaction of {capacity + 16} bytes exceeds the whole "
                f"memory capacity {capacity:#x}",
            ),
            (
                [negative],
                True,
                ConfigurationError,
                "transaction arrival_ns must be >= 0, got -0.5",
            ),
            (
                [MasterTransaction(5, 0, 64)],
                True,
                ConfigurationError,
                "run op must be 0 or 1, got 5",
            ),
        ]
        for txns, wrap, error, message in cases:
            with pytest.raises(error) as caught:
                system.split(txns, wrap_capacity=wrap)
            assert str(caught.value) == message


class TestDescribe:
    def test_describe_delegates_to_config(self):
        system = make_system(channels=2)
        assert system.describe() == system.config.describe()


def _default_backend_logs_commands():
    from repro.backends import get_backend
    from repro.backends.registry import default_backend_name

    return get_backend(default_backend_name()).supports_command_log


@pytest.mark.skipif(
    not _default_backend_logs_commands(),
    reason="default backend cannot produce command logs to audit",
)
class TestSystemAudit:
    def test_use_case_run_is_protocol_clean_on_every_channel(self):
        """End-to-end integration: a real frame fragment through the
        full multi-channel system yields protocol-clean command
        streams on every channel."""
        from repro.load.model import VideoRecordingLoadModel
        from repro.usecase.levels import level_by_name
        from repro.usecase.pipeline import VideoRecordingUseCase

        load = VideoRecordingLoadModel(VideoRecordingUseCase(level_by_name("3.1")))
        txns = load.generate_frame(scale=1 / 128)
        system = make_system(channels=4)
        logs = []
        result = system.run(txns, scale=1 / 128, command_logs=logs)
        assert len(logs) == 4
        assert all(log for log in logs)
        assert system.audit(logs) == []
        # The logs agree with the counters.
        from repro.dram.commands import Command

        reads = sum(
            1 for log in logs for rec in log if rec.command is Command.READ
        )
        assert reads == result.merged_counters().reads

    def test_audit_reports_channel_index(self):
        from repro.dram.commands import Command
        from repro.dram.protocol import CommandRecord

        system = make_system(channels=2)
        bogus = [[], [CommandRecord(5, Command.READ, 0, 1)]]
        problems = system.audit(bogus)
        assert problems
        assert problems[0].startswith("channel 1:")
