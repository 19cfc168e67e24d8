"""Tests for the multi-channel memory system."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.engine import runs_digest
from repro.controller.request import MasterTransaction, Op
from repro.core.config import SystemConfig
from repro.core.system import _ARRIVAL_EPSILON_CYCLES, MultiChannelMemorySystem
from repro.errors import AddressError, ConfigurationError
from repro.load.generators import sequential_stream
from repro.load.model import VideoRecordingLoadModel
from repro.load.pacing import pace_transactions
from repro.load.scaling import choose_scale
from repro.telemetry import Telemetry
from repro.units import clock_period_ns
from repro.usecase.levels import PAPER_LEVELS, level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase


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


#: One system per channel count the paper sweeps.
_SYSTEMS = {m: make_system(channels=m) for m in (1, 2, 4, 8)}


def _transactions(capacity):
    """Up to eight reads and writes of 1 byte to 128 chunks (so a span
    can cover every channel many times and end mid-chunk), starting
    near address 0, near the capacity wrap or anywhere up to three
    capacities out."""
    address = st.one_of(
        st.integers(0, 4096),
        st.integers(capacity - 4096, capacity + 4096),
        st.integers(0, 3 * capacity),
    )
    txn = st.builds(
        MasterTransaction,
        st.sampled_from((Op.READ, Op.WRITE)),
        address,
        st.integers(1, 128 * 16),
    )
    return st.lists(txn, min_size=1, max_size=8)


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_matches_plain_split(self, data):
        channels = data.draw(st.sampled_from(sorted(_SYSTEMS)))
        system = _SYSTEMS[channels]
        txns = data.draw(_transactions(system.config.total_capacity_bytes))
        wrap = data.draw(st.booleans())
        capacity = system.config.total_capacity_bytes
        beyond = [t for t in txns if t.address + t.size > capacity]
        if beyond and not wrap:
            first = beyond[0]
            with pytest.raises(AddressError) as caught:
                system.split(txns, wrap_capacity=False)
            assert str(caught.value) == (
                f"transaction [{first.address:#x}, "
                f"{first.address + first.size:#x}) "
                f"exceeds total capacity {capacity:#x}"
            )
            return
        split = system.split(txns, wrap_capacity=wrap)
        assert (split.runs, split.transactions, split.chunks) == _plain_split(
            system, txns
        )


#: ``runs_digest`` of every channel's runs (the first 16 hex digits)
#: for the five paper levels' frames, split at 1, 2, 4 and 8 channels,
#: keyed by (level, channels, budget); captured before the split
#: inlined ``ChannelInterleaver.split_span``.
PINNED_SPLIT_DIGESTS = {
    ("3.1", 1, 60000): ("572dd853c88af40c",),
    ("3.1", 2, 60000): (
        "2eefd9ebcec093a9", "2363d7aea1f18e35",
    ),
    ("3.1", 4, 60000): (
        "39017261d178a8a5", "03092d487c4c295f", "6a43a26326506b99",
        "b004a0e9491e5cc2",
    ),
    ("3.1", 8, 60000): (
        "d1cd62135d2a5ee2", "eabe9692dc1a8654", "4c18269a2fa41981",
        "650c6da9d167beb7", "0a5f4618a04c5494", "590d7bb52f7c6d44",
        "93c4cb535c7cdfd6", "c1f50ffeb1c031bb",
    ),
    ("3.2", 1, 60000): ("deb4897e0810503f",),
    ("3.2", 2, 60000): (
        "26790947709dfbc1", "c28bfa8f1c69f9ea",
    ),
    ("3.2", 4, 60000): (
        "26cec63aca07bafa", "405384a3cb9b8fc2", "2b9e4567432ca496",
        "5b396f55e6451fe2",
    ),
    ("3.2", 8, 60000): (
        "649b8675e7b45ff6", "9a0343fb20c42a99", "89c7bf232ae684ae",
        "6f9b3505bb52ee53", "f9d4d310b7bb81b1", "72756eeb583ac8cd",
        "897ed4c3738d0022", "e987a7c089e5e70b",
    ),
    ("4", 1, 60000): ("07e3814eeee34e1e",),
    ("4", 2, 60000): (
        "a3d255bc4f070af3", "74faef532963cb75",
    ),
    ("4", 4, 60000): (
        "89a813e6e59508cd", "1cacba22bfe192a1", "f4b7e9ff349ea1b5",
        "4237ad1fdb65e30f",
    ),
    ("4", 8, 60000): (
        "1d22688a583df156", "8c612719045269e4", "ef1f8f453e99c4e9",
        "0c6448f0cbbd94e8", "e0a89b9a8de5fd0d", "87fcd48507a4d033",
        "b155ab021aee1dda", "c6d4bbca936d1184",
    ),
    ("4.2", 1, 60000): ("d3eee559135fcd3b",),
    ("4.2", 2, 60000): (
        "3b7db368ba90c639", "df612be59bc032a9",
    ),
    ("4.2", 4, 60000): (
        "6f7c0d7ff7aa79db", "b0189340c153404c", "90e2af2f56e502ef",
        "cf97da762bb1758e",
    ),
    ("4.2", 8, 60000): (
        "aac2f0d38790a1f2", "67c7f874ebac8e6e", "04dee1d9e407ce87",
        "f584d5578f7f42f4", "0584b167a3a31b7e", "553ea6043dc58e83",
        "b428fe40b4da7b5d", "df20f7f9c1296787",
    ),
    ("5.2", 1, 60000): ("08f20a9689b1ca3e",),
    ("5.2", 2, 60000): (
        "bc4f69c1d6c18ba3", "cd76daaa145b3b47",
    ),
    ("5.2", 4, 60000): (
        "e9de92bfb0a77228", "e7985614edf7e247", "ded137784faa28eb",
        "a7394f5557a0ff5a",
    ),
    ("5.2", 8, 60000): (
        "d28a07d6be9de221", "02ac7bf118adff54", "08ff5177a08486b3",
        "ca11108799635c47", "d5de38b6625b9498", "f51002d9c89192e6",
        "6564fc7ab6c36ede", "cbafb43863972952",
    ),
    ("3.1", 1, 200000): ("0c914fd4a484330e",),
    ("3.1", 2, 200000): (
        "806dc879d816b294", "bcce4404dc4ee183",
    ),
    ("3.1", 4, 200000): (
        "a48ce8afa03f23c7", "85d6cc815df93c41", "af9c300ea20282a0",
        "6e02d66140027040",
    ),
    ("3.1", 8, 200000): (
        "ab5a7d8b8672c081", "a5c7a938e521b8ad", "3de8581d81814ae7",
        "a71f29bb897c54d9", "c0441998f31ca34f", "d67924693b8975ad",
        "1a7649c9aafbc171", "6a8893efe4777b22",
    ),
    ("3.2", 1, 200000): ("517e0538a9a57109",),
    ("3.2", 2, 200000): (
        "2def922c5ff7d524", "53a9d0daad5b9f23",
    ),
    ("3.2", 4, 200000): (
        "f7b68a0dca546221", "da07a4571112b32e", "a4404d73d700a35e",
        "5c72a4dc7c8b4f9e",
    ),
    ("3.2", 8, 200000): (
        "efbf31d56d7936f9", "25e6b563d1a3ab13", "fb95d54741974a16",
        "170c857c3186fa27", "0400d5b9b945bd15", "657e5f6eeef0dcfd",
        "8504f177e76dd9c0", "fc3f8d3e3c6a9e4c",
    ),
    ("4", 1, 200000): ("133d66b13b136a5d",),
    ("4", 2, 200000): (
        "01d25fee0eb455b6", "c063511c1c48498c",
    ),
    ("4", 4, 200000): (
        "6d7f369d19ba825d", "88ecfae2e2186290", "b3353ce88e5cb76a",
        "535162c7e83a1635",
    ),
    ("4", 8, 200000): (
        "8f2116742b33e83b", "ceac7d3ecd616e62", "bc37d8381c25a89d",
        "3a8c90b55f7d40f1", "693d2946c631ff11", "4f8ca1e28624dd3c",
        "c0acb2d822521ff6", "17772554fb65bfb8",
    ),
    ("4.2", 1, 200000): ("e8e7f02895c0a04b",),
    ("4.2", 2, 200000): (
        "cb5edc0ccdb90c12", "91b5fc43114b8a3d",
    ),
    ("4.2", 4, 200000): (
        "4813407a9efcaadd", "8579d8bf5a28ba46", "6ffbfbec8a501490",
        "26d63a658bd1758a",
    ),
    ("4.2", 8, 200000): (
        "821f58cb90380186", "29a6dd6acd896922", "7fcda09bdd598056",
        "e3853e04c3275084", "ed81ee8bf5bf7086", "1dce73af3fe1500a",
        "1cb9097816845d34", "9204788b5ea0e453",
    ),
    ("5.2", 1, 200000): ("08f20a9689b1ca3e",),
    ("5.2", 2, 200000): (
        "bc4f69c1d6c18ba3", "cd76daaa145b3b47",
    ),
    ("5.2", 4, 200000): (
        "e9de92bfb0a77228", "e7985614edf7e247", "ded137784faa28eb",
        "a7394f5557a0ff5a",
    ),
    ("5.2", 8, 200000): (
        "d28a07d6be9de221", "02ac7bf118adff54", "08ff5177a08486b3",
        "ca11108799635c47", "d5de38b6625b9498", "f51002d9c89192e6",
        "6564fc7ab6c36ede", "cbafb43863972952",
    ),
}


class TestPinnedSplitDigests:
    @pytest.mark.parametrize("budget", [60000, 200000])
    @pytest.mark.parametrize("level", [level.name for level in PAPER_LEVELS])
    def test_paper_frames_split_as_pinned(self, level, budget):
        use_case = VideoRecordingUseCase(level_by_name(level))
        scale = choose_scale(use_case.total_bytes_per_frame(), budget)
        txns = tuple(VideoRecordingLoadModel(use_case).generate_frame(scale=scale))
        for channels, system in _SYSTEMS.items():
            split = system.split(txns)
            assert tuple(
                runs_digest(runs).hex()[:16] for runs in split.runs
            ) == PINNED_SPLIT_DIGESTS[(level, channels, budget)], channels


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
