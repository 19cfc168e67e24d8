"""Backend parity: batch vs reference (exact), analytic (tolerance).

The contracts pinned here are the ones docs/architecture.md (Backends)
documents:

- ``batch`` returns *identical command counts* and access time within
  1 % of ``reference`` (it is in fact designed to be bit-identical --
  one test class pins the stronger property on a full streaming
  frame);
- ``analytic`` tracks the reference access time within 15 % on the
  paper's streaming workloads;
- all hold across the Fig. 3 frequency sweep and the Fig. 4 format
  sweep configurations.

The batch engine issues every segment visit as one closed-form body
whose head takes the max of all its bounds; the identity classes at
the end pin the cases that body must get right beyond the default
queue on unpaced traffic: a live command queue, idle gaps under every
power-down policy, heads held by a turnaround or by tRCD after an
activate, and a refresh deadline inside a segment.  Another pins the
reference's once-per-block precharge-ready raise where a refresh or a
closed-page PRE reads it inside a block.

Three classes hold what parity with batch cannot: the digest of the
reference's own command log, pinned across clock, queue depth and page
policy, and witnesses for the queue and tFAW proofs both exact engines
share.  A last class runs both engines where tFAW does bind, on an
eight-bank device, against FR-FCFS and the protocol checker.
"""

import hashlib
from dataclasses import fields, replace

import pytest

from repro.controller.engine import ChannelResult
from repro.controller.frfcfs import ReorderingChannelEngine
from repro.controller.interconnect import InterconnectModel
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.core.channel import Channel
from repro.core.config import PAPER_FREQUENCIES_MHZ, SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.dram.commands import Command
from repro.dram.powerstate import ImmediatePowerDown, NoPowerDown, TimeoutPowerDown
from repro.dram.timing import TimingCycles
from repro.load.model import VideoRecordingLoadModel
from repro.load.scaling import choose_scale
from repro.usecase.levels import level_by_name
from repro.usecase.pipeline import VideoRecordingUseCase
from tests.dram.test_custom_device import make_eight_bank_device

#: Simulated-burst budget for parity runs: small enough to keep the
#: suite quick, large enough that every config sees refresh windows,
#: direction switches and bank conflicts.
PARITY_BUDGET = 20_000

#: Documented analytic access-time tolerance (docs/architecture.md).
ANALYTIC_TOLERANCE = 0.15

#: The backends documented as bit-identical to the reference.
EXACT_BACKENDS = ["batch"]

_TRAFFIC_CACHE = {}
_RESULT_CACHE = {}


def _frame_traffic(level_name):
    """One (scaled) frame of streaming traffic for ``level_name``."""
    if level_name not in _TRAFFIC_CACHE:
        use_case = VideoRecordingUseCase(level_by_name(level_name))
        load = VideoRecordingLoadModel(use_case)
        scale = choose_scale(use_case.total_bytes_per_frame(), PARITY_BUDGET)
        _TRAFFIC_CACHE[level_name] = (load.generate_frame(scale=scale), scale)
    return _TRAFFIC_CACHE[level_name]


def _run(level_name, config, backend):
    # Results are pure values and the sweep axes repeat across test
    # classes, so memoise: three exact backends over the same grid
    # would otherwise re-run the slow reference point per comparison.
    key = (level_name, config.channels, config.freq_mhz, backend)
    if key not in _RESULT_CACHE:
        txns, scale = _frame_traffic(level_name)
        system = MultiChannelMemorySystem(config.with_backend(backend))
        _RESULT_CACHE[key] = system.run(txns, scale=scale)
    return _RESULT_CACHE[key]


#: Fig. 3 axis: the single-channel frequency sweep on 720p30.
FIG3_CONFIGS = [
    ("3.1", SystemConfig(channels=1, freq_mhz=f)) for f in PAPER_FREQUENCIES_MHZ
]

#: Fig. 4 axis: the format (level) sweep at the paper's 400 MHz point.
FIG4_CONFIGS = [
    (name, SystemConfig(channels=channels, freq_mhz=400.0))
    for name, channels in (("3.1", 1), ("3.2", 2), ("4", 4), ("4.2", 8))
]

SWEEP = FIG3_CONFIGS + FIG4_CONFIGS
SWEEP_IDS = [
    f"{name}-{config.channels}ch-{config.freq_mhz:g}MHz"
    for name, config in SWEEP
]


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("level_name, config", SWEEP, ids=SWEEP_IDS)
class TestExactParity:
    def test_identical_command_counts(self, level_name, config, backend):
        ref = _run(level_name, config, "reference")
        out = _run(level_name, config, backend)
        assert out.merged_counters().as_dict() == ref.merged_counters().as_dict()

    def test_access_time_within_one_percent(self, level_name, config, backend):
        ref = _run(level_name, config, "reference")
        out = _run(level_name, config, backend)
        assert out.access_time_ms == pytest.approx(ref.access_time_ms, rel=0.01)


@pytest.mark.parametrize("level_name, config", SWEEP, ids=SWEEP_IDS)
class TestAnalyticParity:
    def test_access_time_within_documented_tolerance(self, level_name, config):
        ref = _run(level_name, config, "reference")
        analytic = _run(level_name, config, "analytic")
        assert analytic.access_time_ms == pytest.approx(
            ref.access_time_ms, rel=ANALYTIC_TOLERANCE
        )

    def test_chunk_accounting_exact(self, level_name, config):
        ref = _run(level_name, config, "reference")
        analytic = _run(level_name, config, "analytic")
        counters_ref = ref.merged_counters()
        counters_ana = analytic.merged_counters()
        # Data movement is exact by construction; only timing is modelled.
        assert counters_ana.reads == counters_ref.reads
        assert counters_ana.writes == counters_ref.writes


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
class TestBitIdentity:
    """The stronger property the design actually delivers: batch
    applies its shortcuts only when provably exact, so whole
    results -- finish cycles, per-bank balance, power-state residencies
    -- match the reference bit for bit."""

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(channels=1, freq_mhz=400.0),
            SystemConfig(channels=4, freq_mhz=200.0),
            SystemConfig(channels=4, freq_mhz=533.0),
        ],
        ids=["1ch-400", "4ch-200", "4ch-533"],
    )
    def test_full_result_identical(self, config, backend):
        ref = _run("4", config, "reference")
        out = _run("4", config, backend)
        assert out.access_time_ms == ref.access_time_ms
        assert out.engine_stats() == ref.engine_stats()
        for ch_ref, ch_out in zip(ref.channels, out.channels):
            assert ch_out.finish_cycle == ch_ref.finish_cycle
            assert ch_out.data_cycles == ch_ref.data_cycles
            assert ch_out.counters.as_dict() == ch_ref.counters.as_dict()
            assert ch_out.bank_accesses == ch_ref.bank_accesses
            assert ch_out.states == ch_ref.states

    def test_command_log_identical(self, backend):
        """With a command log attached the engine falls back to
        stepping, so the logged command stream matches exactly."""
        config = SystemConfig(channels=1, freq_mhz=400.0)
        runs = [(0, 0, 512), (1, 4096, 512), (0, 64, 256)]
        ref_log, out_log = [], []
        Channel(config.with_backend("reference")).run(runs, command_log=ref_log)
        Channel(config.with_backend(backend)).run(runs, command_log=out_log)
        assert out_log == ref_log
        assert len(ref_log) > 0


def _assert_identical(ref: ChannelResult, out: ChannelResult) -> None:
    """Every :class:`ChannelResult` field, named on a mismatch."""
    for field in fields(ChannelResult):
        want = getattr(ref, field.name)
        assert getattr(out, field.name) == want, field.name


def _queue_live(config: SystemConfig) -> bool:
    """Whether the command-queue floor can bind at this depth (both
    engines' ``queue_live``)."""
    timing = config.device.timing.at_frequency(config.freq_mhz)
    return config.queue.can_bind(timing)


#: Shallow command queues at every Fig. 3 clock.
QUEUE_CONFIGS = [
    SystemConfig(
        channels=1, freq_mhz=freq, queue=CommandQueueModel(depth=depth)
    )
    for depth in (1, 2, 4)
    for freq in PAPER_FREQUENCIES_MHZ
]
QUEUE_IDS = [
    f"q{config.queue.depth}-{config.freq_mhz:g}MHz"
    + ("-live" if _queue_live(config) else "")
    for config in QUEUE_CONFIGS
]


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
class TestShallowQueueIdentity:
    @pytest.mark.parametrize("config", QUEUE_CONFIGS, ids=QUEUE_IDS)
    def test_full_result_identical(self, config, backend):
        txns, scale = _frame_traffic("3.1")
        ref = MultiChannelMemorySystem(config.with_backend("reference"))
        out = MultiChannelMemorySystem(config.with_backend(backend))
        (ch_ref,) = ref.run(txns, scale=scale).channels
        (ch_out,) = out.run(txns, scale=scale).channels
        _assert_identical(ch_ref, ch_out)
        if config.queue.depth == 1:
            # Live at every clock, and the floor really binds here.
            assert _queue_live(config) and ch_ref.queue_stalls > 0


def _paced_runs():
    """Eight-chunk reads, then writes, whose arrivals leave idle gaps
    from 2 cycles (either side of a 16-cycle timeout) to ~3000 at
    400 MHz; the first few of each direction arrive while the channel
    is still busy."""
    runs = []
    arrival = 0
    for op in (0, 1):
        for i, spacing in enumerate((*range(18, 44, 2), 60, 300, 3000)):
            arrival += spacing + 25 * op
            runs.append((op, 256 * op + 8 * i, 8, arrival))
    return runs


def _reference_log(config: SystemConfig, runs) -> list:
    log = []
    Channel(config.with_backend("reference")).run(runs, command_log=log)
    return log


def _identical(config: SystemConfig, runs, backend: str) -> None:
    ref = Channel(config.with_backend("reference")).run(runs)
    out = Channel(config.with_backend(backend)).run(runs)
    _assert_identical(ref, out)


PAPER_CLOCK = SystemConfig(channels=1, freq_mhz=400.0)
TIMING = PAPER_CLOCK.device.timing.at_frequency(400.0)

#: Hand-built cases run at the paper clock with the default queue and
#: with a queue-live depth of one.
HAND_CONFIGS = [PAPER_CLOCK, replace(PAPER_CLOCK, queue=CommandQueueModel(depth=1))]
HAND_IDS = ["q8", "q1"]
COLUMN = (Command.READ, Command.WRITE)


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
class TestPacedIdentity:
    @pytest.mark.parametrize(
        "policy",
        [ImmediatePowerDown(), TimeoutPowerDown(16), NoPowerDown()],
        ids=lambda policy: policy.name,
    )
    @pytest.mark.parametrize("config", HAND_CONFIGS, ids=HAND_IDS)
    def test_idle_gaps_identical(self, config, policy, backend):
        config = replace(config, power_down=policy)
        runs = _paced_runs()
        _identical(config, runs, backend)
        entries = Channel(config).run(runs).counters.power_down_entries
        if isinstance(policy, NoPowerDown):
            assert entries == 0
        else:
            assert entries > 0


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("config", HAND_CONFIGS, ids=HAND_IDS)
class TestHeadBoundIdentity:
    """Runs built so that a segment's head is held by one bound other
    than the data bus; the reference's command log shows which."""

    def test_write_to_read_turnaround(self, config, backend):
        # Short alternating runs inside one row: every head after the
        # first is a direction switch.
        runs = [(i % 2 ^ 1, i * 8, 8, 0) for i in range(24)]
        _identical(config, runs, backend)
        log = _reference_log(PAPER_CLOCK, runs)
        column = [rec for rec in log if rec.command in COLUMN]
        held = [
            after.cycle
            == before.cycle + TIMING.write_latency + TIMING.burst_cycles
            + TIMING.t_wtr
            for before, after in zip(column, column[1:])
            if before.command is Command.WRITE and after.command is Command.READ
        ]
        assert len(held) == 12 and all(held)

    def test_col_ready_after_activate(self, config, backend):
        # Bank 0, row 0 then row 1: a row conflict, so the second run's
        # head waits for its activate's tRCD.
        runs = [(0, 0, 64, 0), (0, 1024, 64, 0), (1, 2048, 32, 0)]
        _identical(config, runs, backend)
        log = _reference_log(PAPER_CLOCK, runs)
        after_act = [
            (before.cycle, after.cycle)
            for before, after in zip(log, log[1:])
            if before.command is Command.ACTIVATE and after.command in COLUMN
        ]
        assert len(after_act) == 3
        assert all(col == act + TIMING.t_rcd for act, col in after_act)

    @pytest.mark.parametrize("op", [0, 1], ids=["read", "write"])
    def test_refresh_deadline_inside_a_segment(self, config, op, backend):
        runs = [(op, 0, 32768, 0)]
        _identical(config, runs, backend)
        # Count the column commands issued before each refresh: a count
        # that is not a multiple of the segment length (one aligned
        # 2**block_shift block) means the deadline fell mid-segment.
        block = 1 << Channel(PAPER_CLOCK).simulator.mapping.block_shift
        issued = 0
        cuts = []
        for rec in _reference_log(PAPER_CLOCK, runs):
            if rec.command in COLUMN:
                issued += 1
            elif rec.command is Command.REFRESH:
                cuts.append(issued % block)
        assert len(cuts) >= 3
        assert any(cut != 0 for cut in cuts)


#: The paper's device with a 30 ns write recovery: a write's
#: precharge-ready (WL + burst + tWR after its column) then outlasts
#: tRAS from its activate, so it bounds the precharge after it, the
#: closed-page one included.
SLOW_WRITE_RECOVERY = replace(
    PAPER_CLOCK,
    device=replace(
        PAPER_CLOCK.device,
        timing=replace(PAPER_CLOCK.device.timing, t_wr_ns=30.0),
    ),
)
SLOW_TIMING = SLOW_WRITE_RECOVERY.device.timing.at_frequency(400.0)


def _first_refresh(config: SystemConfig, runs):
    """The reference log, the first REFRESH's index in it, and the
    column commands before it; the log must pass the protocol checker
    and batch must match the reference."""
    for backend in EXACT_BACKENDS:
        _identical(config, runs, backend)
    log = _reference_log(config, runs)
    assert Channel(config).simulator.make_checker().check(log) == []
    i = next(k for k, rec in enumerate(log) if rec.command is Command.REFRESH)
    return log, i, [rec for rec in log[:i] if rec.command in COLUMN]


class TestPrechargeReadyFlush:
    """The reference raises a bank's precharge-ready from a block's
    last column once per block, and flushes the pending value first
    where it is read inside the block: before a refresh's PREA scan
    and before the closed-page PRE.  Each case pins the first REFRESH
    cycle, which a missing or wrong flush moves."""

    @pytest.mark.parametrize(
        "policy, ref_cycle", [("open", 3141), ("closed", 3132)]
    )
    def test_refresh_inside_a_write_block(self, policy, ref_cycle):
        config = replace(SLOW_WRITE_RECOVERY, page_policy=PagePolicy(policy))
        log, i, columns = _first_refresh(config, [(1, 0, 4000, 0)])
        block = 1 << Channel(config).simulator.mapping.block_shift
        assert len(columns) % block != 0  # the refresh falls mid-block
        # The current bank's last write bounds the precharge before
        # the refresh: the PREA (open page) or the closed-page PRE.
        last = columns[-1]
        pre = log[i - 1]
        assert pre.command is (
            Command.PRECHARGE_ALL if policy == "open" else Command.PRECHARGE
        )
        assert pre.cycle == (
            last.cycle
            + SLOW_TIMING.write_latency
            + SLOW_TIMING.burst_cycles
            + SLOW_TIMING.t_wr
        )
        assert log[i].cycle == ref_cycle

    def test_refresh_at_a_blocks_first_column_flushes_nothing(self):
        # Reads up to the first refresh deadline, then a write run into
        # bank 1, whose row 0 is still open: the deadline is met at the
        # write block's first burst, before it issues a column, so the
        # PREA waits only for the last read.
        config = SLOW_WRITE_RECOVERY
        _, _, columns = _first_refresh(config, [(0, 0, 4000, 0)])
        reads = len(columns)
        runs = [(0, 0, reads, 0), (1, 256, 64, 0)]
        log, i, columns = _first_refresh(config, runs)
        assert len(columns) == reads
        assert log[i + 1 :] and log[i + 1].command is Command.ACTIVATE
        assert (log[i + 1].bank, log[i + 1].row) == (1, 0)
        pre = log[i - 1]
        assert pre.command is Command.PRECHARGE_ALL
        assert pre.cycle == columns[-1].cycle + SLOW_TIMING.burst_cycles
        assert log[i].cycle == 3128


def _frame_runs():
    """The 3.1 parity frame, split onto a single channel."""
    txns, _ = _frame_traffic("3.1")
    return MultiChannelMemorySystem(PAPER_CLOCK).split(txns).runs[0]


def _log_digest(config: SystemConfig) -> str:
    h = hashlib.sha256()
    for rec in _reference_log(config, _frame_runs()):
        h.update(f"{rec.cycle} {rec.command.value} {rec.bank} {rec.row}\n".encode())
    return h.hexdigest()


#: SHA-256 of the reference ``command_log`` of the 3.1 parity frame, one
#: ``"cycle CMD bank row"`` line per command, computed before the
#: per-burst body fixed each run's direction and skipped the ring.
#: Under the closed page policy the per-access precharge keeps the
#: command bus ahead of the queue floor, so depths 8 and 1 agree.
PINNED_LOG_DIGESTS = {
    (200.0, 8, "open"): (
        "203fbbb0be5044fb28705c7fbaa3315f5f39daf64d83c8bfc6b46ad09381ab2a"
    ),
    (200.0, 8, "closed"): (
        "b449ba687d11460ac25d2e6091644096732ddfdf6add5e5fb0d69a46aa4bfcdf"
    ),
    (200.0, 1, "open"): (
        "44bc53d9efc6e02ea7069fa143b101a7583c8251c1f4cc680dbe1d0f1dabdf04"
    ),
    (200.0, 1, "closed"): (
        "b449ba687d11460ac25d2e6091644096732ddfdf6add5e5fb0d69a46aa4bfcdf"
    ),
    (533.0, 8, "open"): (
        "250eed1fcb9e9fbd82301ae259efa8e64fcc3eedd6b9013d3b56cbb9f489b22e"
    ),
    (533.0, 8, "closed"): (
        "8485185f294a9dc8eb7c2b3e54bc32eb1d83e430a5a19cc50a7350024fb388e1"
    ),
    (533.0, 1, "open"): (
        "4da8ceb6777114dc57e7c6ceb86c65c62595585b093f80c9557ea051b3289ddf"
    ),
    (533.0, 1, "closed"): (
        "8485185f294a9dc8eb7c2b3e54bc32eb1d83e430a5a19cc50a7350024fb388e1"
    ),
}


class TestPinnedCommandLog:
    """Result parity cannot show that the reference issues every
    command at the same cycle as before its loop was restructured:
    batch never logs commands.  The log's digest shows it directly."""

    @pytest.mark.parametrize(
        "freq, depth, policy",
        list(PINNED_LOG_DIGESTS),
        ids=[f"{f:g}MHz-q{d}-{p}" for f, d, p in PINNED_LOG_DIGESTS],
    )
    def test_command_log_digest(self, freq, depth, policy):
        config = SystemConfig(
            channels=1,
            freq_mhz=freq,
            page_policy=PagePolicy(policy),
            queue=CommandQueueModel(depth=depth),
        )
        assert _log_digest(config) == PINNED_LOG_DIGESTS[(freq, depth, policy)]


@pytest.mark.parametrize("backend", ["reference", *EXACT_BACKENDS])
@pytest.mark.parametrize("traffic", ["frame", "paced"])
@pytest.mark.parametrize("depth", [1, 2, 4, 8])
@pytest.mark.parametrize("freq", PAPER_FREQUENCIES_MHZ)
class TestQueueProofWitness:
    """Both exact engines skip the ring on the same proof,
    ``CommandQueueModel.can_bind``, so their differential fuzz cannot
    catch a wrong proof.  Forcing the ring on must change nothing."""

    def test_forced_ring_changes_nothing(
        self, monkeypatch, freq, depth, traffic, backend
    ):
        config = SystemConfig(
            channels=1,
            freq_mhz=freq,
            queue=CommandQueueModel(depth=depth),
            backend=backend,
        )
        runs = _frame_runs() if traffic == "frame" else _paced_runs()
        live = _queue_live(config)
        normal = Channel(config).run(runs)
        monkeypatch.setattr(CommandQueueModel, "can_bind", lambda self, timing: True)
        forced = Channel(config).run(runs)
        _assert_identical(normal, forced)
        if not live:
            assert forced.queue_stalls == 0


@pytest.mark.parametrize("backend", ["reference", *EXACT_BACKENDS])
@pytest.mark.parametrize("traffic", ["frame", "paced"])
@pytest.mark.parametrize("depth", [1, 8])
@pytest.mark.parametrize("freq", PAPER_FREQUENCIES_MHZ)
class TestFawProofWitness:
    """Both exact engines skip the tFAW history on the same proof,
    ``TimingCycles.faw_can_bind``, which rules the window out on the
    paper's device at every clock.  Forcing it on must change
    nothing."""

    def test_forced_window_changes_nothing(
        self, monkeypatch, freq, depth, traffic, backend
    ):
        config = SystemConfig(
            channels=1,
            freq_mhz=freq,
            queue=CommandQueueModel(depth=depth),
            backend=backend,
        )
        timing = config.device.timing.at_frequency(freq)
        assert not timing.faw_can_bind(config.device.geometry.banks)
        runs = _frame_runs() if traffic == "frame" else _paced_runs()
        normal = Channel(config).run(runs)
        monkeypatch.setattr(TimingCycles, "faw_can_bind", lambda self, banks: True)
        forced = Channel(config).run(runs)
        _assert_identical(normal, forced)


def _activate_storm():
    """One- and two-burst runs rotating over the eight banks and
    sixteen rows of the eight-bank device (2 KB rows: bank = chunk >> 7
    & 7, row = chunk >> 10), mixed reads and writes: every run opens a
    row, so activates crowd the four-activate window."""
    runs = []
    for i in range(256):
        bank = (3 * i) % 8
        row = (i // 8) % 16
        start = row * 1024 + bank * 128 + (i % 3) * 8
        runs.append(((i // 5) % 2, start, 2 if i % 4 == 3 else 1))
    return runs


@pytest.mark.parametrize("freq", PAPER_FREQUENCIES_MHZ)
class TestFawBindingIdentity:
    """Where tFAW can bind, both exact engines must still agree with
    each other, with FR-FCFS at a one-entry window (which keeps its own
    tRCD and tFAW bookkeeping) and with the protocol checker."""

    def test_engines_agree_where_tfaw_binds(self, monkeypatch, freq):
        device = make_eight_bank_device()
        config = SystemConfig(
            channels=1,
            freq_mhz=freq,
            device=device,
            interconnect=InterconnectModel(0.0),
        )
        timing = device.timing.at_frequency(freq)
        assert timing.faw_can_bind(device.geometry.banks)
        assert not config.queue.can_bind(timing)
        runs = _activate_storm()
        log = []
        ref = Channel(config.with_backend("reference")).run(runs, command_log=log)
        _assert_identical(ref, Channel(config.with_backend("batch")).run(runs))
        frfcfs = ReorderingChannelEngine(
            device, freq, interconnect=config.interconnect, window=1
        )
        _assert_identical(ref, frfcfs.run(runs))
        engine = Channel(config).simulator
        assert engine.make_checker().check(log) == []
        acts = [rec.cycle for rec in log if rec.command is Command.ACTIVATE]
        held = [
            k
            for k in range(4, len(acts))
            if acts[k] == acts[k - 4] + timing.t_faw
            and acts[k] > acts[k - 1] + timing.t_rrd
        ]
        assert held, "no ACTIVATE was held by the four-activate window"
        # Without the window the same stream activates earlier.
        monkeypatch.setattr(TimingCycles, "faw_can_bind", lambda self, banks: False)
        unbound = []
        Channel(config.with_backend("reference")).run(runs, command_log=unbound)
        assert [r.cycle for r in unbound if r.command is Command.ACTIVATE] != acts
