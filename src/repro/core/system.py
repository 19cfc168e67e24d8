"""The multi-channel memory system (Fig. 2).

Master transactions enter through the Table II interleaver, which
splits them into per-channel access runs; each channel then simulates
independently.  Independence is exact for the paper's workload: the
interleaving is a perfect round-robin, the master stream is processed
in order per channel, and the access-time metric is the completion of
the *last* channel -- there is no cross-channel ordering the split
could violate.

The channels of one run are simulated one after another in the
calling process.  Worker processes work one level up: a sweep fans
whole points out over them (:mod:`repro.parallel`), and a point is a
bigger unit of work than a channel.

The split is also the trust boundary:
:meth:`~MultiChannelMemorySystem.split` checks every channel's runs
once (:func:`~repro.controller.engine.check_runs`), and
:meth:`~MultiChannelMemorySystem.run_split` hands them to each
channel's ``run_trusted`` without checking them again -- however many
clocks share the split.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

from repro.controller.engine import (
    ChannelResult,
    ChannelRuns,
    check_runs,
    runs_digest,
)
from repro.controller.request import CHUNK_SHIFT, MasterTransaction
from repro.core.channel import Channel
from repro.core.config import SystemConfig
from repro.core.interleave import ChannelInterleaver
from repro.core.results import SimulationResult
from repro.errors import AddressError, ConfigurationError
from repro.telemetry.session import Telemetry
from repro.units import clock_period_ns

#: Sub-cycle slack for the arrival-time conversion: an arrival within
#: this many cycles of a clock edge (femtoseconds of real time) is
#: treated as on the edge, absorbing float rounding in ns arithmetic.
_ARRIVAL_EPSILON_CYCLES = 1e-6


class ChannelSplit(NamedTuple):
    """A master stream interleaved over the channels (Table II).

    Immutable, so one split can feed any number of runs.  A split made
    by :meth:`MultiChannelMemorySystem.split` is already checked; one
    built by hand is checked by
    :meth:`~MultiChannelMemorySystem.run_split` before any engine
    sees it."""

    #: Per-channel access runs (``(op, local_start_chunk, count,
    #: arrival_cycle)`` tuples in program order), indexed by channel.
    runs: Tuple[ChannelRuns, ...]
    #: Master transactions split.
    transactions: int
    #: 16-byte chunks queued over all channels.
    chunks: int


class _CheckedSplit(ChannelSplit):
    """A split whose every run passed
    :func:`~repro.controller.engine.check_runs` against ``max_chunk``
    chunks per channel.  Constructing one is the check, so the engines
    can trust its runs as they are."""

    def __new__(cls, runs, transactions, chunks, max_chunk):
        self = super().__new__(
            cls,
            tuple(check_runs(channel, max_chunk) for channel in runs),
            transactions,
            chunks,
        )
        self.max_chunk = max_chunk
        self._digests = [None] * len(self.runs)
        return self

    def runs_digest(self, channel: int) -> bytes:
        """:func:`~repro.controller.engine.runs_digest` of one channel's
        runs, hashed on first use and then held with the split, so the
        clocks that share the split hash each channel once."""
        digest = self._digests[channel]
        if digest is None:
            digest = self._digests[channel] = runs_digest(self.runs[channel])
        return digest

    def __getnewargs__(self):
        return (*self, self.max_chunk)

    def _replace(self, **changes):
        # A changed split is an unchecked one.
        return ChannelSplit(*self)._replace(**changes)


class MultiChannelMemorySystem:
    """Simulates the paper's M-channel memory subsystem."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.interleaver = ChannelInterleaver(config.channels)
        self.channels: List[Channel] = [
            Channel(config, index=i) for i in range(config.channels)
        ]
        self._tck_ns = clock_period_ns(config.freq_mhz)
        self._max_chunk = config.device.geometry.capacity_bytes >> 4

    # ------------------------------------------------------------------

    def run(
        self,
        transactions: Iterable[MasterTransaction],
        scale: float = 1.0,
        wrap_capacity: bool = True,
        command_logs: Optional[List[list]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> SimulationResult:
        """Simulate a stream of master transactions.

        Parameters
        ----------
        transactions:
            The load model's master transactions, in program order.
        scale:
            Fraction of the full workload the stream represents (see
            :mod:`repro.load.scaling`); recorded on the result so the
            full-workload metrics can be recovered.
        wrap_capacity:
            Treat the address space as cyclic: addresses wrap modulo
            the total capacity.  The paper sweeps the 2160p use case
            over a *single* 512 Mb channel whose buffers cannot all
            fit, so its timing study implicitly ignores capacity; the
            wrap preserves each stream's sequentiality and bank/row
            locality, which is all the timing model observes.  Set to
            ``False`` to enforce capacity strictly.
        command_logs:
            Pass an empty list to collect one per-channel command log
            (lists of :class:`~repro.dram.protocol.CommandRecord`) for
            protocol auditing; see :meth:`audit`.
        telemetry:
            A live :class:`~repro.telemetry.Telemetry` session records
            the interleave/engine phase wall-clock and the
            ``system.*`` / ``engine.*`` metrics (see
            docs/architecture.md, Observability).  ``None`` (the
            default) keeps the untapped fast path; results are
            bit-identical either way.
        """
        if telemetry is None:
            split = self.split(transactions, wrap_capacity=wrap_capacity)
        else:
            with telemetry.phase("system.interleave"):
                split = self.split(transactions, wrap_capacity=wrap_capacity)
        return self.run_split(
            split,
            scale=scale,
            command_logs=command_logs,
            telemetry=telemetry,
        )

    def split(
        self,
        transactions: Iterable[MasterTransaction],
        wrap_capacity: bool = True,
    ) -> ChannelSplit:
        """Interleave a master stream into per-channel access runs.

        The Table II split that :meth:`run` performs, exposed so one
        split can feed several runs: it depends on the channel count,
        the total capacity and -- through the arrival cycles -- the
        clock period, and on nothing else of the configuration.
        ``wrap_capacity`` is as in :meth:`run`.

        Every run is checked here, once
        (:func:`~repro.controller.engine.check_runs` against the
        per-channel capacity), so :meth:`run_split` can hand the runs
        to the engines unchecked.
        """
        m = self.config.channels
        per_channel: List[list] = [[] for _ in range(m)]
        appends = [channel_runs.append for channel_runs in per_channel]
        capacity = self.config.total_capacity_bytes
        total_chunks = capacity >> CHUNK_SHIFT
        tck = self._tck_ns
        split_span = self.interleaver.split_span
        queued_chunks = 0
        n_txns = 0
        for txn in transactions:
            n_txns += 1
            address = txn.address
            end = address + txn.size
            if end > capacity and not wrap_capacity:
                raise AddressError(
                    f"transaction [{address:#x}, {end:#x}) "
                    f"exceeds total capacity {capacity:#x}"
                )
            # ``None`` and ``0.0`` both mean backlogged: cycle 0, with
            # no conversion.  Otherwise the conversion rounds *up*: an
            # arrival strictly inside cycle k cannot issue at k --
            # truncation placed it one cycle early.  Negative arrivals
            # must be rejected here: int() truncates toward zero, so a
            # negative value would round the wrong way and silently
            # land at cycle 0/-1.
            arrival_ns = txn.arrival_ns
            if not arrival_ns:
                arrival_cycle = 0
            else:
                if arrival_ns < 0:
                    raise ConfigurationError(
                        f"transaction arrival_ns must be >= 0, got "
                        f"{arrival_ns!r}"
                    )
                arrival_f = arrival_ns / tck
                arrival_cycle = int(arrival_f)
                if arrival_f - arrival_cycle > _ARRIVAL_EPSILON_CYCLES:
                    arrival_cycle += 1
            # The span of MasterTransaction.chunk_span: partial head and
            # tail chunks still cost a full burst.
            first = address >> CHUNK_SHIFT
            span = ((end - 1) >> CHUNK_SHIFT) - first + 1
            if span > total_chunks:
                raise AddressError(
                    f"transaction of {txn.size} bytes exceeds the whole "
                    f"memory capacity {capacity:#x}"
                )
            queued_chunks += span
            op = int(txn.op)
            last = first + span - 1
            if last >= total_chunks:
                first %= total_chunks
                last = first + span - 1
                if last >= total_chunks:
                    # Wraps at capacity: the head piece, then the rest
                    # from 0.
                    for ch, start, count in split_span(first, total_chunks - 1):
                        appends[ch]((op, start, count, arrival_cycle))
                    first = 0
                    last -= total_chunks
            # ChannelInterleaver.split_span inlined: global chunk g of
            # [first, last] opens channel g % m's run at local chunk
            # g // m, so the span's first m chunks start every run.
            if m == 1:
                appends[0]((op, first, last - first + 1, arrival_cycle))
            else:
                stop = first + m
                if stop > last:
                    stop = last + 1
                for g in range(first, stop):
                    appends[g % m]((op, g // m, (last - g) // m + 1, arrival_cycle))
        return _CheckedSplit(
            per_channel, n_txns, queued_chunks, self._max_chunk
        )

    def run_split(
        self,
        split: ChannelSplit,
        scale: float = 1.0,
        command_logs: Optional[List[list]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> SimulationResult:
        """Simulate an already interleaved stream (see :meth:`split`).

        The second half of :meth:`run`, taking the same ``scale``,
        ``command_logs`` and ``telemetry`` arguments; the ``system.*``
        counters are tapped from the split's counts, so a shared split
        is counted once per run like a fresh one.

        The channels are simulated one after another, in this
        process.  A split from :meth:`split` was checked when it was
        made, so its runs go to each channel's ``run_trusted`` as they
        are, with the split's digest of them for a simulator that keys
        runs by it (``takes_runs_digest``).  A split built by hand (or
        checked against a larger channel) is checked here first, with
        the same typed errors as :meth:`Channel.run
        <repro.core.channel.Channel.run>`.  The audit path
        (``command_logs``) goes through the validating ``Channel.run``.
        """
        if len(split.runs) != self.config.channels:
            raise ConfigurationError(
                f"split has {len(split.runs)} channel stream(s), the system "
                f"has {self.config.channels} channel(s)"
            )
        max_chunk = self._max_chunk
        if type(split) is not _CheckedSplit or split.max_chunk > max_chunk:
            split = _CheckedSplit(*split, max_chunk)
        per_channel = split.runs
        if command_logs is None:

            def simulate() -> List[ChannelResult]:
                return [
                    channel.simulator.run_trusted(
                        runs, runs_digest=split.runs_digest(index)
                    )
                    if getattr(channel.simulator, "takes_runs_digest", False)
                    else channel.simulator.run_trusted(runs)
                    for index, (channel, runs) in enumerate(
                        zip(self.channels, per_channel)
                    )
                ]

        else:
            command_logs.clear()
            command_logs.extend([] for _ in range(self.config.channels))

            def simulate() -> List[ChannelResult]:
                return [
                    channel.run(runs, command_log=log)
                    for channel, runs, log in zip(
                        self.channels, per_channel, command_logs
                    )
                ]

        if telemetry is None:
            results = simulate()
        else:
            with telemetry.phase("system.engine"):
                results = simulate()
        result = SimulationResult(
            channels=results, freq_mhz=self.config.freq_mhz, scale=scale
        )
        if telemetry is not None:
            self._tap_metrics(telemetry, result, split.transactions, split.chunks)
        return result

    def _tap_metrics(
        self,
        telemetry: Telemetry,
        result: SimulationResult,
        n_txns: int,
        queued_chunks: int,
    ) -> None:
        """Fold one run's statistics into the telemetry registry.

        Tapped once per *run* (never per burst): the engine collects
        its per-burst statistics as plain integers regardless, so the
        registry cost is a handful of counter additions per simulation.
        """
        registry = telemetry.registry
        registry.counter("system.runs").add(1)
        registry.counter(f"system.backend.{self.config.backend}").add(1)
        registry.counter("system.transactions").add(n_txns)
        registry.counter("system.chunks_queued").add(queued_chunks)
        for name, value in result.engine_stats().items():
            registry.counter(f"engine.{name}").add(value)
        finish_hist = registry.histogram("system.channel_finish_cycles")
        for channel in result.channels:
            finish_hist.record(channel.finish_cycle)

    def audit(self, command_logs: List[list]) -> List[str]:
        """Protocol-audit per-channel command logs from :meth:`run`.

        Returns human-readable violation strings (empty = clean).
        """
        problems: List[str] = []
        for index, (channel, log) in enumerate(zip(self.channels, command_logs)):
            checker_factory = getattr(channel.simulator, "make_checker", None)
            if checker_factory is None:
                raise ConfigurationError(
                    f"backend {self.config.backend!r} does not support "
                    "protocol auditing (no command logs); use the "
                    "'reference' or 'batch' backend"
                )
            for violation in checker_factory().check(log):
                problems.append(f"channel {index}: {violation}")
        return problems

    # ------------------------------------------------------------------

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Raw aggregate bandwidth of the configuration."""
        return self.config.peak_bandwidth_bytes_per_s

    def describe(self) -> str:
        """Human-readable configuration summary."""
        return self.config.describe()
