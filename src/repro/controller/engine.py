"""The event-driven channel engine.

This is the heart of the reproduction: one instance models one channel
of Fig. 2 -- memory controller, DRAM interconnect and bank cluster --
and advances a cycle-resolution timeline over a stream of burst
accesses while enforcing the device's inter-command timing constraints
(tRP, tRCD, tRAS, tRC, tRRD, tWR, tWTR, tRFC, tXP, CAS/write latency,
burst occupancy) and collecting the command counts and state
residencies the power model integrates.

The engine is *event-driven per access*, not per cycle: each 16-byte
burst advances the per-bank ready times and the shared command/data
bus schedules by integer cycle arithmetic.  That matches the paper's
methodology ("untimed transaction level models associated with
separate timing and power information") and keeps the pure-Python cost
at a handful of integer operations per access.

Scheduling model
----------------

- Accesses are processed strictly in order (FCFS) -- the paper's load
  is a single master's sequential stream, so reordering has nothing to
  exploit.
- The command bus issues one command per cycle; precharge/activate
  pairs for upcoming accesses can issue while earlier data bursts are
  still draining, bounded by the command-queue depth
  (:class:`repro.controller.queue.CommandQueueModel`), whose ring is
  skipped wherever its ``can_bind`` proof says the bound cannot bind.
- The four-activate window (tFAW) is enforced wherever
  :meth:`~repro.dram.timing.TimingCycles.faw_can_bind` says tRRD and
  tRC do not already imply it.
- The data bus is seamless for same-direction bursts; direction
  switches pay the write-to-read (tWTR) and read-to-write turnaround
  gaps.
- Refresh: every tREFI the engine precharges all banks and issues an
  all-bank refresh occupying tRFC (Section III: refresh is "done
  periodically for all DRAM banks").
- Power-down: idle gaps in front of a run are handed to the
  :class:`~repro.dram.powerstate.PowerDownPolicy`; powered-down cycles
  delay the next command by tXP and are accounted as power-down
  residency (Section III: clusters "go to power down states after the
  first idle clock cycle" under the default policy).
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from repro.controller.interconnect import (
    OVERHEAD_SCALE,
    OVERHEAD_SHIFT,
    InterconnectModel,
)
from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.controller.request import ChannelRun, Op
from repro.dram.commands import Command, CommandCounters, StateDurations
from repro.dram.datasheet import DeviceDescriptor
from repro.dram.device import NO_OPEN_ROW
from repro.dram.powerstate import ImmediatePowerDown, PowerDownPolicy
from repro.dram.protocol import CommandRecord, ProtocolChecker
from repro.errors import AddressError, ConfigurationError, ProtocolError

#: How many trailing commands a runtime invariant failure reports.
_VIOLATION_HISTORY = 12

#: Accepted run formats: ChannelRun objects or raw (op, start, count[, arrival]) tuples.
RunLike = Union[ChannelRun, Tuple[int, int, int], Tuple[int, int, int, int]]

#: One channel's checked access runs: ``(op, start_chunk, count,
#: arrival_cycle)`` int tuples in program order (see :func:`check_runs`).
ChannelRuns = Tuple[Tuple[int, int, int, int], ...]


def _unpack_run(run: RunLike) -> Tuple[int, int, int, int]:
    """``(op, start, count, arrival)`` of a run that is not a 4-tuple."""
    if isinstance(run, ChannelRun):
        return int(run.op), run.start_chunk, run.count, run.arrival_cycle
    if len(run) == 3:
        op, start, count = run
        return op, start, count, 0
    op, start, count, arrival = run
    return op, start, count, arrival


def check_runs(runs: Iterable[RunLike], max_chunk: int) -> ChannelRuns:
    """Validate an access stream into the form the engines trust.

    Every accepted run format becomes an ``(op, start, count,
    arrival)`` tuple, checked for ``op`` in {0, 1}, ``count > 0``,
    ``start >= 0``, ``arrival >= 0``
    (:class:`~repro.errors.ConfigurationError`) and ``start + count``
    within the channel's ``max_chunk`` chunks
    (:class:`~repro.errors.AddressError`).  This is the one place the
    checks live: each simulator's validating ``run`` calls it, and
    :meth:`~repro.core.system.MultiChannelMemorySystem.split` calls it
    once per split so that ``run_split`` can hand the runs to each
    simulator's ``run_trusted`` without checking them again.
    """
    out = []
    append = out.append
    for run in runs:
        # The split's own form, a 4-tuple, unpacks without a type test.
        try:
            op, start, count, arrival = run
        except (TypeError, ValueError):
            op, start, count, arrival = _unpack_run(run)
        # Every form passes through the same checks: a ChannelRun can be
        # malformed too (op is not validated at construction, and
        # frozen dataclasses can still be corrupted), and letting one
        # through silently corrupts the engine's counters.
        if op not in (0, 1):
            raise ConfigurationError(f"run op must be 0 or 1, got {op!r}")
        if count <= 0:
            raise ConfigurationError(f"run count must be positive, got {count}")
        if start < 0 or arrival < 0:
            raise ConfigurationError("run start/arrival must be non-negative")
        if start + count > max_chunk:
            raise AddressError(
                f"run [{start}, {start + count}) exceeds channel capacity "
                f"of {max_chunk} chunks"
            )
        append((op, start, count, arrival))
    return tuple(out)


def runs_digest(runs: ChannelRuns) -> bytes:
    """SHA-256 of the run values, independent of object sharing.

    The batch backend keys its decode cache by it, and a checked
    :class:`~repro.core.system.ChannelSplit` holds it per channel so
    that the clocks sharing the split hash each channel once.

    ``marshal`` format 2 writes every int by value; format 3 and later
    write back-references to objects seen before, so two equal run
    lists whose large ints are shared differently would serialise
    differently.  A raw run tuple may carry an ``int`` subclass (an
    :class:`~repro.controller.request.Op` member), which ``marshal``
    rejects; such runs are keyed by their plain ``int`` values.
    """
    try:
        blob = marshal.dumps(runs, 2)
    except ValueError:
        blob = marshal.dumps(tuple(tuple(map(int, run)) for run in runs), 2)
    return hashlib.sha256(blob).digest()


@dataclass
class ChannelResult:
    """Outcome of running one channel over an access stream.

    Times are channel clock cycles unless suffixed ``_ns``.
    """

    #: Cycle at which the last data beat (or refresh) completes.
    finish_cycle: int
    #: Interface clock frequency the run used, MHz.
    freq_mhz: float
    #: Cycles the data bus spent moving data (useful work).
    data_cycles: int
    #: Bursts read / written.
    chunks_read: int
    chunks_written: int
    #: Commands issued.
    counters: CommandCounters
    #: Power-state residencies (ns), covering [0, finish].
    states: StateDurations
    #: Column accesses per bank (bank-balance statistics).
    bank_accesses: Tuple[int, ...] = ()
    #: Accesses whose column command was delayed by the command-queue
    #: depth bound (burst *i* waiting on the data phase of burst
    #: *i - depth*).
    queue_stalls: int = 0
    #: Row misses that found *another* row open in the bank and had to
    #: precharge it first (the open-page policy's conflict penalty, as
    #: opposed to misses into an already-closed bank).
    bank_conflicts: int = 0

    @property
    def finish_ns(self) -> float:
        """Completion time in nanoseconds."""
        return self.finish_cycle * (1000.0 / self.freq_mhz)

    @property
    def row_misses(self) -> int:
        """Column accesses that required an ACTIVATE first."""
        return self.counters.activates

    @property
    def row_hits(self) -> int:
        """Column accesses that hit an already-open row."""
        return max(0, self.counters.reads + self.counters.writes - self.counters.activates)

    @property
    def power_state_transitions(self) -> int:
        """CKE transitions: power-down entries plus exits."""
        return self.counters.power_down_entries + self.counters.power_down_exits

    @property
    def total_chunks(self) -> int:
        """Total bursts transferred."""
        return self.chunks_read + self.chunks_written

    @property
    def bytes_moved(self) -> int:
        """Total bytes transferred."""
        return self.total_chunks * 16

    @property
    def bank_balance(self) -> float:
        """Evenness of the bank access distribution: min/max ratio.

        1.0 means perfectly balanced banks; values near zero mean one
        bank is hammered while others idle (the pathology XOR-folded
        mappings exist to fix).  Returns 1.0 when no accesses or no
        statistics were collected.
        """
        if not self.bank_accesses or sum(self.bank_accesses) == 0:
            return 1.0
        return min(self.bank_accesses) / max(1, max(self.bank_accesses))

    @property
    def bus_efficiency(self) -> float:
        """Fraction of elapsed cycles the data bus moved data.

        This is the per-channel efficiency the paper's feasibility
        boundaries hinge on; 1.0 means every cycle carried data.  An
        empty run (nothing elapsed) moved no data and reports 0.0 --
        an idle channel is not a perfectly efficient one.
        """
        if self.finish_cycle <= 0:
            return 0.0
        return self.data_cycles / self.finish_cycle

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Achieved bandwidth over the run, bytes/s."""
        if self.finish_cycle <= 0:
            return 0.0
        return self.bytes_moved / (self.finish_ns * 1e-9)


class ChannelEngine:
    """Timing engine for one memory channel.

    Parameters
    ----------
    device:
        The bank-cluster descriptor (geometry + timing + currents).
    freq_mhz:
        Interface clock frequency; must lie in the device's range.
    multiplexing:
        RBC (paper default) or BRC address multiplexing.
    page_policy:
        Open (paper default) or closed page policy.
    power_down:
        Idle-gap policy; defaults to the paper's immediate power-down.
    interconnect:
        DRAM-interconnect overhead model.
    queue:
        Command-queue depth model.
    check_invariants:
        Audit every run's command stream against the datasheet timing
        constraints (tRCD/tRP/tRAS ordering, power-down legality,
        refresh cadence) and raise :class:`~repro.errors.ProtocolError`
        on any violation.  The checker derives its constraints
        independently from the datasheet, so an engine bug that issues
        a command early surfaces as a concrete error instead of
        silently inflating bandwidth.  Costs roughly one extra log
        append plus one audit pass per command (~2x per-burst cost).
    """

    def __init__(
        self,
        device: DeviceDescriptor,
        freq_mhz: float,
        multiplexing: AddressMultiplexing = AddressMultiplexing.RBC,
        page_policy: PagePolicy = PagePolicy.OPEN,
        power_down: Optional[PowerDownPolicy] = None,
        interconnect: Optional[InterconnectModel] = None,
        queue: Optional[CommandQueueModel] = None,
        check_invariants: bool = False,
    ) -> None:
        device.timing.validate_frequency(freq_mhz)
        self.device = device
        self.freq_mhz = freq_mhz
        self.timing = device.timing.at_frequency(freq_mhz)
        self.check_invariants = bool(check_invariants)
        self.mapping = AddressMapping.build(device.geometry, multiplexing)
        self.page_policy = page_policy
        self.power_down = power_down if power_down is not None else ImmediatePowerDown()
        self.interconnect = (
            interconnect if interconnect is not None else InterconnectModel()
        )
        self.queue = queue if queue is not None else CommandQueueModel()
        if not isinstance(page_policy, PagePolicy):
            raise ConfigurationError(f"invalid page policy {page_policy!r}")
        self._max_chunk = device.geometry.capacity_bytes >> 4

    # ------------------------------------------------------------------

    def make_checker(self) -> ProtocolChecker:
        """Build a protocol checker matched to this engine's device and
        clock, for auditing a ``command_log``.

        The checker's constraints are re-derived from the datasheet
        (``device.timing``), *not* taken from the engine's scheduling
        state: a corrupted scheduling parameter (see
        :func:`repro.resilience.faults.corrupt_engine_timing`) is then
        a divergence the audit catches rather than inherits.
        """
        return ProtocolChecker(
            self.device.timing.at_frequency(self.freq_mhz),
            self.device.geometry,
        )

    def _audit(self, command_log: list) -> None:
        """Audit a finished run's command stream, raising
        :class:`~repro.errors.ProtocolError` with the violations and
        the tail of the offending command history."""
        violations = self.make_checker().check(command_log)
        if not violations:
            return
        shown = violations[:5]
        lines = [
            f"{len(violations)} DRAM protocol violation(s) at "
            f"{self.freq_mhz:g} MHz:"
        ]
        lines += [f"  {v}" for v in shown]
        if len(violations) > len(shown):
            lines.append(f"  ... and {len(violations) - len(shown)} more")
        tail = command_log[-_VIOLATION_HISTORY:]
        lines.append(f"last {len(tail)} commands:")
        lines += [f"  {record}" for record in tail]
        raise ProtocolError("\n".join(lines))

    def run(
        self,
        runs: Iterable[RunLike],
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """Process an ordered stream of access runs and return timing,
        command and power-state statistics.

        The runs are validated first (:func:`check_runs`): a malformed
        run raises a typed error before any state is touched.  Then
        :meth:`run_trusted` simulates them.

        Pass a list as ``command_log`` to record every issued command
        as a :class:`~repro.dram.protocol.CommandRecord` (in issue
        order) for auditing with the :class:`ProtocolChecker`.
        Logging roughly doubles the per-burst cost; leave it off for
        large sweeps.
        """
        return self.run_trusted(check_runs(runs, self._max_chunk), command_log)

    def run_trusted(
        self,
        runs: ChannelRuns,
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """The simulation body of :meth:`run`, without the validation.

        ``runs`` must already be :func:`check_runs` output for this
        channel's capacity, as a
        :class:`~repro.core.system.ChannelSplit` holds; nothing here
        re-checks it.

        The loop body is deliberately monolithic and local-variable
        heavy: it executes once per 16-byte burst and dominates the
        simulator's runtime.  What is fixed sits outside it: the
        ``(bank, row)`` decode, once per aligned block of a run; each
        run's latency, turnaround floor, precharge offset, column
        command and read/write tally, once per run (a run has one
        direction and leaves the other's last data end alone); the
        bank's precharge-ready raise, once per block from its last
        column (column times strictly grow within a block); the
        command-queue ring wherever ``queue.can_bind`` rules it out;
        and the tFAW history wherever ``timing.faw_can_bind`` does.
        Only the PREA scan, a conflict PRE and the closed-page PRE
        read ``pre_ready``.  A conflict PRE falls in a later block
        (bank and row are fixed within one, and a refresh leaves a
        closed miss), so only the refresh and the closed-page PRE
        flush the pending raise first -- the refresh block's one line
        that batch's copy of it lacks.
        ``cmd_free`` never falls and PRE, ACT and column are >= 1
        cycle apart, so no command needs a ``cmd_free`` clamp, and a
        row hit (its ACT's column already issued) needs no tRCD check.
        """
        if self.check_invariants and command_log is None:
            command_log = []
        log_append = command_log.append if command_log is not None else None

        timing = self.timing
        cas = timing.cas_latency
        wl = timing.write_latency
        burst = timing.burst_cycles
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_ras = timing.t_ras
        t_rc = timing.t_rc
        t_rrd = timing.t_rrd
        t_wr = timing.t_wr
        t_wtr = timing.t_wtr
        rtw_gap = timing.t_rtw_gap
        t_xp = timing.t_xp
        t_cke = timing.t_cke
        t_refi = timing.t_refi
        t_rfc = timing.t_rfc

        bank_shift = self.mapping.bank_shift
        bank_mask = self.mapping.bank_mask
        row_shift = self.mapping.row_shift
        row_mask = self.mapping.row_mask
        xor_shift = self.mapping.xor_shift
        xor_mask = self.mapping.xor_mask
        block_mask = (1 << self.mapping.block_shift) - 1

        nbanks = self.device.geometry.banks
        open_row = [NO_OPEN_ROW] * nbanks
        act_ready = [0] * nbanks
        pre_ready = [0] * nbanks
        bank_accesses = [0] * nbanks

        closed_page = not self.page_policy.keeps_rows_open

        cmd_free = 0
        bus_free = 0
        last_rd_end = -(10**9)
        last_wr_end = -(10**9)
        last_act_any = -(10**9)
        last_pre_any = -(10**9)
        next_ref = t_refi
        t_faw = timing.t_faw
        faw_hist = [-(10**9)] * 4  # last four ACT cycles (tFAW window)
        faw_idx = 0
        faw_live = timing.faw_can_bind(nbanks)

        ovh_per = self.interconnect.overhead_fixed_point
        ovh_acc = 0
        ovh_scale = OVERHEAD_SCALE
        ovh_mask = ovh_scale - 1
        ovh_shift = OVERHEAD_SHIFT

        qdepth = self.queue.depth
        ring = self.queue.make_ring()
        ring_i = 0
        queue_live = self.queue.can_bind(timing)

        pd_policy = self.power_down
        pd_cycles = 0
        pd_entries = 0

        n_act = 0
        n_pre = 0
        n_rd = 0
        n_wr = 0
        n_ref = 0
        n_qstall = 0
        n_conflict = 0

        for op, start, count, arrival in runs:
            # --- idle-gap / power-down handling at run boundaries -------
            if arrival > cmd_free and arrival > bus_free:
                busy_until = cmd_free if cmd_free > bus_free else bus_free
                gap = arrival - busy_until
                down = pd_policy.powered_down_cycles(gap, t_cke, t_xp)
                if down > 0:
                    pd_cycles += down
                    pd_entries += 1
                    floor = arrival + t_xp
                    if log_append is not None:
                        log_append(
                            CommandRecord(busy_until + 1, Command.POWER_DOWN_ENTER)
                        )
                        log_append(CommandRecord(arrival, Command.POWER_DOWN_EXIT))
                else:
                    floor = arrival
                if floor > cmd_free:
                    cmd_free = floor
                if arrival > bus_free:
                    bus_free = arrival

            if op == 0:
                lat = cas
                turn = last_wr_end + t_wtr
                pre_off = burst  # read-to-precharge (tRTP ~ BL/2)
                col_cmd = Command.READ
            else:
                lat = wl
                turn = last_rd_end + rtw_gap - wl
                pre_off = wl + burst + t_wr  # write recovery
                col_cmd = Command.WRITE
            lat_burst = lat + burst
            # (bank, row) is constant over each aligned 2**block_shift
            # block of chunks: decode once per block, then step its
            # bursts.
            lo = start
            end = start + count
            while lo < end:
                hi = (lo | block_mask) + 1
                if hi > end:
                    hi = end
                bank = (
                    (lo >> bank_shift) ^ ((lo >> xor_shift) & xor_mask)
                ) & bank_mask
                row = (lo >> row_shift) & row_mask
                bank_accesses[bank] += hi - lo
                # Between bursts t is the block's last column, whose
                # precharge-ready t + pre_off is pending until a flush;
                # before the first column the pending 0 raises nothing.
                t = -pre_off
                for _ in range(hi - lo):
                    # --- refresh --------------------------------------
                    if cmd_free >= next_ref:
                        f = t + pre_off  # flush before the PREA scan
                        if f > pre_ready[bank]:
                            pre_ready[bank] = f
                        tpre = cmd_free
                        any_open = False
                        for b in range(nbanks):
                            if open_row[b] != NO_OPEN_ROW:
                                any_open = True
                                if pre_ready[b] > tpre:
                                    tpre = pre_ready[b]
                        if any_open:
                            n_pre += 1  # PREA
                            tref = tpre + 1 + t_rp
                            if log_append is not None:
                                log_append(CommandRecord(tpre, Command.PRECHARGE_ALL))
                        else:
                            # All banks already closed, but the most recent
                            # precharge must still settle for tRP.
                            tref = tpre
                            f = last_pre_any + t_rp
                            if f > tref:
                                tref = f
                        if log_append is not None:
                            log_append(CommandRecord(tref, Command.REFRESH))
                        ref_done = tref + 1 + t_rfc
                        for b in range(nbanks):
                            open_row[b] = NO_OPEN_ROW
                            if act_ready[b] < ref_done:
                                act_ready[b] = ref_done
                        if ref_done > cmd_free:
                            cmd_free = ref_done
                        n_ref += 1
                        next_ref += t_refi
                        while next_ref <= cmd_free:
                            # Catch up if a long stall crossed several tREFI.
                            if log_append is not None:
                                log_append(CommandRecord(cmd_free, Command.REFRESH))
                            ref_done = cmd_free + 1 + t_rfc
                            for b in range(nbanks):
                                if act_ready[b] < ref_done:
                                    act_ready[b] = ref_done
                            cmd_free = ref_done
                            n_ref += 1
                            next_ref += t_refi

                    # t: the earliest cycle of this burst's next command.
                    t = cmd_free
                    # --- command-queue bound (dead unless queue_live) -
                    if queue_live:
                        floor = ring[ring_i]
                        if floor > t:
                            t = floor
                            n_qstall += 1

                    # --- row management -------------------------------
                    orow = open_row[bank]
                    if orow != row:
                        if orow != NO_OPEN_ROW:
                            n_conflict += 1
                            tpre = pre_ready[bank]
                            if tpre < t:
                                tpre = t
                            n_pre += 1
                            last_pre_any = tpre
                            if log_append is not None:
                                log_append(CommandRecord(tpre, Command.PRECHARGE, bank))
                            tact = tpre + t_rp
                            if act_ready[bank] > tact:
                                tact = act_ready[bank]
                        else:
                            tact = t
                            if act_ready[bank] > tact:
                                tact = act_ready[bank]
                        rrd_floor = last_act_any + t_rrd
                        if rrd_floor > tact:
                            tact = rrd_floor
                        if faw_live:
                            faw_floor = faw_hist[faw_idx] + t_faw
                            if faw_floor > tact:
                                tact = faw_floor
                            faw_hist[faw_idx] = tact
                            faw_idx = (faw_idx + 1) & 3
                        if log_append is not None:
                            log_append(CommandRecord(tact, Command.ACTIVATE, bank, row))
                        last_act_any = tact
                        act_ready[bank] = tact + t_rc
                        pre_ready[bank] = tact + t_ras
                        open_row[bank] = row
                        n_act += 1
                        t = tact + t_rcd

                    # --- column command -------------------------------
                    if turn > t:
                        t = turn
                    f = bus_free - lat
                    if f > t:
                        t = f
                    cmd_free = t + 1
                    if log_append is not None:
                        log_append(CommandRecord(t, col_cmd, bank, row))

                    # --- interconnect overhead ------------------------
                    de = t + lat_burst
                    ovh_acc += ovh_per
                    if ovh_acc >= ovh_scale:
                        de += ovh_acc >> ovh_shift
                        ovh_acc &= ovh_mask
                    bus_free = de

                    if queue_live:
                        ring[ring_i] = t + lat
                        ring_i += 1
                        if ring_i == qdepth:
                            ring_i = 0

                    # --- closed-page policy: precharge immediately ----
                    if closed_page:
                        f = t + pre_off  # flush before the PRE
                        if f > pre_ready[bank]:
                            pre_ready[bank] = f
                        tpre = pre_ready[bank]
                        if tpre < cmd_free:
                            tpre = cmd_free
                        cmd_free = tpre + 1
                        n_pre += 1
                        last_pre_any = tpre
                        if log_append is not None:
                            log_append(CommandRecord(tpre, Command.PRECHARGE, bank))
                        open_row[bank] = NO_OPEN_ROW
                        f = tpre + t_rp
                        if f > act_ready[bank]:
                            act_ready[bank] = f
                f = t + pre_off
                if f > pre_ready[bank]:
                    pre_ready[bank] = f
                lo = hi
            if op == 0:
                last_rd_end = t + lat_burst
                n_rd += count
            else:
                last_wr_end = t + lat_burst
                n_wr += count

        finish = bus_free if bus_free > cmd_free else cmd_free

        if self.check_invariants:
            self._audit(command_log)

        tck = timing.t_ck_ns
        total_ns = finish * tck
        pd_ns = pd_cycles * tck
        # Under the open-page policy a row is open essentially the whole
        # busy window; charge non-powered-down time as active standby
        # and power-down residency as active power-down (CKE drops with
        # rows still open).  Closed-page leaves all banks precharged
        # between accesses, so both its standby time and its power-down
        # residency belong to the precharged states (IDD2N/IDD2P rather
        # than IDD3N/IDD3P).
        if closed_page:
            active_ns = 0.0
            pre_standby_ns = max(0.0, total_ns - pd_ns)
            pre_pd_ns = pd_ns
            act_pd_ns = 0.0
        else:
            active_ns = max(0.0, total_ns - pd_ns)
            pre_standby_ns = 0.0
            pre_pd_ns = 0.0
            act_pd_ns = pd_ns

        counters = CommandCounters(
            activates=n_act,
            precharges=n_pre,
            reads=n_rd,
            writes=n_wr,
            refreshes=n_ref,
            power_down_entries=pd_entries,
            power_down_exits=pd_entries,
        )
        states = StateDurations(
            precharge_standby_ns=pre_standby_ns,
            active_standby_ns=active_ns,
            precharge_powerdown_ns=pre_pd_ns,
            active_powerdown_ns=act_pd_ns,
        )
        return ChannelResult(
            finish_cycle=finish,
            freq_mhz=self.freq_mhz,
            data_cycles=(n_rd + n_wr) * burst,
            chunks_read=n_rd,
            chunks_written=n_wr,
            counters=counters,
            states=states,
            bank_accesses=tuple(bank_accesses),
            queue_stalls=n_qstall,
            bank_conflicts=n_conflict,
        )
