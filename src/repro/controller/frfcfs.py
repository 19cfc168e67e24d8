"""FR-FCFS: a reordering memory-controller engine.

The paper's load is a single sequential master, so its controller has
nothing to gain from reordering and the main engine
(:class:`~repro.controller.engine.ChannelEngine`) processes requests
strictly in order.  Real controllers, however, implement **FR-FCFS**
(first-ready, first-come-first-served; Rixner et al.): among the
pending requests, row-buffer *hits* go first, and within a readiness
class the oldest request wins, with an aging bound so misses cannot
starve.

This module provides that scheduler as a drop-in alternative engine.
It exists for two reasons:

1. to *validate the paper's implicit choice*: on the recording use
   case FR-FCFS buys almost nothing (the ablation benchmark
   ``bench_ablation_scheduler`` quantifies it), because the stream is
   already row-friendly;
2. to make the library honest on traffic the paper does not cover:
   random or multi-pattern streams where reordering recovers
   significant bandwidth.

The implementation trades speed for clarity — it scans an N-entry
window per burst — and is protocol-audited by the same
:class:`~repro.dram.protocol.ProtocolChecker` as the in-order engine.
Only the open-page policy is supported (FR-FCFS is meaningless under
closed-page: there are no row hits to prefer).

FR-FCFS models no command queue: nothing bounds how far its command
issue runs ahead of the data bus.  With a one-entry window it
therefore equals the in-order engine only where that engine's queue
cannot bind (:meth:`~repro.controller.queue.CommandQueueModel.can_bind`);
the fuzzer's ``check_frfcfs_degeneracy`` holds it to exactly that.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.controller.engine import ChannelResult, RunLike, check_runs
from repro.controller.interconnect import OVERHEAD_SCALE, InterconnectModel
from repro.controller.mapping import AddressMapping, AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.controller.request import CHUNK_BYTES
from repro.dram.commands import Command, CommandCounters, StateDurations
from repro.dram.datasheet import DeviceDescriptor
from repro.dram.device import NO_OPEN_ROW
from repro.dram.powerstate import ImmediatePowerDown, PowerDownPolicy
from repro.dram.protocol import CommandRecord, ProtocolChecker
from repro.errors import ConfigurationError


class ReorderingChannelEngine:
    """FR-FCFS channel engine (open-page only).

    Parameters mirror :class:`~repro.controller.engine.ChannelEngine`
    plus:

    window:
        Size of the scheduling window (pending requests considered
        for reordering).
    max_skips:
        Aging bound: once the oldest pending request has been passed
        over this many times, it is issued regardless of row state.
    """

    def __init__(
        self,
        device: DeviceDescriptor,
        freq_mhz: float,
        multiplexing: AddressMultiplexing = AddressMultiplexing.RBC,
        power_down: Optional[PowerDownPolicy] = None,
        interconnect: Optional[InterconnectModel] = None,
        window: int = 16,
        max_skips: int = 64,
    ) -> None:
        device.timing.validate_frequency(freq_mhz)
        if window < 1 or window > 256:
            raise ConfigurationError(f"window must be in [1, 256], got {window}")
        if max_skips < 1:
            raise ConfigurationError(f"max_skips must be >= 1, got {max_skips}")
        self.device = device
        self.freq_mhz = freq_mhz
        self.timing = device.timing.at_frequency(freq_mhz)
        self.mapping = AddressMapping.build(device.geometry, multiplexing)
        self.power_down = power_down if power_down is not None else ImmediatePowerDown()
        self.interconnect = (
            interconnect if interconnect is not None else InterconnectModel()
        )
        self.window = window
        self.max_skips = max_skips
        self._max_chunk = device.geometry.capacity_bytes >> 4

    def make_checker(self) -> ProtocolChecker:
        """Protocol checker matched to this engine's configuration."""
        return ProtocolChecker(self.timing, self.device.geometry)

    # ------------------------------------------------------------------

    def _expand(self, runs: Iterable[RunLike]):
        """Yield (op, bank, row, arrival) per chunk, in program order."""
        bank_shift = self.mapping.bank_shift
        bank_mask = self.mapping.bank_mask
        row_shift = self.mapping.row_shift
        row_mask = self.mapping.row_mask
        xor_shift = self.mapping.xor_shift
        xor_mask = self.mapping.xor_mask
        for op, start, count, arrival in check_runs(runs, self._max_chunk):
            for k in range(count):
                chunk = start + k
                bank = (
                    (chunk >> bank_shift) ^ ((chunk >> xor_shift) & xor_mask)
                ) & bank_mask
                row = (chunk >> row_shift) & row_mask
                yield op, bank, row, arrival

    def run(
        self,
        runs: Iterable[RunLike],
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """Simulate the access stream with FR-FCFS scheduling."""
        t = self.timing
        cas = t.cas_latency
        wl = t.write_latency
        burst = t.burst_cycles
        log_append = command_log.append if command_log is not None else None

        nbanks = self.device.geometry.banks
        open_row = [NO_OPEN_ROW] * nbanks
        act_ready = [0] * nbanks
        pre_ready = [0] * nbanks
        col_ready = [0] * nbanks

        cmd_free = 0
        bus_free = 0
        last_rd_end = -(10**9)
        last_wr_end = -(10**9)
        last_act_any = -(10**9)
        last_pre_any = -(10**9)
        next_ref = t.t_refi

        ovh_per = self.interconnect.overhead_fixed_point
        ovh_acc = 0

        pd_cycles = 0
        pd_entries = 0
        n_act = n_pre = n_rd = n_wr = n_ref = n_conflict = 0
        bank_accesses = [0] * nbanks
        faw_hist = [-(10**9)] * 4
        faw_idx = 0

        stream = self._expand(runs)
        # Window entries: [op, bank, row, arrival, skips], oldest first.
        pending: List[list] = []
        exhausted = False

        def refill() -> None:
            nonlocal exhausted
            while not exhausted and len(pending) < self.window:
                try:
                    op, bank, row, arrival = next(stream)
                except StopIteration:
                    exhausted = True
                    return
                pending.append([op, bank, row, arrival, 0])

        refill()
        while pending:
            # A request that arrives while either bus is still busy is
            # queued behind the work in flight, as in the in-order
            # engine; only an arrival after both go idle opens a gap.
            busy_until = cmd_free if cmd_free > bus_free else bus_free

            # --- choose the next request (FR-FCFS) -------------------
            ready = [e for e in pending if e[3] <= busy_until]
            if not ready:
                # Idle until the earliest arrival; hand the gap to the
                # power-down policy.
                arrival = min(e[3] for e in pending)
                gap = arrival - busy_until
                down = self.power_down.powered_down_cycles(gap, t.t_cke, t.t_xp)
                floor = arrival
                if down > 0:
                    pd_cycles += down
                    pd_entries += 1
                    floor = arrival + t.t_xp
                    if log_append is not None:
                        log_append(
                            CommandRecord(busy_until + 1, Command.POWER_DOWN_ENTER)
                        )
                        log_append(CommandRecord(arrival, Command.POWER_DOWN_EXIT))
                if floor > cmd_free:
                    cmd_free = floor
                bus_free = arrival
                continue

            oldest = ready[0]
            if oldest[4] >= self.max_skips:
                entry = oldest  # aging bound: no further reordering
            else:
                entry = next(
                    (e for e in ready if open_row[e[1]] == e[2]), oldest
                )
            if entry is not oldest:
                oldest[4] += 1
            pending.remove(entry)
            op, bank, row, _, _ = entry

            # --- refresh ---------------------------------------------
            if cmd_free >= next_ref:
                tpre = cmd_free
                any_open = False
                for b in range(nbanks):
                    if open_row[b] != NO_OPEN_ROW:
                        any_open = True
                        if pre_ready[b] > tpre:
                            tpre = pre_ready[b]
                if any_open:
                    n_pre += 1
                    tref = tpre + 1 + t.t_rp
                    if log_append is not None:
                        log_append(CommandRecord(tpre, Command.PRECHARGE_ALL))
                else:
                    tref = max(tpre, last_pre_any + t.t_rp)
                if log_append is not None:
                    log_append(CommandRecord(tref, Command.REFRESH))
                ref_done = tref + 1 + t.t_rfc
                for b in range(nbanks):
                    open_row[b] = NO_OPEN_ROW
                    if act_ready[b] < ref_done:
                        act_ready[b] = ref_done
                if ref_done > cmd_free:
                    cmd_free = ref_done
                n_ref += 1
                next_ref += t.t_refi
                while next_ref <= cmd_free:
                    # Catch up if an idle gap crossed several tREFI.
                    if log_append is not None:
                        log_append(CommandRecord(cmd_free, Command.REFRESH))
                    ref_done = cmd_free + 1 + t.t_rfc
                    for b in range(nbanks):
                        if act_ready[b] < ref_done:
                            act_ready[b] = ref_done
                    cmd_free = ref_done
                    n_ref += 1
                    next_ref += t.t_refi

            t0 = cmd_free

            # --- row management --------------------------------------
            if open_row[bank] != row:
                if open_row[bank] != NO_OPEN_ROW:
                    tpre = max(pre_ready[bank], t0, cmd_free)
                    cmd_free = tpre + 1
                    n_pre += 1
                    n_conflict += 1
                    last_pre_any = tpre
                    if log_append is not None:
                        log_append(CommandRecord(tpre, Command.PRECHARGE, bank))
                    tact = max(tpre + t.t_rp, act_ready[bank])
                else:
                    tact = max(t0, act_ready[bank])
                tact = max(
                    tact, last_act_any + t.t_rrd, faw_hist[faw_idx] + t.t_faw,
                    cmd_free,
                )
                cmd_free = tact + 1
                faw_hist[faw_idx] = tact
                faw_idx = (faw_idx + 1) & 3
                if log_append is not None:
                    log_append(CommandRecord(tact, Command.ACTIVATE, bank, row))
                last_act_any = tact
                act_ready[bank] = tact + t.t_rc
                pre_ready[bank] = tact + t.t_ras
                col_ready[bank] = tact + t.t_rcd
                open_row[bank] = row
                n_act += 1

            # --- column command --------------------------------------
            bank_accesses[bank] += 1
            tc = max(col_ready[bank], t0)
            if op == 0:
                tc = max(tc, last_wr_end + t.t_wtr, bus_free - cas, cmd_free)
                cmd_free = tc + 1
                if log_append is not None:
                    log_append(CommandRecord(tc, Command.READ, bank, row))
                ds = tc + cas
                de = ds + burst
                last_rd_end = de
                pre_ready[bank] = max(pre_ready[bank], tc + burst)
                n_rd += 1
            else:
                tc = max(tc, last_rd_end + t.t_rtw_gap - wl, bus_free - wl, cmd_free)
                cmd_free = tc + 1
                if log_append is not None:
                    log_append(CommandRecord(tc, Command.WRITE, bank, row))
                ds = tc + wl
                de = ds + burst
                last_wr_end = de
                pre_ready[bank] = max(pre_ready[bank], de + t.t_wr)
                n_wr += 1

            ovh_acc += ovh_per
            if ovh_acc >= OVERHEAD_SCALE:
                de += ovh_acc >> 12
                ovh_acc &= OVERHEAD_SCALE - 1
            bus_free = de

            refill()

        finish = bus_free if bus_free > cmd_free else cmd_free
        tck = t.t_ck_ns
        total_ns = finish * tck
        pd_ns = pd_cycles * tck
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
            active_standby_ns=max(0.0, total_ns - pd_ns),
            active_powerdown_ns=pd_ns,
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
            bank_conflicts=n_conflict,
        )
