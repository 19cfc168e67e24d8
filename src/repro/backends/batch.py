"""The batch backend: cached segment decode + closed-form batching.

The reference engine executes one loop iteration per 16-byte burst.
On the paper's workload that is almost always wasted generality: the
traffic is long same-direction sequential runs, and once the data bus
saturates every access follows the same recurrence --

    t_j        = bus_free_{j-1} - latency          (column command)
    cmd_free_j = t_j + 1
    ds_j       = bus_free_{j-1}                     (data start)
    bus_free_j = bus_free_{j-1} + burst + overhead  (data end)

-- until a direction switch, a row crossing, a refresh deadline or a
power-down gap breaks it.  This backend cuts the per-burst work in
three steps:

1. **Segment decode.**  The run list is decoded once into a *segment
   table*: maximal stretches of accesses that share (op, bank, row) --
   broken at direction switches, at aligned 2**block_shift address
   blocks (:attr:`~repro.controller.mapping.AddressMapping.block_shift`:
   row crossings and bank rotations happen only there) and at run
   boundaries (where power-down gaps can occur).  The decode is a
   plain-Python walk over each run's blocks, so the backend has no
   dependency beyond the standard library; the timing loop advances
   one *segment* at a time.

2. **Cross-point decode cache.**  The segment table depends only on
   the run list and the address mapping -- never on clock frequency --
   so a frequency sweep re-decodes nothing: every point of the Fig. 3
   sweep shares one decoded access timeline and re-evaluates only the
   frequency-dependent timing recurrences.  The cache is a small
   content-keyed LRU (:data:`DECODE_CACHE_SIZE` entries); inspect it
   with :func:`decode_cache_stats`, drop it with
   :func:`clear_decode_cache`.

3. **One closed-form body per segment visit.**  Each visit runs the
   reference engine's refresh and row-management blocks once, takes
   the head access's column time as the max of every bound (the
   command bus or the command-queue floor on a row hit, tRCD after
   the activate on a miss, the segment's read/write turnaround and
   ``bus_free - latency``), and then issues the head and the rest
   of the segment by the recurrence's cumulative-sum closed form
   (``ds(i) = base + i*burst + (ovh_acc + i*ovh_per) >> ovh_shift``
   from ``base = head + latency``) in O(1).  Past the head nothing but
   a refresh deadline or a command-queue floor can break the
   recurrence (the row stays open, and the data-bus bound grows by at
   least one burst per access while the other bounds stay fixed), so
   the batch is cut short only there and the next visit of the same
   segment picks up after it.  At ``n = 1`` the closed form *is* the
   reference's column step, so short segments, row-opening heads and
   turnaround heads take the same path as long streaming ones.

The result is therefore **bit-identical** to the reference backend on
every input stream (``reference_tolerance = 0.0``: the differential
fuzzer and the golden comparator hold it to exact equality).

Command logging, runtime invariant checking and the closed-page
policy fall back to the reference engine's exact stepping loop
(inherited from :class:`~repro.controller.engine.ChannelEngine`), so
protocol audits and closed-page studies behave identically to
``reference`` -- just without the batching speedup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.backends.base import ChannelBackend
from repro.backends.reference import build_engine
from repro.controller.engine import (
    ChannelEngine,
    ChannelResult,
    ChannelRuns,
    runs_digest,
)
from repro.controller.interconnect import OVERHEAD_SCALE, OVERHEAD_SHIFT
from repro.core.config import SystemConfig
from repro.dram.commands import CommandCounters, StateDurations
from repro.dram.device import NO_OPEN_ROW

#: Maximum decoded segment tables kept alive.  Sized for one sweep
#: row's worth of channel streams (up to 8 channels) with headroom, so
#: a whole frequency sweep hits the cache after its first point.
DECODE_CACHE_SIZE = 32

#: Content-keyed LRU: (runs digest, run count, mapping params) ->
#: _DecodedStream (see :func:`~repro.controller.engine.runs_digest`).
_DECODE_CACHE: "OrderedDict[tuple, _DecodedStream]" = OrderedDict()
_CACHE_STATS = {
    "hits": 0,
    "misses": 0,
    "lookups": 0,
    "insertions": 0,
    "evictions": 0,
}


def decode_cache_stats() -> dict:
    """Counters of the cross-point decode cache.

    The counters form a closed ledger -- after any sequence of
    operations since the last :func:`clear_decode_cache`:

    - ``hits + misses == lookups`` (every lookup is exactly one or the
      other);
    - every miss inserts, so ``insertions == misses``;
    - ``evictions <= insertions`` (only inserted entries can be
      evicted) and ``entries == insertions - evictions
      <= DECODE_CACHE_SIZE``.

    Pinned by a property test in ``tests/backends/test_batch.py``.
    """
    return {
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
        "lookups": _CACHE_STATS["lookups"],
        "insertions": _CACHE_STATS["insertions"],
        "evictions": _CACHE_STATS["evictions"],
        "entries": len(_DECODE_CACHE),
    }


def clear_decode_cache() -> None:
    """Drop every cached segment table and reset the statistics."""
    _DECODE_CACHE.clear()
    for name in _CACHE_STATS:
        _CACHE_STATS[name] = 0


class _DecodedStream:
    """One run list decoded into a frequency-independent segment table.

    ``segments`` is a list of ``(op, bank, row, count, arrival)``
    tuples.  ``arrival`` is the run's arrival cycle on the run-head
    segment and ``-1`` elsewhere, so the power-down block runs exactly
    once per run.  Data-movement statistics that do not depend on
    timing at all (reads, writes, per-bank access counts) are folded
    here too.
    """

    __slots__ = ("segments", "n_rd", "n_wr", "bank_counts")

    def __init__(self, segments, n_rd, n_wr, bank_counts):
        self.segments = segments
        self.n_rd = n_rd
        self.n_wr = n_wr
        self.bank_counts = bank_counts


def _decode_stream(runs: ChannelRuns, mapping) -> _DecodedStream:
    """Run-list -> segment-table decode (cache miss path)."""
    # Accesses share (bank, row) within one aligned 2**block_shift
    # block (see AddressMapping.block_shift).
    bank_shift = mapping.bank_shift
    bank_mask = mapping.bank_mask
    row_shift = mapping.row_shift
    row_mask = mapping.row_mask
    xor_shift = mapping.xor_shift
    xor_mask = mapping.xor_mask
    seg_mask = (1 << mapping.block_shift) - 1

    segments = []
    append = segments.append
    bank_counts = [0] * (bank_mask + 1)
    n_rd = 0
    n_wr = 0
    for op, start, count, arrival in runs:
        if op == 0:
            n_rd += count
        else:
            n_wr += count
        end = start + count
        lo = start
        while lo < end:
            hi = (lo | seg_mask) + 1
            if hi > end:
                hi = end
            bank = ((lo >> bank_shift) ^ ((lo >> xor_shift) & xor_mask)) & bank_mask
            seg_len = hi - lo
            append((op, bank, (lo >> row_shift) & row_mask, seg_len, arrival))
            bank_counts[bank] += seg_len
            arrival = -1
            lo = hi
    return _DecodedStream(segments, n_rd, n_wr, tuple(bank_counts))


def _decode_cached(
    runs: ChannelRuns, mapping, digest: Optional[bytes] = None
) -> _DecodedStream:
    """LRU-cached decode, keyed by run content + mapping parameters.

    The key holds a digest of the runs (``digest`` when the caller
    already has it), not the runs tuple itself, so a cached segment
    table pins no split: once a sweep drops its shared traffic, the
    run tuples are freed even while their decodes stay cached.
    """
    key = (
        digest if digest is not None else runs_digest(runs),
        len(runs),
        mapping.bank_shift,
        mapping.bank_mask,
        mapping.row_shift,
        mapping.row_mask,
        mapping.xor_shift,
        mapping.xor_mask,
    )
    _CACHE_STATS["lookups"] += 1
    cached = _DECODE_CACHE.get(key)
    if cached is not None:
        _DECODE_CACHE.move_to_end(key)
        _CACHE_STATS["hits"] += 1
        return cached
    _CACHE_STATS["misses"] += 1
    decoded = _decode_stream(runs, mapping)
    _DECODE_CACHE[key] = decoded
    _CACHE_STATS["insertions"] += 1
    while len(_DECODE_CACHE) > DECODE_CACHE_SIZE:
        _DECODE_CACHE.popitem(last=False)
        _CACHE_STATS["evictions"] += 1
    return decoded


class BatchChannelEngine(ChannelEngine):
    """Reference timing algebra over a cached segment decode."""

    takes_runs_digest = True

    def run_trusted(
        self,
        runs: ChannelRuns,
        command_log: Optional[list] = None,
        *,
        runs_digest: Optional[bytes] = None,
    ) -> ChannelResult:
        """Bit-identical to :meth:`ChannelEngine.run_trusted`, an order
        of magnitude faster on streaming traffic.

        ``runs`` is already checked (the inherited
        :meth:`~repro.controller.engine.ChannelEngine.run` validates
        with :func:`~repro.controller.engine.check_runs` first; a
        :class:`~repro.core.system.ChannelSplit` is checked once when
        it is made), and it keys the decode cache by a digest of its
        values: every clock of a shared split hits the decode of its
        first clock.  ``runs_digest`` is that digest when the caller
        holds it (a split hashes each channel once for all its
        clocks); without it the runs are hashed here.

        Each segment fixes its direction once: latency, turnaround
        floor and precharge offset before its visits, its last data
        end after them.  Each segment visit is one body: the reference
        engine's refresh, command-queue and row-management blocks
        (kept textually in sync with it, down to the bookkeeping both
        leave out where it provably never binds; the one difference is
        the reference's flush of its block's pending precharge-ready
        before the PREA scan, which batch needs none of, because it
        raises ``pre_ready`` at the end of every visit), the head's column
        time as the max of every bound, then the head and the
        segment's remaining
        accesses in closed form -- capped at the next refresh
        deadline and, where the command queue can bind, before the
        first access whose queue floor would stall it.  Command
        logging, invariant checking and the closed-page policy fall
        back to the inherited reference loop (every command must be
        materialised to be logged / immediately precharged).
        """
        if command_log is not None or self.check_invariants:
            return ChannelEngine.run_trusted(self, runs, command_log)
        if not self.page_policy.keeps_rows_open:
            return ChannelEngine.run_trusted(self, runs, command_log)

        decoded = _decode_cached(runs, self.mapping, runs_digest)

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
        t_faw = timing.t_faw

        nbanks = self.device.geometry.banks
        open_row = [NO_OPEN_ROW] * nbanks
        act_ready = [0] * nbanks
        pre_ready = [0] * nbanks

        cmd_free = 0
        bus_free = 0
        last_rd_end = -(10**9)
        last_wr_end = -(10**9)
        last_act_any = -(10**9)
        last_pre_any = -(10**9)
        next_ref = t_refi
        faw_hist = [-(10**9)] * 4
        faw_idx = 0
        faw_live = timing.faw_can_bind(nbanks)

        ovh_per = self.interconnect.overhead_fixed_point
        ovh_acc = 0
        ovh_scale = OVERHEAD_SCALE
        ovh_mask = ovh_scale - 1
        ovh_shift = OVERHEAD_SHIFT
        bstep = burst * ovh_scale + ovh_per
        # Most cycles one access can move bus_free by.
        step_max = burst + -(-ovh_per // ovh_scale)

        qdepth = self.queue.depth
        ring = self.queue.make_ring()
        ring_i = 0

        pd_policy = self.power_down
        pd_cycles = 0
        pd_entries = 0

        n_act = 0
        n_pre = 0
        n_ref = 0
        n_qstall = 0
        n_conflict = 0

        # Where the command-queue floor cannot bind, the whole ring --
        # checks and writes -- is dead weight and is skipped.  Where it
        # can, a direction whose latency the queue covers still never
        # stalls on its batch's own data starts.
        queue_live = self.queue.can_bind(timing)
        const_ok_rd = self.queue.covers(burst, cas)
        const_ok_wr = self.queue.covers(burst, wl)

        for op, bnk, row, count, arrival in decoded.segments:
            # --- idle-gap / power-down handling at run boundaries -----
            if arrival > cmd_free and arrival > bus_free:
                busy_until = cmd_free if cmd_free > bus_free else bus_free
                gap = arrival - busy_until
                down = pd_policy.powered_down_cycles(gap, t_cke, t_xp)
                if down > 0:
                    pd_cycles += down
                    pd_entries += 1
                    floor = arrival + t_xp
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
                const_ok = const_ok_rd
            else:
                lat = wl
                turn = last_rd_end + rtw_gap - wl
                pre_off = wl + burst + t_wr  # write recovery
                const_ok = const_ok_wr

            left = count
            while left > 0:
                # --- refresh ------------------------------------------
                if cmd_free >= next_ref:
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
                    else:
                        tref = tpre
                        f = last_pre_any + t_rp
                        if f > tref:
                            tref = f
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
                        ref_done = cmd_free + 1 + t_rfc
                        for b in range(nbanks):
                            if act_ready[b] < ref_done:
                                act_ready[b] = ref_done
                        cmd_free = ref_done
                        n_ref += 1
                        next_ref += t_refi

                # t: the earliest cycle of this visit's next command.
                t = cmd_free
                # --- command-queue bound (dead unless queue_live) -----
                if queue_live:
                    floor = ring[ring_i]
                    if floor > t:
                        t = floor
                        n_qstall += 1

                # --- row management -----------------------------------
                orow = open_row[bnk]
                if orow != row:
                    if orow != NO_OPEN_ROW:
                        n_conflict += 1
                        tpre = pre_ready[bnk]
                        if tpre < t:
                            tpre = t
                        n_pre += 1
                        last_pre_any = tpre
                        tact = tpre + t_rp
                        if act_ready[bnk] > tact:
                            tact = act_ready[bnk]
                    else:
                        tact = t
                        if act_ready[bnk] > tact:
                            tact = act_ready[bnk]
                    rrd_floor = last_act_any + t_rrd
                    if rrd_floor > tact:
                        tact = rrd_floor
                    if faw_live:
                        faw_floor = faw_hist[faw_idx] + t_faw
                        if faw_floor > tact:
                            tact = faw_floor
                        faw_hist[faw_idx] = tact
                        faw_idx = (faw_idx + 1) & 3
                    last_act_any = tact
                    act_ready[bnk] = tact + t_rc
                    pre_ready[bnk] = tact + t_ras
                    open_row[bnk] = row
                    n_act += 1
                    t = tact + t_rcd

                # --- head column command: the max of every bound ------
                if turn > t:
                    t = turn
                f = bus_free - lat
                if f > t:
                    t = f
                base = t + lat

                # --- how many accesses the closed form covers ---------
                # Access a >= 2 of the batch finds its row open and every
                # other bound dominated by its data-bus bound (that bound
                # grows by >= burst >= 1 per access while the turnaround
                # bound stays at most the head's time), so
                # only a refresh deadline or a queue floor can break the
                # recurrence.  Refresh cap: access a issues with cmd_free
                # = busfree(a-2) - lat + 1, which must stay below
                # next_ref; busfree(n-2) - base is at most
                # (n-2)*step_max, so a far refresh caps nothing.
                n = left
                x = next_ref + lat - 2 - base
                if x < 0:
                    n = 1
                elif (n - 2) * step_max > x:
                    i_max = (x * ovh_scale - ovh_acc) // bstep
                    # floor slack can admit at most one more
                    if (
                        (i_max + 1) * burst
                        + ((ovh_acc + (i_max + 1) * ovh_per) >> ovh_shift)
                        <= x
                    ):
                        i_max += 1
                    if i_max + 2 < n:
                        n = i_max + 2 if i_max >= 0 else 1
                if queue_live:
                    if not const_ok and n > qdepth:
                        n = qdepth
                    # Accesses 2..min(n, qdepth) consume ring entries
                    # written before the batch; cap n before the first
                    # that would stall.  Later ones consume the batch's
                    # own data starts, which const_ok proves never bind.
                    m = n if n < qdepth else qdepth
                    for a in range(2, m + 1):
                        i = a - 2
                        cf = (
                            base
                            + i * burst
                            + ((ovh_acc + i * ovh_per) >> ovh_shift)
                            - lat
                            + 1
                        )
                        if ring[(ring_i + a - 1) % qdepth] > cf:
                            n = a - 1
                            break
                    m = n if n < qdepth else qdepth
                    for a in range(n - m + 1, n + 1):
                        i = a - 1
                        ring[(ring_i + i) % qdepth] = (
                            base + i * burst + ((ovh_acc + i * ovh_per) >> ovh_shift)
                        )
                    ring_i = (ring_i + n) % qdepth

                # --- issue n accesses in closed form ------------------
                i = n - 1
                total = ovh_acc + i * ovh_per
                t = base + i * burst + (total >> ovh_shift) - lat
                total += ovh_per
                bus_free = base + n * burst + (total >> ovh_shift)
                ovh_acc = total & ovh_mask
                cmd_free = t + 1
                f = t + pre_off
                if f > pre_ready[bnk]:
                    pre_ready[bnk] = f
                left -= n
            if op == 0:
                last_rd_end = t + lat + burst
            else:
                last_wr_end = t + lat + burst

        finish = bus_free if bus_free > cmd_free else cmd_free

        tck = timing.t_ck_ns
        total_ns = finish * tck
        pd_ns = pd_cycles * tck
        # Open-page only on this path (closed-page fell back above):
        # non-powered-down time is active standby, power-down residency
        # is active power-down (CKE drops with rows still open).
        n_rd = decoded.n_rd
        n_wr = decoded.n_wr
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
            precharge_standby_ns=0.0,
            active_standby_ns=max(0.0, total_ns - pd_ns),
            precharge_powerdown_ns=0.0,
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
            bank_accesses=decoded.bank_counts[:nbanks],
            queue_stalls=n_qstall,
            bank_conflicts=n_conflict,
        )


class BatchBackend(ChannelBackend):
    """Segment-decode batching backend: reference-exact, sweep-fast."""

    name = "batch"
    supports_command_log = True
    description = (
        "cached segment decode + closed-form batching; "
        "bit-identical, >=10x faster on streaming sweeps"
    )
    #: Batching is applied only when provably exact, so the fuzzer and
    #: golden comparator hold this backend to bit-identity.
    reference_tolerance = 0.0

    def create(self, config: SystemConfig, index: int = 0) -> BatchChannelEngine:
        """One :class:`BatchChannelEngine` per channel."""
        return build_engine(config, engine_cls=BatchChannelEngine)
