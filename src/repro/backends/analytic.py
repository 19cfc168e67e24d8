"""The analytic backend: the closed-form model as a full simulator.

Promotes :class:`~repro.core.analytic.AnalyticModel` from a test
cross-check to a selectable backend: it consumes the same per-channel
:class:`~repro.controller.request.ChannelRun` stream as the engines
and returns a complete :class:`~repro.controller.engine.ChannelResult`,
so whole sweeps -- and therefore whole ``SimulationResult`` trees --
can run closed-form.  Cost is O(runs) instead of O(bursts): a 100 MB
transfer is a few thousand arithmetic operations, not six million loop
iterations.

Fidelity: access time tracks the reference within the tolerance
documented in docs/architecture.md (Backends) on the paper's streaming
workloads -- it models data occupancy, interconnect exposure,
direction-switch turnaround, queue-hidden row misses, refresh duty and
arrival-gap power-down, but not cycle-level effects (command-queue
stalls, tFAW/tRRD shaping, refresh/burst phase alignment).  Command
counters are estimates with the same caveat.  It cannot produce
command logs; asking for one raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.backends.base import ChannelBackend, ChannelSimulator
from repro.controller.engine import (
    ChannelResult,
    ChannelRuns,
    RunLike,
    check_runs,
)
from repro.controller.mapping import AddressMapping
from repro.core.analytic import (
    direction_switch_cost_cycles,
    refresh_inflation,
    row_miss_cost_cycles,
)
from repro.core.config import SystemConfig
from repro.dram.commands import CommandCounters, StateDurations
from repro.errors import ConfigurationError


class AnalyticChannelSimulator(ChannelSimulator):
    """Closed-form channel simulator for one configuration."""

    def __init__(self, config: SystemConfig, index: int = 0) -> None:
        self.config = config
        self.index = index
        self.freq_mhz = config.freq_mhz
        self.timing = config.device.timing.at_frequency(config.freq_mhz)
        self.mapping = AddressMapping.build(
            config.device.geometry, config.multiplexing
        )
        self._max_chunk = config.device.geometry.capacity_bytes >> 4

    def run(
        self,
        runs: Iterable[RunLike],
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """Estimate the stream's timing/command/state outcome closed-form.

        Validates the runs first
        (:func:`~repro.controller.engine.check_runs`), then
        :meth:`run_trusted` estimates them.
        """
        return self.run_trusted(check_runs(runs, self._max_chunk), command_log)

    def run_trusted(
        self,
        runs: ChannelRuns,
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """The estimate of :meth:`run` over already checked runs (see
        :meth:`ChannelSimulator.run_trusted
        <repro.backends.base.ChannelSimulator.run_trusted>`)."""
        if command_log is not None:
            raise ConfigurationError(
                "the 'analytic' backend cannot produce command logs "
                "(protocol auditing / check_invariants need the "
                "'reference' or 'batch' backend)"
            )
        cfg = self.config
        t = self.timing

        # (bank, row) can change only at an aligned 2**block_shift
        # boundary; one block is one open row's worth of sequential
        # chunks.
        block_shift = self.mapping.block_shift

        closed_page = not cfg.page_policy.keeps_rows_open
        nbanks = cfg.device.geometry.banks
        pd_policy = cfg.power_down
        inflate = refresh_inflation(t)
        switch_cost = direction_switch_cost_cycles(t)
        miss_cost = row_miss_cost_cycles(t, cfg.queue.depth)
        addr_cycles = cfg.interconnect.address_cycles_per_access

        n_rd = 0
        n_wr = 0
        n_act = 0
        pd_cycles = 0
        pd_entries = 0
        prev_op = -1
        prev_block = -1
        end = 0.0  # running completion estimate, channel cycles

        for op, start, count, arrival in runs:
            # Arrival gaps: idle time is spent powered down per policy,
            # exactly as the engines hand run-boundary gaps to it.
            if arrival > end:
                gap = int(arrival - end)
                down = pd_policy.powered_down_cycles(gap, t.t_cke, t.t_xp)
                if down > 0:
                    pd_cycles += down
                    pd_entries += 1
                end = float(arrival)

            first_block = start >> block_shift
            last_block = (start + count - 1) >> block_shift
            acts = last_block - first_block + 1
            if first_block == prev_block:
                acts -= 1
            prev_block = last_block
            if closed_page:
                acts = count  # every access re-opens its row
            n_act += acts

            busy = count * (t.burst_cycles + addr_cycles) + acts * miss_cost
            if prev_op >= 0 and prev_op != op:
                busy += switch_cost
            prev_op = op
            end += busy * inflate

            if op == 0:
                n_rd += count
            else:
                n_wr += count

        finish = int(math.ceil(end))
        n_ref = finish // t.t_refi if t.t_refi > 0 else 0
        if closed_page:
            n_pre = n_act
        else:
            # Conflict precharges (a later row evicting an earlier one)
            # plus one PREA ahead of each refresh.
            n_pre = max(0, n_act - nbanks) + n_ref

        tck = t.t_ck_ns
        total_ns = finish * tck
        pd_ns = pd_cycles * tck
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
            data_cycles=(n_rd + n_wr) * t.burst_cycles,
            chunks_read=n_rd,
            chunks_written=n_wr,
            counters=counters,
            states=states,
            bank_accesses=(),
            queue_stalls=0,
            bank_conflicts=max(0, n_act - nbanks) if not closed_page else 0,
        )


class AnalyticBackend(ChannelBackend):
    """Closed-form backend: O(runs) screening fidelity."""

    name = "analytic"
    supports_command_log = False
    description = (
        "closed-form model; O(runs) not O(bursts), screening fidelity, "
        "no command logs"
    )
    #: Documented access-time agreement with the reference on the
    #: paper's streaming workloads (docs/architecture.md, Backends).
    reference_tolerance = 0.15

    def create(self, config: SystemConfig, index: int = 0) -> AnalyticChannelSimulator:
        """One closed-form simulator per channel."""
        return AnalyticChannelSimulator(config, index)
