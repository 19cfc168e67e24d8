"""One memory channel: controller + DRAM interconnect + bank cluster.

Section III: *"A memory controller, DRAM interconnect, and bank
cluster form an entity called channel model.  The delay and power
consumption figures in the simulations are attained from the channel
model."*  This class is that entity: it owns a channel simulator
(built by the configured :class:`~repro.backends.base.ChannelBackend`)
and the matching power model and evaluates both over an access stream.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.backends.base import ChannelSimulator
from repro.backends.registry import get_backend
from repro.controller.engine import ChannelResult, RunLike
from repro.core.config import SystemConfig
from repro.dram.power import EnergyBreakdown, PowerModel


class Channel:
    """A simulatable channel built from a :class:`SystemConfig`.

    The timing side is whatever ``config.backend`` selects -- the
    event-driven reference engine by default; the power model is
    backend-independent (it integrates the counters and state
    residencies every backend reports).
    """

    def __init__(self, config: SystemConfig, index: int = 0) -> None:
        self.config = config
        self.index = index
        self.backend = get_backend(config.backend)
        self.simulator: ChannelSimulator = self.backend.create(config, index)
        self.power_model = PowerModel(config.device, config.freq_mhz)

    @property
    def engine(self) -> ChannelSimulator:
        """The channel's simulator (historical name).

        Under the ``reference`` and ``batch`` backends this is a
        :class:`~repro.controller.engine.ChannelEngine` (or subclass)
        with the full engine surface (``make_checker``,
        ``check_invariants``, ...); other backends only guarantee the
        :class:`~repro.backends.base.ChannelSimulator` contract.
        """
        return self.simulator

    def run(
        self,
        runs: Iterable[RunLike],
        command_log: Optional[list] = None,
    ) -> ChannelResult:
        """Simulate an access stream on this channel.

        A validating entry: the simulator's ``run`` checks every run
        (:func:`~repro.controller.engine.check_runs`) before it
        simulates, so a malformed stream raises a typed error.
        """
        if command_log is not None:
            return self.simulator.run(runs, command_log=command_log)
        return self.simulator.run(runs)

    def energy_of(self, result: ChannelResult) -> EnergyBreakdown:
        """DRAM core energy of a previously simulated stream."""
        return self.power_model.energy(result.counters, result.states)

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Raw bandwidth of this single channel."""
        return self.config.device.peak_bandwidth_bytes_per_s(self.config.freq_mhz)
