"""The reference backend: the event-driven :class:`ChannelEngine`.

Pure adapter -- :meth:`ReferenceBackend.create` returns the engine
itself (it already satisfies the
:class:`~repro.backends.base.ChannelSimulator` contract), so selecting
``backend="reference"`` is behaviourally identical, bit for bit, to the
pre-backend code path.  Every other backend is validated against this
one (``tests/backends/``, ``benchmarks/bench_backends.py``).
"""

from __future__ import annotations

from repro.backends.base import ChannelBackend, ChannelSimulator
from repro.controller.engine import ChannelEngine
from repro.core.config import SystemConfig

# The engine predates the backend protocol; register it as fulfilling
# the simulator contract instead of inheriting (keeps the hot class
# free of abc machinery).
ChannelSimulator.register(ChannelEngine)


def build_engine(
    config: SystemConfig, engine_cls: type = ChannelEngine
) -> ChannelEngine:
    """Construct a channel engine (or subclass) from a system config.

    Shared by the reference and batch backends so the config-to-engine
    parameter mapping exists exactly once.
    """
    return engine_cls(
        device=config.device,
        freq_mhz=config.freq_mhz,
        multiplexing=config.multiplexing,
        page_policy=config.page_policy,
        power_down=config.power_down,
        interconnect=config.interconnect,
        queue=config.queue,
        check_invariants=config.check_invariants,
    )


class ReferenceBackend(ChannelBackend):
    """Cycle-resolution event-driven engine (the ground truth)."""

    name = "reference"
    supports_command_log = True
    description = (
        "event-driven cycle-resolution engine; exact, auditable, slowest"
    )
    reference_tolerance = 0.0  # it *is* the reference

    def create(self, config: SystemConfig, index: int = 0) -> ChannelEngine:
        """One :class:`ChannelEngine` per channel, as before."""
        return build_engine(config)
