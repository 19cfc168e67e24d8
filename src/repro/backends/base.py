"""The :class:`ChannelBackend` protocol.

The paper's methodology is explicitly multi-fidelity: "untimed
transaction level models associated with separate timing and power
information".  A backend is one such timing/power interpretation of a
channel's access stream -- anything that can take the
:class:`~repro.controller.request.ChannelRun` stream the Table II
interleaver produces for one channel and return
:class:`~repro.controller.engine.ChannelResult`-compatible timing,
command and state data.

Three fidelity levels ship with the package (see
:mod:`repro.backends.registry`):

``reference``
    The event-driven :class:`~repro.controller.engine.ChannelEngine`,
    cycle-resolution and protocol-auditable.  The ground truth.
``batch``
    Closed-form batching over the same timing algebra: same-direction
    streaming row hits are advanced arithmetically in one step and the
    engine only falls back to per-access stepping at direction, row,
    refresh and power-down boundaries.  The access stream is decoded
    once into (op, bank, row) segments, cached across sweep points
    (the decode depends only on the access stream and address mapping,
    not on the clock), and a proof-gated skip drops dead
    command-queue bookkeeping.  Bit-identical to ``reference`` on
    every stream (the closed form is applied only when it is provably
    exact), an order of magnitude faster on the paper's sweeps.
``analytic``
    The closed-form model promoted to a full backend: O(runs) instead
    of O(bursts), within its documented tolerance of the reference
    (see docs/architecture.md, Backends).  Cannot produce command logs.

A backend is a *factory*: :meth:`ChannelBackend.create` builds one
:class:`ChannelSimulator` per (configuration, channel index), mirroring
how :class:`~repro.core.system.MultiChannelMemorySystem` owns one
engine per channel.  Simulators may keep per-channel state between
calls exactly as :class:`ChannelEngine` does (it does not), but one
``run`` call must be a pure function of its input stream.

Validation happens once, where a stream enters: ``run`` checks its
runs (:func:`~repro.controller.engine.check_runs`) and then simulates
them; ``run_trusted`` is the simulation alone, for runs a
:class:`~repro.core.system.ChannelSplit` already checked when it was
made.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.controller.engine import ChannelResult, ChannelRuns, RunLike
    from repro.core.config import SystemConfig


class ChannelSimulator(abc.ABC):
    """One channel's simulator, built by a backend for one config.

    The contract matches :meth:`ChannelEngine.run
    <repro.controller.engine.ChannelEngine.run>`: process an ordered
    stream of access runs, return a
    :class:`~repro.controller.engine.ChannelResult`.
    """

    @abc.abstractmethod
    def run(
        self,
        runs: "Iterable[RunLike]",
        command_log: Optional[list] = None,
    ) -> "ChannelResult":
        """Simulate an ordered access stream on this channel.

        ``command_log`` (a list to be filled with
        :class:`~repro.dram.protocol.CommandRecord`) is only supported
        by backends whose :attr:`ChannelBackend.supports_command_log`
        is true; others raise
        :class:`~repro.errors.ConfigurationError`.

        This is the validating entry: a malformed run (op not in
        {0, 1}, count <= 0, a negative start or arrival, a run past
        the channel's capacity) must raise a typed
        :class:`~repro.errors.ConfigurationError` /
        :class:`~repro.errors.AddressError`, never yield a result.
        :meth:`Channel.run <repro.core.channel.Channel.run>`, protocol
        audits and the channel-pool job come through here.
        """

    #: Whether :meth:`run_trusted` takes a keyword-only ``runs_digest``
    #: (:func:`~repro.controller.engine.runs_digest` of its runs), which
    #: :meth:`~repro.core.system.MultiChannelMemorySystem.run_split`
    #: then hands it from the split, hashed once per channel.
    takes_runs_digest: bool = False

    def run_trusted(
        self,
        runs: "ChannelRuns",
        command_log: Optional[list] = None,
    ) -> "ChannelResult":
        """Simulate runs that :func:`~repro.controller.engine.check_runs`
        already accepted for this channel.

        :meth:`MultiChannelMemorySystem.run_split
        <repro.core.system.MultiChannelMemorySystem.run_split>` calls
        this with a split's runs, which were checked once when the
        split was made, so a shared split is not re-checked per clock.
        The built-in simulators implement it as their simulation body
        (their ``run`` is "check, then ``run_trusted``").  This default
        calls the validating :meth:`run`, so a custom backend is
        correct without knowing the split trusts its input.
        """
        if command_log is None:
            return self.run(runs)
        return self.run(runs, command_log=command_log)


class ChannelBackend(abc.ABC):
    """A pluggable simulation backend for one memory channel.

    Register instances with
    :func:`repro.backends.register_backend` to make them selectable by
    name through ``SystemConfig(backend=...)``, the sweep runners and
    the CLI's ``--backend`` flag.
    """

    #: Registry name (``SystemConfig(backend=<name>)``).
    name: str = "abstract"

    #: Whether :meth:`ChannelSimulator.run` accepts a ``command_log``
    #: (and therefore whether ``check_invariants`` / protocol auditing
    #: work under this backend).
    supports_command_log: bool = False

    #: One-line fidelity/speed description for docs and error messages.
    description: str = ""

    #: Documented relative access-time agreement with the ``reference``
    #: backend: ``0.0`` declares the backend *bit-identical* (the
    #: differential fuzzer and the golden comparator then demand exact
    #: equality of timing, counters and state residencies), a positive
    #: value declares a screening fidelity (results are compared within
    #: this relative tolerance and exact-valued fields are skipped).
    #: Custom backends registered at runtime inherit the strict default
    #: and should widen it to whatever their model actually guarantees.
    reference_tolerance: float = 0.0

    @property
    def bit_identical(self) -> bool:
        """Whether this backend promises reference-exact results."""
        return self.reference_tolerance == 0.0

    @abc.abstractmethod
    def create(self, config: "SystemConfig", index: int = 0) -> ChannelSimulator:
        """Build the simulator for channel ``index`` of ``config``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
