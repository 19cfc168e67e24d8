"""Exception hierarchy for the repro package.

A small, explicit hierarchy so callers can distinguish configuration
mistakes (their fault, fix the config) from internal protocol violations
(our fault, a simulator bug worth reporting).
"""

from __future__ import annotations

from typing import Mapping, Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An invalid simulator, DRAM or use-case configuration was supplied.

    Raised eagerly at construction time: a configuration object that
    exists is a configuration that can be simulated.
    """


class AddressError(ReproError):
    """An address fell outside the modelled memory capacity or was
    otherwise impossible to decode with the configured mapping."""


class ProtocolError(ReproError):
    """A DRAM command sequence violated the device protocol.

    For example reading from a bank with no open row under a policy
    that should have activated it first.  Seeing this exception means
    there is a bug in the controller model, not in user code.
    """


class TraceFormatError(ReproError):
    """A trace file line could not be parsed."""


class SimulationError(ReproError):
    """A simulation failed at runtime.

    Covers failures *inside* a simulation run (as opposed to rejected
    configurations, which raise :class:`ConfigurationError` before any
    simulation starts): injected faults, corrupted inputs discovered
    mid-run, and worker-side crashes surfaced by the sweep runners.
    """


class WorkerError(SimulationError):
    """A sweep worker failed while simulating one point.

    Raised by the sweep runners in ``strict`` mode instead of letting a
    bare worker exception propagate context-free.  Carries the sweep
    coordinates of the failed point (``coords``, e.g. level name,
    channel count and clock) and the worker-side traceback rendered as
    a string (``traceback``) so the failure can be attributed without
    re-running the sweep.
    """

    def __init__(
        self,
        message: str,
        coords: Optional[Mapping[str, object]] = None,
        traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.coords = dict(coords) if coords else {}
        self.traceback = traceback


class JobTimeoutError(SimulationError):
    """A pooled job exhausted its strike budget and was quarantined.

    Raised by :func:`repro.parallel.parallel_map` (in place of a
    result) when a job hung past its ``timeout_s`` deadline, or took
    its worker down, on every permitted attempt and
    ``capture_failures`` is off.  With ``capture_failures=True`` the
    same condition is captured as a quarantined
    :class:`~repro.resilience.report.JobFailure` instead.
    """


class RegressionError(ReproError):
    """A golden-baseline file could not be loaded or is malformed.

    Distinct from a *mismatch* (the engine drifting from the goldens),
    which is reported as data by the comparator so every failing cell
    can be shown at once; this exception covers the store itself being
    unusable -- missing files, unknown schema, corrupt JSON.
    """
