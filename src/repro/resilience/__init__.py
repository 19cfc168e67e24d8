"""Fault tolerance for sweeps and the parallel execution layer.

The paper's evaluation is a grid of dozens of independent simulation
points; at production scale a grid run must survive crashed workers,
hung workers, pathological points and interruptions without discarding
completed work.  This package supplies the machinery:

- :mod:`repro.resilience.retry` -- deterministic exponential backoff
  for transient pool failures (:class:`RetryPolicy`);
- :mod:`repro.resilience.report` -- structured per-job failure records
  (:class:`JobFailure`, with ``error``/``timeout``/``quarantined``
  kinds) and the graceful-degradation sweep result
  (:class:`SweepReport`);
- :mod:`repro.resilience.supervisor` -- the watchdog layer over
  :func:`repro.parallel.parallel_map`: per-job wall-clock deadlines,
  heartbeat-based hang detection, kill-and-requeue, and quarantine of
  jobs that exhaust their strike budget (:class:`Watchdog`);
- :mod:`repro.resilience.faults` -- controlled fault injection (worker
  crash or permanent stall on the Nth job, deterministic job failure,
  torn result-cache writes, corrupted timing parameters, malformed
  request streams) for testing all of the above;
- :mod:`repro.resilience.chaos` -- the seeded chaos campaign that runs
  a real sweep under randomized crash/stall/torn-write injection and
  asserts the final report is bit-identical to an undisturbed run
  (imported directly, not re-exported here: it drives the sweep layer,
  which sits above this package).

The runtime DRAM-protocol invariant checker lives with the protocol
model (:class:`repro.dram.protocol.ProtocolChecker`) and is enabled
per-configuration via ``SystemConfig(check_invariants=True)``.
"""

from repro.resilience.faults import TornWriteInjected
from repro.resilience.report import (
    FAILURE_KIND_ERROR,
    FAILURE_KIND_QUARANTINED,
    FAILURE_KIND_TIMEOUT,
    JobFailure,
    SweepReport,
)
from repro.resilience.retry import DEFAULT_RETRY_POLICY, NO_RETRY, RetryPolicy
from repro.resilience.supervisor import Watchdog

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FAILURE_KIND_ERROR",
    "FAILURE_KIND_QUARANTINED",
    "FAILURE_KIND_TIMEOUT",
    "JobFailure",
    "NO_RETRY",
    "RetryPolicy",
    "SweepReport",
    "TornWriteInjected",
    "Watchdog",
]
