"""Retry policy for transient worker-pool failures.

The parallel layer distinguishes two failure classes (see
:func:`repro.parallel.parallel_map`):

- **transient pool failures** -- a worker process was killed (OOM
  killer, ``os._exit``, a crashed interpreter), the pool could not
  start, or the pool machinery itself raised.  The *jobs* are fine;
  re-executing them on a fresh pool is expected to succeed.  These are
  retried under a :class:`RetryPolicy` and, once the attempt budget is
  exhausted, completed in-process -- apart from a job that was running
  at each death of its worker, which is quarantined instead.
- **deterministic job failures** -- the mapped function raised.  Pure
  functions fail the same way every time, so retrying is waste; these
  are never retried and are instead propagated or captured as
  structured :class:`~repro.resilience.report.JobFailure` records.

Delays are **jitterless and deterministic**: attempt *k* waits exactly
``initial_delay_s * multiplier ** (k - 1)`` seconds.  Randomised jitter
exists to de-correlate many clients hammering one shared service; a
local process pool has no such contention, and deterministic delays
keep test runs and failure logs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff schedule for transient pool failures.

    ``max_attempts`` counts *pool* attempts: 3 means the initial try
    plus two retries before the work falls back in-process.

    The same ``max_attempts`` doubles as the default *per-job* strike
    budget: a job that takes its worker down (or, under watchdog
    supervision, hangs past its deadline) that many times is
    quarantined instead of requeued, unless the
    :class:`~repro.resilience.supervisor.Watchdog` overrides the
    budget with ``max_strikes``.  Without a watchdog the budget is at
    least two deaths, so :data:`NO_RETRY` still ends in the in-process
    fallback.
    """

    max_attempts: int = 3
    initial_delay_s: float = 0.05
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.initial_delay_s < 0:
            raise ConfigurationError(
                f"initial_delay_s must be >= 0, got {self.initial_delay_s}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delay_s(self, failed_attempts: int) -> float:
        """Backoff before the next attempt, after ``failed_attempts``
        (>= 1) attempts have failed."""
        if failed_attempts < 1:
            raise ConfigurationError(
                f"failed_attempts must be >= 1, got {failed_attempts}"
            )
        return self.initial_delay_s * self.multiplier ** (failed_attempts - 1)

    def delays(self) -> Tuple[float, ...]:
        """The full deterministic delay schedule (one entry per retry)."""
        return tuple(
            self.delay_s(attempt) for attempt in range(1, self.max_attempts)
        )


#: Default schedule: initial try + two pool retries at 50 ms and 100 ms.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Retry disabled: one pool attempt, then the in-process fallback.
NO_RETRY = RetryPolicy(max_attempts=1)
