"""Watchdog supervision: deadlines, hang detection, quarantine.

The one pooled loop (``repro.parallel._pooled_map``) recovers from
workers that *die* -- the pool reports the death and the unfinished
jobs are requeued.  A worker that *hangs* reports nothing: without a
deadline, one livelocked simulation stalls an entire sweep forever.
This module holds the pieces the loop uses to close that gap:

**Deadlines.**  A supervised job carries a wall-clock deadline
(``timeout_s`` on :func:`repro.parallel.parallel_map`,
``point_timeout`` on :func:`repro.analysis.sweep.sweep_use_case`,
``--point-timeout`` on the sweeping CLI subcommands), configured
through a :class:`Watchdog`.

**Beat files.**  Every pooled job announces its start (pid +
monotonic timestamp) through a per-job beat file the moment it begins
executing (:func:`_watched_call`).  When the pool breaks, the jobs
that had started and not finished are the suspects, so a job that
crashes its worker every time is charged and quarantined before the
in-process fallback would run it in (and take down) the parent.

**Hang detection and kill.**  Under a :class:`Watchdog`, a
parent-side :class:`_Monitor` thread polls the beats; a job still
unfinished past its deadline gets its worker ``SIGKILL``\\ed.  The
kill surfaces to the parent as the familiar broken-pool transient
failure, so the loop rebuilds the pool and re-runs every unfinished
job -- except that the monitor knows *which* job hung and the strike
is charged to it alone.

**Quarantine.**  A job that exhausts its per-job strike budget
(``Watchdog.max_strikes``, defaulting to the
:class:`~repro.resilience.retry.RetryPolicy` attempt budget) -- by
hanging repeatedly, or by repeatedly taking its worker down -- is
written off as a quarantined
:class:`~repro.resilience.report.JobFailure`
(:data:`~repro.resilience.report.FAILURE_KIND_TIMEOUT` or
:data:`~repro.resilience.report.FAILURE_KIND_QUARANTINED`) instead of
being retried forever.  Without a watchdog the budget is the attempt
budget but at least two deaths: a death names every job in flight,
so one death alone convicts no one.  Quarantine folds into the existing
ERR-cell/``strict=`` sweep semantics, and the sweep runner records it
into the result cache so a ``--resume`` does not re-hang on the same
point.

Clock note: beat timestamps are ``time.monotonic()`` values compared
across processes, which is sound on the platforms that can run worker
pools at all -- CLOCK_MONOTONIC is system-wide, not per-process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, Optional, Set, TypeVar

from repro.errors import ConfigurationError
from repro.resilience.retry import RetryPolicy

T = TypeVar("T")

#: Default monitor poll cadence; per-watchdog it is additionally
#: capped at a quarter of the deadline so short deadlines stay sharp.
DEFAULT_POLL_INTERVAL_S = 0.05

#: Signal used to remove a hung worker (SIGTERM where SIGKILL does not
#: exist -- a hung worker may mask SIGTERM, but such platforms cannot
#: do better).
_KILL_SIGNAL = getattr(signal, "SIGKILL", signal.SIGTERM)


class CallbackError(Exception):
    """Internal wrapper for an exception raised by a *caller* callback
    (``on_result``/``on_failure``).

    The wrapping exists purely so the retry machinery cannot mistake a
    failing callback (say, a store write hitting a full disk,
    which raises :class:`OSError` -- also a pool-failure type) for a
    transient pool failure and re-run jobs whose results were already
    delivered.  :func:`repro.parallel.parallel_map` unwraps it and
    re-raises the original at the boundary; user code never sees this
    type.
    """

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


def deliver(
    callback: Optional[Callable[[int, T], None]], index: int, value: T
) -> None:
    """Invoke a caller callback, wrapping any exception it raises.

    See :class:`CallbackError`: the wrapper is opaque to every
    ``except`` clause of the execution layer and is unwrapped only at
    the ``parallel_map`` boundary, so a raising callback is a *caller*
    error -- never retried, never captured as a job failure.
    """
    if callback is None:
        return
    try:
        callback(index, value)
    except Exception as exc:
        raise CallbackError(exc) from exc


class Watchdog:
    """Deadline policy plus run statistics for one supervised map.

    ``timeout_s`` is the per-job wall-clock deadline, measured from the
    moment the job starts executing in a worker (queue time does not
    count).  ``max_strikes`` is the per-job budget of deadline expiries
    or worker deaths before quarantine; ``None`` adopts the
    ``RetryPolicy.max_attempts`` of the run.  ``poll_interval_s``
    overrides the monitor cadence.

    The instance also accumulates the run's supervision statistics
    (parent-side only; it never crosses the process boundary):
    ``kills`` worker processes killed, ``timeouts`` deadline expiries
    observed, ``quarantined`` jobs written off.
    """

    def __init__(
        self,
        timeout_s: float,
        max_strikes: Optional[int] = None,
        poll_interval_s: Optional[float] = None,
    ) -> None:
        if not timeout_s > 0:
            raise ConfigurationError(
                f"watchdog timeout_s must be > 0, got {timeout_s!r}"
            )
        if max_strikes is not None and max_strikes < 1:
            raise ConfigurationError(
                f"watchdog max_strikes must be >= 1, got {max_strikes}"
            )
        if poll_interval_s is not None and not poll_interval_s > 0:
            raise ConfigurationError(
                f"watchdog poll_interval_s must be > 0, got {poll_interval_s!r}"
            )
        self.timeout_s = float(timeout_s)
        self.max_strikes = max_strikes
        self.poll_interval_s = (
            float(poll_interval_s)
            if poll_interval_s is not None
            else min(DEFAULT_POLL_INTERVAL_S, self.timeout_s / 4.0)
        )
        self.kills = 0
        self.timeouts = 0
        self.quarantined = 0

    def strike_budget(self, retry: RetryPolicy) -> int:
        """Per-job strikes before quarantine under ``retry``."""
        return self.max_strikes if self.max_strikes is not None else retry.max_attempts


def _beat_path(beat_dir: str, round_tag: str, index: int) -> str:
    return os.path.join(beat_dir, f"{round_tag}-{index}.beat")


def _watched_call(fn, job, index, beat_dir, round_tag):
    """Worker-side wrapper: announce the job start, then run it.

    Module-level so it pickles by reference.  The beat file carries
    ``"<pid> <monotonic-start>"``; a lost beat (unwritable directory)
    only degrades supervision for this job -- the job itself still
    runs.
    """
    try:
        with open(_beat_path(beat_dir, round_tag, index), "w") as handle:
            handle.write(f"{os.getpid()} {time.monotonic()}")
    except OSError:  # pragma: no cover - depends on filesystem state
        pass
    return fn(job)


def _read_beat(beat_dir, round_tag, index):
    """``(pid, started)`` from a beat file, or ``None``.

    ``None`` also covers the in-flight torn read (the worker is midway
    through writing the beat); the next poll sees the full line.
    """
    try:
        with open(_beat_path(beat_dir, round_tag, index), "r") as handle:
            pid_s, started_s = handle.read().split()
        return int(pid_s), float(started_s)
    except (OSError, ValueError):
        return None


class _Monitor(threading.Thread):
    """Parent-side watchdog thread for one pool round.

    Polls the round's beat files; any job started longer than the
    deadline ago whose future is still unresolved gets its worker
    killed.  Kills are recorded in :attr:`killed` so the round's
    broken-pool handler can tell a watchdog kill from a genuine worker
    death and charge the strike to the hung job alone.
    """

    def __init__(
        self,
        beat_dir: str,
        round_tag: str,
        futures_by_index: Dict[int, Future],
        watchdog: Watchdog,
    ) -> None:
        super().__init__(name="repro-watchdog", daemon=True)
        self._beat_dir = beat_dir
        self._round_tag = round_tag
        self._futures = futures_by_index
        self._watchdog = watchdog
        self._halt = threading.Event()
        self.killed: Set[int] = set()

    def run(self) -> None:
        while not self._halt.wait(self._watchdog.poll_interval_s):
            now = time.monotonic()
            for index, future in list(self._futures.items()):
                if index in self.killed or future.done():
                    continue
                beat = _read_beat(self._beat_dir, self._round_tag, index)
                if beat is None:
                    continue  # not started yet: queue time is free
                pid, started = beat
                if now - started < self._watchdog.timeout_s:
                    continue
                # Mark first: even if the process is already gone the
                # deadline expired and the job must be charged.
                self.killed.add(index)
                self._watchdog.kills += 1
                try:
                    os.kill(pid, _KILL_SIGNAL)
                except (ProcessLookupError, PermissionError):
                    pass

    def stop(self) -> None:
        self._halt.set()
        if self.is_alive():
            self.join()
