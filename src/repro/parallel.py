"""Parallel execution: one process pool with a deterministic fallback.

The sweep experiments (Figs. 3-5) evaluate dozens of (configuration,
level) points that never interact.  They are embarrassingly parallel,
yet a pure-Python simulator can only exploit that with processes --
the GIL serialises threads on the engine's integer-arithmetic hot
loop.  This module puts process pools behind one order-preserving
primitive, :func:`parallel_map`, which
:func:`repro.analysis.sweep.sweep_use_case` (and the Fig. 3/4/5
runners built on it) uses to fan whole sweep points out across
workers.  The sweep point is the one unit of parallel work: the
channels of a point are simulated together, in the process that owns
the point.

Design rules
------------

**Determinism.**  Results are bit-identical to the sequential path:
the mapped function must be pure, results are returned in input order
regardless of completion order, and each worker performs exactly the
computation the sequential path would (no shared mutable state, no
work stealing that could reorder floating-point reductions).

**Fault tolerance.**  Failures split into two classes with opposite
treatments (see :mod:`repro.resilience.retry`):

- *transient pool failures* (a worker was killed, the pool could not
  start, arguments could not cross the process boundary) never lose
  work: the unfinished jobs are retried on a fresh pool under a
  deterministic exponential-backoff :class:`RetryPolicy` and, once the
  attempt budget is exhausted, completed in-process.  A job that was
  running whenever its worker died is the exception: once it exhausts
  its strike budget it is quarantined instead, so it can never take
  the parent down in the in-process fallback.  Every fallback to the
  in-process path is announced with a :class:`PoolFallbackWarning`
  naming the reason, so users on restricted platforms know why
  ``--workers`` had no effect.
- *deterministic job failures* (the mapped function raised) are never
  retried -- a pure function fails the same way every time.  By
  default the exception propagates; with ``capture_failures=True`` the
  failed job yields a structured
  :class:`~repro.resilience.report.JobFailure` record in its result
  slot and the rest of the map completes.

**One pooled loop.**  Supervised and unsupervised maps run the same
loop; a map without a deadline is a watchdog map with no timeout (see
:mod:`repro.resilience.supervisor` for the beat files and the
deadline monitor).

**Worker semantics.**  ``workers=None`` or ``1`` means in-process
sequential execution; ``workers=0`` (:data:`AUTO_WORKERS`) means one
worker per available CPU; ``workers=N`` caps the pool at N processes.
The effective pool never exceeds the number of jobs.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, TypeVar, Union

from repro.errors import ConfigurationError, JobTimeoutError
from repro.resilience.report import (
    FAILURE_KIND_QUARANTINED,
    FAILURE_KIND_TIMEOUT,
    JobFailure,
)
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.resilience.supervisor import (
    CallbackError,
    Watchdog,
    _Monitor,
    _read_beat,
    _watched_call,
    deliver,
)

T = TypeVar("T")
R = TypeVar("R")

#: ``workers`` value meaning "one worker per available CPU".
AUTO_WORKERS = 0

#: Upper bound on an explicit worker request; catches nonsense values
#: (a request is still capped by the job count afterwards).
MAX_WORKERS = 256

#: Errors that mean "the pool could not do the work", as opposed to
#: "the mapped function raised": pool start-up failures, workers dying
#: and arguments/functions that cannot cross the process boundary.
_POOL_ERRORS = (
    OSError,
    ImportError,
    NotImplementedError,
    BrokenProcessPool,
    pickle.PicklingError,
)

#: Future-level errors that indict the pool, not the job.  A future
#: whose exception is any *other* type carries the mapped function's
#: own failure and is handled per the ``capture_failures`` contract.
_TRANSIENT_FUTURE_ERRORS = (BrokenProcessPool, pickle.PicklingError)

_pool_probe: Optional[bool] = None


class PoolFallbackWarning(RuntimeWarning):
    """The process pool was abandoned and work ran in-process.

    Results are unaffected (the fallback is deterministic); the
    warning exists so a silent loss of the pool is diagnosable.
    """


def _warn_fallback(reason: str, supervised: bool) -> None:
    if supervised:
        reason += " -- deadlines are NOT enforced in-process"
    warnings.warn(
        PoolFallbackWarning(
            f"parallel_map fell back to in-process execution: {reason}"
        ),
        stacklevel=4,
    )


def available_cpus() -> int:
    """Number of CPUs usable for worker processes (at least 1)."""
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int], jobs: int) -> int:
    """Effective worker count for ``jobs`` independent jobs.

    ``None`` and ``1`` resolve to 1 (in-process); :data:`AUTO_WORKERS`
    resolves to :func:`available_cpus`; any other positive value is
    taken as an upper bound.  The result never exceeds ``jobs``.
    """
    if workers is None:
        return 1
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(f"workers must be an int, got {workers!r}")
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (0 = one per CPU), got {workers}"
        )
    if workers > MAX_WORKERS:
        raise ConfigurationError(
            f"workers must be <= {MAX_WORKERS}, got {workers}"
        )
    if workers == AUTO_WORKERS:
        workers = available_cpus()
    return max(1, min(workers, jobs))


def _probe_identity(x: int) -> int:
    """Module-level identity for the pool probe (must be picklable)."""
    return x


def pool_supported() -> bool:
    """Whether this platform can actually start a worker pool.

    Probes once per process by round-tripping a trivial job through a
    single-worker pool; the result is cached.  Used by benchmarks and
    the determinism suite to distinguish "parallel path exercised"
    from "parallel path fell back in-process".
    """
    global _pool_probe
    if _pool_probe is None:
        try:
            with ProcessPoolExecutor(max_workers=1) as pool:
                _pool_probe = list(pool.map(_probe_identity, [7])) == [7]
        except Exception:  # pragma: no cover - platform dependent
            _pool_probe = False
    return _pool_probe


def _serial_map(
    fn: Callable[[T], R],
    pending: Dict[int, T],
    results: Dict[int, Union[R, JobFailure]],
    capture_failures: bool,
    on_result: Optional[Callable[[int, R], None]],
    on_failure: Optional[Callable[[int, JobFailure], None]] = None,
) -> None:
    """Run ``pending`` jobs in-process, filling ``results`` by index."""
    for index in sorted(pending):
        job = pending[index]
        try:
            value = fn(job)
        except Exception as exc:
            if not capture_failures:
                raise
            failure = JobFailure.from_exception(index, job, exc)
            results[index] = failure
            deliver(on_failure, index, failure)
        else:
            results[index] = value
            deliver(on_result, index, value)
    pending.clear()


def _pooled_map(
    fn: Callable[[T], R],
    jobs: List[T],
    effective: int,
    retry: RetryPolicy,
    capture_failures: bool,
    on_result: Optional[Callable[[int, R], None]],
    on_failure: Optional[Callable[[int, JobFailure], None]],
    watchdog: Optional[Watchdog] = None,
) -> Dict[int, Union[R, JobFailure]]:
    """Distribute ``jobs`` over a pool: the one pooled loop.

    Returns the full index->outcome mapping.  Deterministic job
    failures either propagate (default) or land as
    :class:`JobFailure` outcomes (``capture_failures``).

    Every job announces its start through a beat file
    (:mod:`repro.resilience.supervisor`).  When a worker dies, the
    jobs that had started and not finished are the suspects: each is
    charged a strike, every unfinished job is retried on a fresh pool
    under ``retry``'s deterministic backoff, and a job that exhausts
    its strike budget is quarantined -- captured as a
    :class:`JobFailure` of kind ``quarantined`` or raised as
    :class:`~repro.errors.JobTimeoutError` -- so a job that kills its
    worker every time never reaches the in-process fallback.  That
    fallback finishes the remaining jobs once ``retry.max_attempts``
    pool attempts have failed.

    A ``watchdog`` adds deadlines: a :class:`_Monitor` thread kills the
    worker of any job running past ``watchdog.timeout_s``, and the kill
    charges the hung job alone (kind ``timeout``) without using up a
    pool attempt.  The strike budget is then
    :meth:`Watchdog.strike_budget`.  Without one, a death only names
    the jobs in flight, so a single death convicts no one: the budget
    is ``retry.max_attempts`` but at least two, and :data:`NO_RETRY
    <repro.resilience.retry.NO_RETRY>` keeps its one pool attempt and
    then the in-process fallback.

    Caller callbacks run through :func:`deliver`, which wraps anything
    they raise in :class:`CallbackError` -- an exception type no
    ``except`` clause here matches -- so a failing store write
    (an :class:`OSError`, which is also a pool-error type) can never be
    mistaken for a transient pool failure and cause the already-
    delivered job to be re-run.
    """
    results: Dict[int, Union[R, JobFailure]] = {}
    pending: Dict[int, T] = dict(enumerate(jobs))
    strikes: Dict[int, int] = {}
    if watchdog is not None:
        budget = watchdog.strike_budget(retry)
        deadline = f" (deadline {watchdog.timeout_s:g} s)"
    else:
        budget = max(2, retry.max_attempts)
        deadline = ""
    pool_failures = 0
    round_no = 0
    beat_dir = tempfile.mkdtemp(prefix="repro-pool-")

    def strike(index: int, kind: str, detail: str) -> None:
        """Charge one strike; quarantine on budget exhaustion."""
        strikes[index] = strikes.get(index, 0) + 1
        if strikes[index] < budget:
            return  # requeue: the job stays pending
        job = pending.pop(index)
        if watchdog is not None:
            watchdog.quarantined += 1
        message = f"{detail} on {strikes[index]} attempt(s){deadline}; quarantined"
        if not capture_failures:
            raise JobTimeoutError(f"job {index} ({job!r}) {message}")
        failure = JobFailure.from_quarantine(
            index,
            job,
            kind=kind,
            message=message,
            error_type=(
                "JobTimeoutError" if kind == FAILURE_KIND_TIMEOUT else "WorkerLost"
            ),
        )
        results[index] = failure
        deliver(on_failure, index, failure)

    try:
        while pending:
            round_no += 1
            tag = str(round_no)
            monitor: Optional[_Monitor] = None
            try:
                max_workers = min(effective, len(pending))
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = {
                        pool.submit(
                            _watched_call, fn, job, index, beat_dir, tag
                        ): index
                        for index, job in pending.items()
                    }
                    if watchdog is not None:
                        monitor = _Monitor(
                            beat_dir,
                            tag,
                            {index: future for future, index in futures.items()},
                            watchdog,
                        )
                        monitor.start()
                    for future in as_completed(futures):
                        index = futures[future]
                        exc = future.exception()
                        if exc is None:
                            value = future.result()
                            results[index] = value
                            del pending[index]
                            deliver(on_result, index, value)
                        elif isinstance(exc, _TRANSIENT_FUTURE_ERRORS):
                            # The pool (or the pickling boundary) failed,
                            # not the job: escalate with the job still
                            # pending.
                            raise exc
                        else:
                            # The mapped function raised.  Pure
                            # functions fail deterministically; never
                            # retry.
                            job = pending.pop(index)
                            if not capture_failures:
                                raise exc
                            failure = JobFailure.from_exception(index, job, exc)
                            results[index] = failure
                            deliver(on_failure, index, failure)
            except _POOL_ERRORS as exc:
                killed = (
                    monitor.killed & set(pending) if monitor is not None else set()
                )
                if killed:
                    # A watchdog round: the hung jobs alone are charged;
                    # every other unfinished job requeues for free and
                    # the pool-failure budget is untouched.
                    for index in sorted(killed):
                        watchdog.timeouts += 1
                        strike(
                            index,
                            FAILURE_KIND_TIMEOUT,
                            "hung past the watchdog deadline",
                        )
                    continue
                # A genuine pool failure: charge the started-but-
                # unfinished jobs (the beat files name the suspects).
                suspects = sorted(
                    index
                    for index in pending
                    if _read_beat(beat_dir, tag, index) is not None
                )
                for index in suspects:
                    strike(
                        index,
                        FAILURE_KIND_QUARANTINED,
                        f"worker died ({type(exc).__name__})",
                    )
                pool_failures += 1
                if not pending:
                    continue
                if pool_failures >= retry.max_attempts:
                    _warn_fallback(
                        f"{type(exc).__name__}: {exc} (after {pool_failures} "
                        f"pool attempt(s)); finishing {len(pending)} job(s) "
                        "in-process",
                        watchdog is not None,
                    )
                    _serial_map(
                        fn, pending, results, capture_failures, on_result,
                        on_failure,
                    )
                else:
                    delay = retry.delay_s(pool_failures)
                    if delay > 0:
                        time.sleep(delay)
            finally:
                if monitor is not None:
                    monitor.stop()
    finally:
        shutil.rmtree(beat_dir, ignore_errors=True)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    capture_failures: bool = False,
    on_result: Optional[Callable[[int, R], None]] = None,
    on_failure: Optional[Callable[[int, JobFailure], None]] = None,
    timeout_s: Optional[float] = None,
    watchdog: Optional[Watchdog] = None,
) -> List[Union[R, JobFailure]]:
    """Order-preserving, fault-tolerant map over independent jobs.

    With an effective worker count of 1 (the default) this is a plain
    in-process loop.  With more, jobs are distributed over a process
    pool and the results are collected *in input order*, so callers
    observe exactly the sequential output.

    ``fn`` must be a pure module-level callable and ``items`` must be
    picklable; when either condition fails, or the platform cannot
    start worker processes at all, the map falls back in-process
    (announced with a :class:`PoolFallbackWarning`) and still returns
    the identical result.

    Failure handling:

    - Transient pool failures (a killed worker, ``BrokenProcessPool``)
      re-execute the unfinished jobs on a fresh pool under ``retry``
      (default: :data:`~repro.resilience.retry.DEFAULT_RETRY_POLICY`),
      with jitterless deterministic backoff delays, before finishing
      in-process.  No work is lost and no job runs twice to
      completion -- only jobs whose results never arrived are retried.
      A job that was running at every death of its worker (``retry``'s
      attempt budget, but at least two deaths) is quarantined as a
      :class:`~repro.resilience.report.JobFailure` of kind
      ``quarantined`` (``capture_failures=True``) or raised as
      :class:`~repro.errors.JobTimeoutError`, never run in-process.
    - Exceptions raised by ``fn`` are deterministic: they are never
      retried.  By default the first one propagates to the caller;
      with ``capture_failures=True`` each failed job's result slot
      holds a :class:`~repro.resilience.report.JobFailure` record and
      every other job still completes.

    Supervision: ``timeout_s`` (or an explicit
    :class:`~repro.resilience.supervisor.Watchdog`, which additionally
    controls the strike budget and poll cadence) puts the map under
    watchdog supervision -- every job gets a wall-clock deadline
    measured from the moment it starts in a worker; a hung job's worker
    is killed and the job requeued, and a job that hangs (or kills its
    worker) on every permitted attempt is quarantined as a
    :class:`~repro.resilience.report.JobFailure` of kind ``timeout`` /
    ``quarantined`` (``capture_failures=True``) or raised as
    :class:`~repro.errors.JobTimeoutError`.  Supervision forces pooled
    execution even for ``workers=None``: an in-process job cannot be
    preempted, so a pool of one is the only way to honour the
    deadline.  Should the pool be unavailable the map still completes
    in-process -- with a :class:`PoolFallbackWarning` noting that
    deadlines are not enforced there.

    ``on_result`` (when given) is called in the parent process as
    ``on_result(index, value)`` the moment each job *succeeds* -- in
    completion order, not input order -- which is what lets a sweep
    store points as they finish.  ``on_failure`` is the
    counterpart for captured failures (including quarantines).  An
    exception raised by either callback is a *caller* error: it
    propagates unchanged, aborts the map, and is never retried or
    recorded as a job failure -- a store write failing with
    ``OSError`` must not look like a killed worker.
    """
    jobs = list(items)
    effective = resolve_workers(workers, len(jobs))
    policy = retry if retry is not None else DEFAULT_RETRY_POLICY
    if watchdog is not None and timeout_s is not None:
        if float(timeout_s) != watchdog.timeout_s:
            raise ConfigurationError(
                "pass either timeout_s or a Watchdog, not conflicting both "
                f"({timeout_s!r} vs watchdog.timeout_s={watchdog.timeout_s!r})"
            )
    if watchdog is None and timeout_s is not None:
        watchdog = Watchdog(timeout_s)

    # Supervision needs preemptable workers: a deadline forces a pool
    # even for an effective worker count of 1.
    pooled = bool(jobs) and (effective > 1 or watchdog is not None)
    if pooled:
        try:
            # Probe before starting a pool: an unpicklable fn (lambda,
            # closure, bound method) surfaces as an AttributeError or
            # TypeError from deep inside the pool's feeder thread, so
            # it is far cleaner to detect it up front.
            pickle.dumps(fn)
        except Exception as exc:
            pooled = False
            _warn_fallback(
                f"function {fn!r} cannot cross the process boundary "
                f"({type(exc).__name__})",
                watchdog is not None,
            )
    try:
        if pooled:
            outcome = _pooled_map(
                fn, jobs, effective, policy, capture_failures, on_result,
                on_failure, watchdog,
            )
        else:
            outcome = {}
            _serial_map(
                fn, dict(enumerate(jobs)), outcome, capture_failures,
                on_result, on_failure,
            )
    except CallbackError as exc:
        raise exc.original from exc.original.__cause__
    return [outcome[i] for i in range(len(jobs))]
