"""Controlled fault injection for testing the resilience machinery.

Reliability code that is only exercised by real failures is reliability
code that has never been tested.  This module injects the three failure
classes the resilience subsystem claims to handle:

- **worker crash on the Nth job** (``mode="crash"``): the worker
  process hard-exits, killing its pool -- the transient failure
  :func:`repro.parallel.parallel_map` must retry with backoff;
- **worker hang on the Nth job** (``mode="stall"``): the worker sleeps
  forever at the injection site -- the hang the watchdog supervisor
  (:mod:`repro.resilience.supervisor`) must detect via the job's
  heartbeat, kill, and requeue or quarantine;
- **deterministic job failure** (``mode="raise"``): the job raises
  :class:`~repro.errors.SimulationError` -- the failure a sweep must
  capture as a :class:`~repro.resilience.report.JobFailure` instead of
  aborting;
- **torn cache write** (``mode="torn-write"``): the Nth
  :meth:`~repro.service.cache.ResultCache.put` call of one store
  instance leaves a truncated entry under the entry's own name and
  dies (:class:`TornWriteInjected`), modelling a process killed
  mid-write -- a later ``--resume`` must reject the torn entry and
  recompute only that point;
- **corrupted inputs**: :func:`corrupt_timing` skews one timing
  parameter (the invariant checker must flag the resulting illegal
  command stream) and :func:`malformed_runs` damages a request stream
  (the engine must reject it eagerly).

Fault plans cross the process boundary through an environment variable
(:data:`FAULT_PLAN_ENV`), because pool workers share the parent's
environment but not its module state.  One-shot plans (``once=True``,
the default for crashes) arm at most once across *all* processes via an
atomically created marker file -- without it, a deterministic crash
would re-fire on every pool retry and then take down the parent during
the in-process fallback.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace as _replace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError

#: Environment variable carrying the serialized fault plan to workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit code of an injected worker crash (aids post-mortem in CI logs).
CRASH_EXIT_CODE = 113

#: Nap length of an injected stall; the stall is unbounded, the nap
#: just keeps the hung worker from burning a CPU while it waits for
#: the watchdog's SIGKILL.
STALL_NAP_S = 0.05

_FAULT_MODES = ("crash", "raise", "stall", "torn-write")

#: Modes whose one-shot plans need a cross-process marker file: they
#: either kill the process that fired them (crash, stall -- the next
#: attempt runs in a fresh worker that only sees the marker) or must
#: fire exactly once across resumed runs (torn-write).
_MARKER_MODES = ("crash", "stall", "torn-write")


class TornWriteInjected(SimulationError):
    """The injected torn cache write fired.

    Models the process dying mid-write: the result cache is left with
    a truncated entry and the sweep is torn down.  The chaos harness
    treats it as the interruption to resume from.
    """


@dataclass(frozen=True)
class FaultPlan:
    """One armed fault: trigger ``mode`` at (``site``, ``index``).

    ``site`` names the injection point (the sweep runner uses
    ``"sweep"``); ``index`` is the job index to hit.  ``once`` plans
    need a ``marker_path`` in a writable directory; the marker file is
    created atomically by whichever process fires the fault first.
    """

    site: str
    index: int
    mode: str = "raise"
    once: bool = True
    marker_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in _FAULT_MODES:
            raise ConfigurationError(
                f"fault mode must be one of {_FAULT_MODES}, got {self.mode!r}"
            )
        if self.index < 0:
            raise ConfigurationError(f"fault index must be >= 0, got {self.index}")
        if self.once and self.mode in _MARKER_MODES and not self.marker_path:
            raise ConfigurationError(
                f"a one-shot {self.mode} plan needs a marker_path"
            )

    def to_json(self) -> str:
        """Serialize for the environment variable."""
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls(**json.loads(payload))


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for this process and all future worker processes."""
    os.environ[FAULT_PLAN_ENV] = plan.to_json()


def clear() -> None:
    """Disarm any installed fault plan."""
    os.environ.pop(FAULT_PLAN_ENV, None)


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: arm ``plan``, disarm on exit."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def _claim_marker(path: str) -> bool:
    """Atomically claim a one-shot marker; True iff we fired first."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _armed_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or ``None`` (one env lookup)."""
    payload = os.environ.get(FAULT_PLAN_ENV)
    if payload is None:
        return None
    try:
        return FaultPlan.from_json(payload)
    except (ValueError, TypeError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"unreadable fault plan in ${FAULT_PLAN_ENV}: {exc}"
        ) from exc


def maybe_inject(site: str, index: int) -> None:
    """Fire the armed fault if it targets (``site``, ``index``).

    Called from instrumented job entry points (for example
    :func:`repro.analysis.sweep._sweep_point_job`).  A single
    environment lookup when no plan is armed, so production sweeps pay
    nothing.  ``torn-write`` plans are inert here -- they target the
    result-cache writer, which consults :func:`maybe_torn_write`.
    """
    plan = _armed_plan()
    if plan is None or plan.mode == "torn-write":
        return
    if plan.site != site or plan.index != index:
        return
    if plan.once and plan.marker_path and not _claim_marker(plan.marker_path):
        return
    if plan.mode == "crash":
        # A hard exit, not an exception: this models the OOM killer /
        # segfault class of failure the pool reports as
        # BrokenProcessPool.  Flush nothing, run no handlers.
        os._exit(CRASH_EXIT_CODE)
    if plan.mode == "stall":
        # Hang forever (until the watchdog's SIGKILL): this models the
        # livelocked / deadlocked worker class of failure that never
        # reports back and never dies on its own.
        while True:
            time.sleep(STALL_NAP_S)
    raise SimulationError(
        f"injected fault at site {plan.site!r}, job index {plan.index}"
    )


def maybe_torn_write(site: str, index: int) -> bool:
    """Whether the armed ``torn-write`` fault targets this write.

    Consulted by :meth:`repro.service.cache.ResultCache.put` with
    ``index`` counting the puts of that store instance.  Returns
    ``True`` exactly when the write must be torn (the caller writes a
    truncated entry and raises :class:`TornWriteInjected`);
    one-shot plans claim their marker here so a resumed run is not
    torn again.
    """
    plan = _armed_plan()
    if plan is None or plan.mode != "torn-write":
        return False
    if plan.site != site or plan.index != index:
        return False
    if plan.once and plan.marker_path and not _claim_marker(plan.marker_path):
        return False
    return True


# ---------------------------------------------------------------------------
# Input corruption
# ---------------------------------------------------------------------------


def corrupt_timing(timing, field: str, delta_cycles: int):
    """Return ``timing`` with one cycle-count parameter skewed.

    Negative ``delta_cycles`` models the interesting corruption: a
    controller scheduling against a *smaller* tRCD/tRP/tRAS than the
    datasheet's issues commands early, which the protocol checker
    (deriving its constraints independently from the datasheet) must
    flag.  The result never goes below zero cycles.
    """
    try:
        current = getattr(timing, field)
    except AttributeError as exc:
        raise ConfigurationError(
            f"timing has no parameter {field!r}"
        ) from exc
    if not isinstance(current, int):
        raise ConfigurationError(
            f"timing parameter {field!r} is not a cycle count"
        )
    return _replace(timing, **{field: max(0, current + delta_cycles)})


def corrupt_engine_timing(engine, field: str, delta_cycles: int) -> None:
    """Skew one timing parameter of a built engine, in place.

    The engine schedules with the corrupted value while
    :meth:`~repro.controller.engine.ChannelEngine.make_checker` keeps
    deriving its reference constraints from the pristine datasheet --
    exactly the engine-bug scenario the runtime invariant checker
    exists to catch.
    """
    engine.timing = corrupt_timing(engine.timing, field, delta_cycles)


def malformed_runs(
    runs: Sequence[Tuple[int, int, int]], at: int
) -> List[Tuple[int, int, int]]:
    """Copy ``runs`` with the run at index ``at`` given an invalid op.

    Models a corrupted request stream; the engine's run validation
    must reject it with :class:`~repro.errors.ConfigurationError`
    before any state is touched.
    """
    if not 0 <= at < len(runs):
        raise ConfigurationError(
            f"malformed_runs index {at} outside [0, {len(runs)})"
        )
    damaged = list(runs)
    op, start, count = damaged[at][:3]
    damaged[at] = (7, start, count)
    return damaged
