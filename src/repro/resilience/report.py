"""Structured failure records and the graceful-degradation sweep report.

A hundred-point sweep should not discard ninety-nine good results
because one point crashed.  :class:`JobFailure` captures everything a
post-mortem needs about one failed job -- exception type, message, the
worker-side traceback rendered to a string, and (for sweeps) the sweep
coordinates of the point -- and :class:`SweepReport` carries the
successful points *and* the failures side by side.

``SweepReport`` is a :class:`~collections.abc.Sequence` over the
successful points, so every existing caller that iterates, indexes or
``len()``s a sweep result keeps working unchanged; the failure records
ride along in :attr:`SweepReport.failures`.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

#: The mapped function raised -- the classic deterministic failure.
FAILURE_KIND_ERROR = "error"
#: The job hung past its watchdog deadline on every permitted attempt.
FAILURE_KIND_TIMEOUT = "timeout"
#: The job exhausted its transient-failure budget (e.g. the worker
#: running it died on every attempt) and was written off.
FAILURE_KIND_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class JobFailure:
    """One job that failed deterministically (the mapped function raised).

    ``coords`` is empty for plain :func:`~repro.parallel.parallel_map`
    jobs; the sweep runners fill it with the point's sweep coordinates
    (level name, channel count, clock, ...).

    ``kind`` distinguishes how the job was written off:
    :data:`FAILURE_KIND_ERROR` (the function raised),
    :data:`FAILURE_KIND_TIMEOUT` (hung past its deadline until
    quarantined) and :data:`FAILURE_KIND_QUARANTINED` (repeatedly took
    its worker down until quarantined).  Timeout/quarantine records are
    stored in the result cache as negative entries, so a ``--resume``
    does not re-hang on the same point.
    """

    #: Position of the job in the submitted sequence.
    index: int
    #: ``repr`` of the job item, truncated for report hygiene.
    item: str
    #: Exception class name (the class itself may not import cleanly
    #: in the parent process).
    error_type: str
    #: ``str(exception)``.
    message: str
    #: Full traceback rendered to a string.  For pooled jobs this
    #: includes the worker-side remote traceback.
    traceback: str
    #: Sweep coordinates of the failed point, when known.
    coords: Mapping[str, Any] = field(default_factory=dict)
    #: Failure class: one of :data:`FAILURE_KIND_ERROR`,
    #: :data:`FAILURE_KIND_TIMEOUT`, :data:`FAILURE_KIND_QUARANTINED`.
    kind: str = FAILURE_KIND_ERROR

    @property
    def quarantined(self) -> bool:
        """Whether this job was written off by the supervisor (and must
        not be re-attempted on resume)."""
        return self.kind != FAILURE_KIND_ERROR

    @classmethod
    def from_quarantine(
        cls,
        index: int,
        item: Any,
        kind: str,
        message: str,
        error_type: str = "JobTimeoutError",
    ) -> "JobFailure":
        """Build a quarantine record for a job the supervisor wrote off.

        There is no worker-side traceback: the worker was either killed
        by the watchdog mid-hang or died before it could report.
        """
        item_repr = repr(item)
        if len(item_repr) > 200:
            item_repr = item_repr[:197] + "..."
        return cls(
            index=index,
            item=item_repr,
            error_type=error_type,
            message=message,
            traceback="",
            kind=kind,
        )

    @classmethod
    def from_exception(
        cls, index: int, item: Any, exc: BaseException
    ) -> "JobFailure":
        """Build a failure record from a raised exception."""
        rendered = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        item_repr = repr(item)
        if len(item_repr) > 200:
            item_repr = item_repr[:197] + "..."
        return cls(
            index=index,
            item=item_repr,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=rendered,
        )

    def with_coords(self, coords: Mapping[str, Any]) -> "JobFailure":
        """Copy with sweep coordinates attached."""
        return replace(self, coords=dict(coords))

    def describe(self) -> str:
        """One-line human-readable summary."""
        where = (
            ", ".join(f"{k}={v}" for k, v in self.coords.items())
            if self.coords
            else f"job {self.index}"
        )
        tag = "" if self.kind == FAILURE_KIND_ERROR else f" ({self.kind})"
        return f"[{where}]{tag} {self.error_type}: {self.message}"


class SweepReport(Sequence):
    """Outcome of a sweep under graceful degradation.

    Sequence semantics cover the *successful* points in sweep order,
    which is exactly what the pre-resilience ``List[SweepPoint]``
    return value exposed; the per-point failure records are available
    through :attr:`failures`.
    """

    def __init__(
        self,
        points: Sequence[Any],
        failures: Sequence[JobFailure] = (),
        total: Optional[int] = None,
        resumed: int = 0,
        cached: int = 0,
    ) -> None:
        self.points: List[Any] = list(points)
        self.failures: List[JobFailure] = list(failures)
        #: Number of points the sweep was asked for.
        self.total: int = (
            total if total is not None else len(self.points) + len(self.failures)
        )
        #: How many quarantined points a resumed sweep served from the
        #: result cache as their recorded failures.
        self.resumed: int = resumed
        #: How many points were served from the content-addressed
        #: result cache (see :mod:`repro.service.cache`) rather than
        #: recomputed.
        self.cached: int = cached

    # -- Sequence over the successful points ---------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: Union[int, slice]) -> Any:
        return self.points[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepReport({len(self.points)}/{self.total} points, "
            f"{len(self.failures)} failure(s), {self.resumed} resumed)"
        )

    # -- outcome accessors ---------------------------------------------

    @property
    def ok(self) -> bool:
        """True when every requested point completed."""
        return not self.failures and len(self.points) == self.total

    def summary(self) -> str:
        """One-line completion summary for logs and reports."""
        parts = [f"{len(self.points)}/{self.total} points completed"]
        if self.cached:
            parts.append(f"{self.cached} served from cache")
        if self.resumed:
            parts.append(f"{self.resumed} quarantine(s) restored from cache")
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        return ", ".join(parts)

    def format_failures(self) -> str:
        """Human-readable failure list (empty string when clean)."""
        return "\n".join(f.describe() for f in self.failures)
