"""Sweep progress heartbeats through pluggable sinks.

A long Fig. 3/4/5 campaign used to be silent until it returned;
:func:`repro.analysis.sweep.sweep_use_case` now drives a
:class:`SweepProgress` tracker that emits a :class:`ProgressEvent`
through whatever :class:`ProgressSink` the caller plugs in -- the CLI
plugs a rate-limited :class:`StreamProgressSink` on stderr
(``--progress``), tests plug a :class:`CallbackProgressSink`, and the
default :class:`NullProgressSink` keeps the library silent.

The ETA is estimated from the points computed *this run* (points
served from the result store are excluded from the rate, or a warm
resume would promise an absurdly optimistic finish).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, TextIO


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat of a running sweep."""

    #: Points finished so far (stored + computed + failed).
    done: int
    #: Points the sweep was asked for.
    total: int
    #: Points that failed in this run (graceful degradation).
    failed: int
    #: Points served from the result store (stored points and, on a
    #: resume, restored quarantines) rather than computed.
    stored: int
    #: Wall-clock since the sweep started, seconds.
    elapsed_s: float
    #: Estimated seconds to completion (``None`` until the first point
    #: computed this run establishes a rate).
    eta_s: Optional[float]
    #: Sweep coordinates of the point that triggered this event, when
    #: known (empty for the final summary event).
    coords: Mapping[str, Any] = field(default_factory=dict)

    @property
    def fraction(self) -> float:
        """Completed fraction in [0, 1]."""
        return self.done / self.total if self.total else 1.0

    @property
    def finished(self) -> bool:
        """Whether every requested point has been accounted for."""
        return self.done >= self.total

    def describe(self) -> str:
        """One-line human-readable heartbeat."""
        parts = [f"sweep {self.done}/{self.total} ({self.fraction * 100:.0f} %)"]
        if self.stored:
            parts.append(f"{self.stored} stored")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.eta_s is not None and not self.finished:
            parts.append(f"ETA {self.eta_s:.0f} s")
        elif self.finished:
            parts.append(f"done in {self.elapsed_s:.1f} s")
        return ", ".join(parts)


class ProgressSink:
    """Receives sweep heartbeats; subclass and override :meth:`emit`."""

    def emit(self, event: ProgressEvent) -> None:
        """Handle one heartbeat (default: drop it)."""


class NullProgressSink(ProgressSink):
    """Discards every event (the library default)."""


class CallbackProgressSink(ProgressSink):
    """Forwards every event to a callable (tests, custom UIs)."""

    def __init__(self, callback: Callable[[ProgressEvent], None]) -> None:
        self._callback = callback

    def emit(self, event: ProgressEvent) -> None:
        self._callback(event)


class StreamProgressSink(ProgressSink):
    """Writes one-line heartbeats to a text stream, rate-limited.

    ``min_interval_s`` suppresses events arriving faster than the
    limit -- a 2000-point sweep at 50 points/s should not print 2000
    lines -- except that the final (``finished``) event is always
    written.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._stream = stream
        self._min_interval_s = min_interval_s
        self._clock = clock
        self._last_emit: Optional[float] = None

    def emit(self, event: ProgressEvent) -> None:
        now = self._clock()
        if (
            not event.finished
            and self._last_emit is not None
            and now - self._last_emit < self._min_interval_s
        ):
            return
        self._last_emit = now
        stream = self._stream if self._stream is not None else sys.stderr
        print(event.describe(), file=stream, flush=True)


class SweepProgress:
    """Tracks a running sweep and feeds heartbeats to a sink.

    Driven by :func:`repro.analysis.sweep.sweep_use_case`: seeded with
    the ``stored`` points the result store served (positive entries
    and restored quarantines alike), then one :meth:`point_done` per
    computed point (in completion order) and a single :meth:`finish`
    once this run's failure count is known.
    """

    def __init__(
        self,
        sink: ProgressSink,
        total: int,
        stored: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._sink = sink
        self._total = total
        self._stored = stored
        self._clock = clock
        self._start = clock()
        self._done = stored
        self._failed = 0
        if stored:
            # Announce the warm start before any new work lands.
            self._sink.emit(self._event())

    def _event(self, coords: Optional[Mapping[str, Any]] = None) -> ProgressEvent:
        elapsed = self._clock() - self._start
        computed = self._done - self._stored
        remaining = self._total - self._done
        eta = elapsed / computed * remaining if computed > 0 else None
        return ProgressEvent(
            done=self._done,
            total=self._total,
            failed=self._failed,
            stored=self._stored,
            elapsed_s=elapsed,
            eta_s=eta,
            coords=dict(coords) if coords else {},
        )

    def point_done(self, coords: Optional[Mapping[str, Any]] = None) -> None:
        """Record one successfully computed point and emit a heartbeat."""
        self._done += 1
        self._sink.emit(self._event(coords))

    def finish(self, failed: int = 0) -> None:
        """Record the failures computed in this run and emit the
        summary event.  Restored quarantines were already counted as
        stored, so they must not be passed here again.

        Skipped when the last :meth:`point_done` already reported the
        complete, failure-free sweep -- the summary would duplicate it.
        """
        already_reported = self._done >= self._total and failed == 0
        self._failed = failed
        self._done = min(self._total, self._done + failed)
        if not already_reported:
            self._sink.emit(self._event())
