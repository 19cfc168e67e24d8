"""Phase-scoped wall-clock profiling.

:class:`PhaseProfiler` attributes wall-clock to named phases of the
simulation pipeline -- the :func:`repro.analysis.sweep.simulate_use_case`
stack records ``load.build``, ``load.scale``, ``load.generate``,
``system.interleave``, ``system.engine`` and ``power.integrate`` --
and renders the totals as a :class:`ProfileReport`.

Phases are *accumulated*: simulating forty sweep points through one
profiler yields the aggregate phase breakdown of the whole campaign,
which is exactly what ``repro-sim profile <figure>`` prints.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Tuple


@dataclass(frozen=True)
class PhaseStat:
    """Accumulated wall-clock of one named phase."""

    name: str
    seconds: float
    calls: int


class _NullPhase:
    """Reusable no-op context manager (the disabled profiler's phase)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_PHASE = _NullPhase()


class PhaseProfiler:
    """Accumulates wall-clock per named phase (insertion-ordered)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            self.add(name, self._clock() - start)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold an externally measured duration into ``name``.

        Used where the timed work happened somewhere a context manager
        cannot wrap -- e.g. engine seconds measured inside pool
        workers and shipped back with the results.
        """
        self._seconds[name] = self._seconds.get(name, 0.0) + max(0.0, seconds)
        self._calls[name] = self._calls.get(name, 0) + calls

    def report(self) -> "ProfileReport":
        """Snapshot the accumulated phases."""
        return ProfileReport(
            phases=tuple(
                PhaseStat(name=name, seconds=secs, calls=self._calls[name])
                for name, secs in self._seconds.items()
            )
        )


class NullProfiler(PhaseProfiler):
    """A profiler whose phases cost (almost) nothing and record nothing."""

    def __init__(self) -> None:
        super().__init__()

    def phase(self, name: str) -> _NullPhase:  # type: ignore[override]
        return _NULL_PHASE

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        pass


#: Shared disabled profiler; callers thread this instead of branching
#: on ``telemetry is None`` at every phase boundary.
NULL_PROFILER = NullProfiler()


@dataclass(frozen=True)
class ProfileReport:
    """The phase breakdown of one (or many aggregated) simulations."""

    phases: Tuple[PhaseStat, ...]

    @property
    def total_s(self) -> float:
        """Sum of all phase durations (phases may overlap; see module
        docstring)."""
        return sum(p.seconds for p in self.phases)

    def seconds(self, name: str) -> float:
        """Accumulated wall-clock of one phase (0.0 when absent)."""
        for p in self.phases:
            if p.name == name:
                return p.seconds
        return 0.0

    def share(self, name: str) -> float:
        """Fraction of :attr:`total_s` spent in ``name``."""
        total = self.total_s
        return self.seconds(name) / total if total > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Export-schema projection (see :mod:`repro.telemetry.export`)."""
        total = self.total_s
        return {
            "total_s": total,
            "phases": [
                {
                    "name": p.name,
                    "seconds": p.seconds,
                    "calls": p.calls,
                    "share": (p.seconds / total) if total > 0 else 0.0,
                }
                for p in self.phases
            ],
        }

    def format(self) -> str:
        """ASCII rendition: one row per phase, slowest first."""
        if not self.phases:
            return "(no phases recorded)"
        total = self.total_s
        rows: List[Tuple[str, str, str, str]] = [
            ("phase", "seconds", "share", "calls")
        ]
        for p in sorted(self.phases, key=lambda s: s.seconds, reverse=True):
            share = (p.seconds / total * 100.0) if total > 0 else 0.0
            rows.append(
                (p.name, f"{p.seconds:.4f}", f"{share:5.1f} %", str(p.calls))
            )
        rows.append(("total", f"{total:.4f}", "100.0 %", ""))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = []
        for i, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)
