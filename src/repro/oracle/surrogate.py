"""Surrogate response surfaces over exact sweep points.

A surface holds, per channel count, the exact-tier
:class:`~repro.analysis.sweep.SweepPoint`\\ s already computed for one
(level, workload, scale, budget, block size) context -- harvested from
the result cache -- and answers off-grid frequency queries by
interpolation.

The estimate interpolates access time linearly in ``1/f`` (access
time is close to ``cycles / f``, so it is near-linear in the period)
and power linearly in ``f``.  The *confidence interval* is the two
bracketing grid points' value range, ``[min, max]``.  That interval
holds only if access time is monotone in the clock *between* the grid
points, and the timing algebra does not guarantee it: every timing
parameter re-rounds through ``ceil(t_ns * f)``, so a slightly faster
clock can cost a whole extra cycle on some constraint and finish the
frame later (see :mod:`repro.regression.invariants`, frequency
monotonicity).  An off-grid answer can therefore fall outside its own
interval: ``h264_camcorder`` level 4 on 2 channels at 334.1 MHz
(``chunk_budget=20000``) simulates to 34.23 ms, above the 33.91 ms
the 333 MHz grid point gives as the interval's upper end.

Surfaces never extrapolate (a query outside the harvested frequency
range, or at a channel count with fewer than two distinct
frequencies, yields no estimate) and never cross channel counts --
channel scaling re-maps bank bits and is exactly the effect the paper
measures, so guessing across it would be fiction, not interpolation.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.realtime import (
    PAPER_MARGIN,
    RealTimeVerdict,
    realtime_verdict,
)
from repro.analysis.sweep import SweepPoint


@dataclass(frozen=True)
class SurrogateEstimate:
    """One interpolated query answer, with its confidence interval.

    ``error_bound`` is the relative half-width of the access-time
    interval around the estimate (the quantity the planner compares
    against the caller's accuracy budget); it is strictly positive --
    a surrogate answer never claims exactness.  ``verdict_certain``
    is ``True`` only when both interval endpoints classify to the same
    :class:`~repro.analysis.realtime.RealTimeVerdict`.
    """

    channels: int
    freq_mhz: float
    access_time_ms: float
    access_low_ms: float
    access_high_ms: float
    total_power_mw: float
    power_low_mw: float
    power_high_mw: float
    error_bound: float
    verdict: RealTimeVerdict
    verdict_certain: bool
    #: The bracketing grid frequencies the estimate interpolates.
    bracket_mhz: Tuple[float, float]


class SurrogateSurface:
    """Exact sweep points of one (level, workload) context, queryable.

    ``insert`` only ever receives exact-tier points (the oracle
    enforces bit-identical backends at harvest time); ``exact`` serves
    grid hits verbatim and ``estimate`` interpolates between them,
    reading each point's ``(access_time_ms, total_power_mw)`` as
    ``insert`` stored it.
    """

    def __init__(self) -> None:
        self._points: Dict[int, Dict[float, SweepPoint]] = {}
        self._values: Dict[int, Dict[float, Tuple[float, float]]] = {}
        self._freqs: Dict[int, List[float]] = {}

    def __len__(self) -> int:
        return sum(len(per) for per in self._points.values())

    def channels(self) -> List[int]:
        """Channel counts with at least one harvested point."""
        return sorted(self._points)

    def frequencies(self, channels: int) -> List[float]:
        """Sorted harvested frequencies for one channel count."""
        return list(self._freqs.get(channels, ()))

    def insert(self, point: SweepPoint) -> None:
        """Add (or replace) one exact point on the surface."""
        m = point.config.channels
        f = point.config.freq_mhz
        per = self._points.setdefault(m, {})
        if f not in per:
            insort(self._freqs.setdefault(m, []), f)
        per[f] = point
        self._values.setdefault(m, {})[f] = (
            point.access_time_ms,
            point.total_power_mw,
        )

    def exact(self, channels: int, freq_mhz: float) -> Optional[SweepPoint]:
        """The harvested point at exactly (channels, freq), if any."""
        return self._points.get(channels, {}).get(freq_mhz)

    def estimate(
        self,
        channels: int,
        freq_mhz: float,
        frame_period_ms: float,
        margin: float = PAPER_MARGIN,
    ) -> Optional[SurrogateEstimate]:
        """Interpolated answer at (channels, freq), or ``None``.

        ``None`` means the surface cannot answer: no data at this
        channel count, or ``freq_mhz`` outside the harvested range
        (surfaces never extrapolate).  A grid-exact frequency is
        served via :meth:`exact` by the oracle before estimation is
        attempted, so this method only sees strictly interior queries.
        """
        freqs = self._freqs.get(channels)
        if not freqs or len(freqs) < 2:
            return None
        if not freqs[0] < freq_mhz < freqs[-1]:
            return None
        hi_index = bisect_left(freqs, freq_mhz)
        f_lo, f_hi = freqs[hi_index - 1], freqs[hi_index]
        values = self._values[channels]
        access_lo, power_lo = values[f_lo]
        access_hi, power_hi = values[f_hi]

        # Access time ~ cycles / f: interpolate linearly in the period
        # u = 1/f, which is exact for that first-order law.
        u, u_lo, u_hi = 1.0 / freq_mhz, 1.0 / f_lo, 1.0 / f_hi
        w = (u - u_hi) / (u_lo - u_hi)
        access = access_hi + w * (access_lo - access_hi)
        access_low = min(access_lo, access_hi)
        access_high = max(access_lo, access_hi)
        # Linear interpolation always lands inside the bracket, but be
        # explicit: the interval is the contract, the estimate a guess.
        access = min(max(access, access_low), access_high)

        w_f = (freq_mhz - f_lo) / (f_hi - f_lo)
        power = power_lo + w_f * (power_hi - power_lo)
        power_low = min(power_lo, power_hi)
        power_high = max(power_lo, power_hi)
        power = min(max(power, power_low), power_high)

        if access > 0:
            error_bound = max(access_high - access, access - access_low) / access
        else:
            error_bound = float("inf")
        verdict = realtime_verdict(access, frame_period_ms, margin=margin)
        verdict_certain = (
            realtime_verdict(access_low, frame_period_ms, margin=margin)
            is realtime_verdict(access_high, frame_period_ms, margin=margin)
        )
        return SurrogateEstimate(
            channels=channels,
            freq_mhz=freq_mhz,
            access_time_ms=access,
            access_low_ms=access_low,
            access_high_ms=access_high,
            total_power_mw=power,
            power_low_mw=power_low,
            power_high_mw=power_high,
            error_bound=error_bound,
            verdict=verdict,
            verdict_certain=verdict_certain,
            bracket_mhz=(f_lo, f_hi),
        )
