"""Tests for surrogate surfaces (:mod:`repro.oracle.surrogate`)."""

import pytest

from repro.analysis.realtime import RealTimeVerdict
from repro.core.config import SystemConfig
from repro.oracle.surrogate import SurrogateSurface


class _Point:
    """Duck-typed stand-in for a SweepPoint (the surface only reads
    config/access/power)."""

    def __init__(self, channels, freq_mhz, access_time_ms, total_power_mw):
        self.config = SystemConfig(channels=channels, freq_mhz=freq_mhz)
        self.access_time_ms = access_time_ms
        self.total_power_mw = total_power_mw


def _surface(points):
    surface = SurrogateSurface()
    for point in points:
        surface.insert(point)
    return surface


class TestStorage:
    def test_insert_exact_roundtrip(self):
        point = _Point(2, 400.0, 10.0, 150.0)
        surface = _surface([point])
        assert len(surface) == 1
        assert surface.channels() == [2]
        assert surface.frequencies(2) == [400.0]
        assert surface.exact(2, 400.0) is point
        assert surface.exact(2, 333.0) is None
        assert surface.exact(4, 400.0) is None

    def test_reinsert_replaces(self):
        surface = _surface([_Point(2, 400.0, 10.0, 150.0)])
        newer = _Point(2, 400.0, 11.0, 151.0)
        surface.insert(newer)
        assert len(surface) == 1
        assert surface.exact(2, 400.0) is newer

    def test_reinsert_updates_what_estimate_reads(self):
        surface = _surface(
            [_Point(2, 200.0, 20.0, 100.0), _Point(2, 400.0, 10.0, 150.0)]
        )
        surface.insert(_Point(2, 400.0, 12.0, 160.0))
        est = surface.estimate(2, 300.0, frame_period_ms=66.7)
        assert (est.access_low_ms, est.access_high_ms) == (12.0, 20.0)
        assert (est.power_low_mw, est.power_high_mw) == (100.0, 160.0)


class TestInterpolation:
    def test_inverse_frequency_law_is_interpolated_exactly(self):
        # For access = k / f the 1/f interpolation is exact, not
        # approximate: the estimate at any interior frequency must
        # reproduce the law.
        k = 8000.0
        surface = _surface(
            [_Point(2, f, k / f, 100.0 + f / 10.0) for f in (200.0, 400.0)]
        )
        est = surface.estimate(2, 320.0, frame_period_ms=66.7)
        assert est is not None
        assert est.access_time_ms == pytest.approx(k / 320.0, rel=1e-12)
        assert est.bracket_mhz == (200.0, 400.0)

    def test_interval_brackets_and_bound_is_positive(self):
        surface = _surface(
            [
                _Point(2, 266.0, 20.0, 140.0),
                _Point(2, 333.0, 16.0, 150.0),
            ]
        )
        est = surface.estimate(2, 300.0, frame_period_ms=66.7)
        assert est.access_low_ms == 16.0
        assert est.access_high_ms == 20.0
        assert est.access_low_ms <= est.access_time_ms <= est.access_high_ms
        assert est.power_low_mw <= est.total_power_mw <= est.power_high_mw
        # Never masquerades as exact: a surrogate answer always admits
        # a strictly positive error bound.
        assert est.error_bound > 0.0

    def test_nearest_bracket_used(self):
        surface = _surface(
            [_Point(1, f, 6400.0 / f, 100.0) for f in (200.0, 266.0, 333.0, 400.0)]
        )
        est = surface.estimate(1, 300.0, frame_period_ms=33.3)
        assert est.bracket_mhz == (266.0, 333.0)

    def test_verdict_certain_when_both_endpoints_agree(self):
        surface = _surface(
            [_Point(2, 200.0, 20.0, 100.0), _Point(2, 400.0, 10.0, 120.0)]
        )
        est = surface.estimate(2, 300.0, frame_period_ms=100.0)
        assert est.verdict is RealTimeVerdict.PASS
        assert est.verdict_certain

    def test_verdict_uncertain_when_interval_straddles_boundary(self):
        # [20, 40] around a 33.3 ms period: one endpoint passes, the
        # other fails -- the estimate must say so.
        surface = _surface(
            [_Point(2, 200.0, 40.0, 100.0), _Point(2, 400.0, 20.0, 120.0)]
        )
        est = surface.estimate(2, 300.0, frame_period_ms=33.3)
        assert not est.verdict_certain


class TestNoGuessing:
    def test_no_extrapolation_below_range(self):
        surface = _surface(
            [_Point(2, 266.0, 20.0, 140.0), _Point(2, 333.0, 16.0, 150.0)]
        )
        assert surface.estimate(2, 200.0, frame_period_ms=33.3) is None
        assert surface.estimate(2, 400.0, frame_period_ms=33.3) is None

    def test_single_point_cannot_interpolate(self):
        surface = _surface([_Point(2, 266.0, 20.0, 140.0)])
        assert surface.estimate(2, 300.0, frame_period_ms=33.3) is None

    def test_never_crosses_channel_counts(self):
        # Plenty of 2-channel data must not answer a 4-channel query:
        # channel scaling is the effect under study, not noise.
        surface = _surface(
            [_Point(2, f, 6400.0 / f, 100.0) for f in (200.0, 400.0)]
        )
        assert surface.estimate(4, 300.0, frame_period_ms=33.3) is None

    def test_nonmonotone_data_still_bracketed(self):
        # If the stored data is locally non-monotone the interval
        # falls back to [min, max] of the bracket -- the CI contract
        # never relies on monotonicity.
        surface = _surface(
            [_Point(2, 266.0, 16.0, 140.0), _Point(2, 333.0, 20.0, 150.0)]
        )
        est = surface.estimate(2, 300.0, frame_period_ms=66.7)
        assert est.access_low_ms == 16.0
        assert est.access_high_ms == 20.0
        assert est.access_low_ms <= est.access_time_ms <= est.access_high_ms
