"""End-to-end telemetry: threading through the simulation stack.

The two contracts under test:

1. *Completeness*: an enabled session threaded through a real (tiny)
   Fig. 3 point collects the documented phases and metrics, and the
   exported payload round-trips schema-valid.
2. *Transparency*: telemetry on, off or absent produces bit-identical
   ``SimulationResult``\\ s -- observation must never perturb the
   simulation.
"""

import json

import pytest

from repro.analysis.sweep import point_key, simulate_use_case, sweep_use_case
from repro.core.config import SystemConfig
from repro.resilience.report import FAILURE_KIND_TIMEOUT, JobFailure
from repro.service.cache import ResultCache
from repro.telemetry import (
    CallbackProgressSink,
    Telemetry,
    validate_metrics,
    write_metrics,
)
from repro.usecase.levels import level_by_name

#: Tiny but real Fig. 3 point: 720p30 on 2 channels, 1 % of a frame.
LEVEL = level_by_name("3.1")
CONFIG = SystemConfig(channels=2, freq_mhz=400.0)
SCALE = 0.01


def plant_quarantine(cache_dir, config):
    """Store a negative entry for (LEVEL, ``config``), as a sweep that
    quarantined the point would have."""
    ResultCache(cache_dir).put(
        point_key(LEVEL, config, scale=SCALE),
        JobFailure.from_quarantine(
            0, "job", FAILURE_KIND_TIMEOUT, "hung past its deadline"
        ),
    )


class TestPointTelemetry:
    def test_phases_and_metrics_collected(self):
        telemetry = Telemetry.enabled()
        point = simulate_use_case(LEVEL, CONFIG, scale=SCALE, telemetry=telemetry)
        report = telemetry.profile_report()
        recorded = {stat.name for stat in report.phases}
        assert {
            "load.build",
            "load.scale",
            "load.generate",
            "system.interleave",
            "system.engine",
            "power.integrate",
        } <= recorded
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["sim.points"] == 1
        assert counters["system.runs"] == 1
        assert counters["system.transactions"] > 0
        assert counters["engine.reads"] > 0
        # The counter mirrors the result's own statistics exactly.
        assert counters["engine.row_hits"] == point.result.row_hits
        assert counters["engine.bank_conflicts"] == point.result.bank_conflicts
        hist = telemetry.registry.as_dict()["histograms"]
        assert hist["system.channel_finish_cycles"]["count"] == CONFIG.channels

    def test_golden_metrics_export_round_trip(self, tmp_path):
        """The --metrics-out document for one tiny Fig. 3 point carries
        every documented key and survives a JSON round trip."""
        telemetry = Telemetry.enabled()
        simulate_use_case(LEVEL, CONFIG, scale=SCALE, telemetry=telemetry)
        path = tmp_path / "metrics.json"
        payload = write_metrics(path, "fig3", telemetry)
        assert validate_metrics(payload) == []
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == payload
        # Golden key set: the documented schema, nothing missing.
        assert set(loaded) == {
            "schema",
            "command",
            "generated_by",
            "counters",
            "gauges",
            "timers",
            "histograms",
            "profile",
        }
        for name in (
            "engine.row_hits",
            "engine.row_misses",
            "engine.bank_conflicts",
            "engine.queue_stalls",
            "engine.power_state_transitions",
            "system.runs",
            "system.transactions",
            "system.chunks_queued",
            "sim.points",
        ):
            assert name in loaded["counters"], name
        phase_names = {p["name"] for p in loaded["profile"]["phases"]}
        assert "system.engine" in phase_names

    def test_results_bit_identical_with_and_without_telemetry(self):
        untapped = simulate_use_case(LEVEL, CONFIG, scale=SCALE)
        enabled = simulate_use_case(
            LEVEL, CONFIG, scale=SCALE, telemetry=Telemetry.enabled()
        )
        disabled = simulate_use_case(
            LEVEL, CONFIG, scale=SCALE, telemetry=Telemetry.disabled()
        )
        # ChannelResult is a plain dataclass: == compares every field,
        # including counters, state residencies and the new stall /
        # conflict statistics.
        assert untapped.result.channels == enabled.result.channels
        assert untapped.result.channels == disabled.result.channels
        assert untapped.power == enabled.power == disabled.power
        assert untapped.verdict == enabled.verdict == disabled.verdict


class TestSweepTelemetry:
    def test_sweep_counters_and_heartbeats(self):
        telemetry = Telemetry.enabled()
        events = []
        report = sweep_use_case(
            [LEVEL],
            [CONFIG, CONFIG.with_frequency(200.0)],
            scale=SCALE,
            telemetry=telemetry,
            progress=CallbackProgressSink(events.append),
        )
        assert len(report) == 2
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["sweep.points_total"] == 2
        assert counters["sweep.points_completed"] == 2
        assert counters["sweep.points_failed"] == 0
        assert counters["sim.points"] == 2  # in-process: per-point taps land
        assert telemetry.registry.as_dict()["timers"]["sweep.run"]["calls"] == 1
        # One heartbeat per point; the last one closed the sweep.
        assert [e.done for e in events] == [1, 2]
        assert events[-1].finished
        assert events[0].coords["level"] == LEVEL.name

    def test_sweep_resume_reports_resumed_points(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plant_quarantine(cache_dir, CONFIG)
        telemetry = Telemetry.enabled()
        events = []
        sweep_use_case(
            [LEVEL],
            [CONFIG],
            scale=SCALE,
            cache=cache_dir,
            resume=True,
            strict=False,
            telemetry=telemetry,
            progress=CallbackProgressSink(events.append),
        )
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["sweep.points_resumed"] == 1
        assert counters["sweep.points_completed"] == 0
        # Warm-start announcement: everything already accounted for.
        assert events[0].stored == 1
        assert events[0].finished

    def test_first_interval_excludes_resume_scan_and_setup(
        self, tmp_path, monkeypatch
    ):
        # The first ``sweep.point_interval_seconds`` sample must
        # measure point throughput from dispatch start, not absorb the
        # store lookups or pool setup done before dispatch.
        # Fake clock: frozen except where the wrappers below advance
        # it, so any pre-dispatch second billed to a point is visible.
        import time as time_module

        from repro.analysis import sweep as sweep_module

        cache_dir = tmp_path / "cache"
        sweep_use_case(
            [LEVEL],
            [CONFIG, CONFIG.with_frequency(200.0)],
            scale=SCALE,
            cache=cache_dir,
        )
        # Drop one point so the resumed sweep still computes work (a
        # fully warm sweep records no interval samples at all).
        ResultCache(cache_dir).entry_path(
            point_key(LEVEL, CONFIG.with_frequency(200.0), scale=SCALE)
        ).unlink()

        clock = [1000.0]
        monkeypatch.setattr(time_module, "monotonic", lambda: clock[0])

        real_get = ResultCache.get

        def slow_get(self, key, serves=None):
            clock[0] += 100.0  # pretend each store lookup took 100 s
            return real_get(self, key, serves)

        monkeypatch.setattr(ResultCache, "get", slow_get)

        real_resolve = sweep_module.resolve_workers

        def slow_setup(*args, **kwargs):
            clock[0] += 50.0  # pretend pre-dispatch setup took 50 s
            return real_resolve(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "resolve_workers", slow_setup)

        telemetry = Telemetry.enabled()
        sweep_use_case(
            [LEVEL],
            [CONFIG, CONFIG.with_frequency(200.0)],
            scale=SCALE,
            cache=cache_dir,
            telemetry=telemetry,
        )
        stats = telemetry.registry.as_dict()
        assert stats["counters"]["sweep.points_cached"] == 1
        intervals = stats["histograms"]["sweep.point_interval_seconds"]
        assert intervals["count"] == 1
        assert intervals["max"] < 50.0

    def test_sweep_results_bit_identical_with_telemetry(self):
        plain = sweep_use_case([LEVEL], [CONFIG], scale=SCALE)
        tapped = sweep_use_case(
            [LEVEL], [CONFIG], scale=SCALE, telemetry=Telemetry.enabled()
        )
        assert plain[0].result.channels == tapped[0].result.channels
        assert plain[0].power == tapped[0].power


class TestProgressFromStore:
    """Points served from the store count as done from the first
    heartbeat, and restored quarantines are not counted twice."""

    CONFIGS = [CONFIG, CONFIG.with_frequency(200.0)]

    def sweep(self, cache_dir, **kwargs):
        events = []
        report = sweep_use_case(
            [LEVEL],
            self.CONFIGS,
            scale=SCALE,
            cache=cache_dir,
            progress=CallbackProgressSink(events.append),
            **kwargs,
        )
        return report, events

    def test_warm_sweep_reports_every_point_done(self, tmp_path):
        cache_dir = tmp_path / "cache"
        self.sweep(cache_dir)
        report, events = self.sweep(cache_dir)
        assert report.summary() == "2/2 points completed, 2 served from cache"
        assert [(e.done, e.total) for e in events] == [(2, 2)]
        assert events[0].finished
        assert events[0].stored == 2
        assert events[0].describe().startswith("sweep 2/2 (100 %), 2 stored")

    def test_half_warm_sweep_starts_from_the_stored_point(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep_use_case([LEVEL], [CONFIG], scale=SCALE, cache=cache_dir)
        report, events = self.sweep(cache_dir)
        assert report.cached == 1 and report.ok
        assert [e.done for e in events] == [1, 2]
        assert not events[0].finished
        assert events[-1].finished
        assert [e.stored for e in events] == [1, 1]

    def test_resumed_quarantine_counted_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep_use_case([LEVEL], [CONFIG], scale=SCALE, cache=cache_dir)
        plant_quarantine(cache_dir, self.CONFIGS[1])
        report, events = self.sweep(cache_dir, resume=True, strict=False)
        assert report.cached == 1
        assert report.resumed == 1
        assert len(report.failures) == 1
        # One warm-start event closes the sweep: the restored failure
        # is not added again when the sweep finishes.
        assert [(e.done, e.failed) for e in events] == [(2, 0)]
        assert events[0].finished
        assert events[0].stored == 2
