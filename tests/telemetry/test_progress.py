"""Tests for sweep progress heartbeats."""

import io

import pytest

from repro.telemetry.progress import (
    CallbackProgressSink,
    NullProgressSink,
    ProgressEvent,
    StreamProgressSink,
    SweepProgress,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def collect(tracker_kwargs, actions):
    """Run a scripted tracker and return the emitted events."""
    events = []
    clock = tracker_kwargs.pop("clock", FakeClock())
    tracker = SweepProgress(
        CallbackProgressSink(events.append), clock=clock, **tracker_kwargs
    )
    actions(tracker, clock)
    return events


class TestProgressEvent:
    def test_fraction_and_finished(self):
        event = ProgressEvent(
            done=3, total=4, failed=0, stored=0, elapsed_s=1.0, eta_s=2.0
        )
        assert event.fraction == pytest.approx(0.75)
        assert not event.finished
        assert "3/4" in event.describe()
        assert "ETA" in event.describe()

    def test_finished_describe_reports_elapsed(self):
        event = ProgressEvent(
            done=4, total=4, failed=1, stored=2, elapsed_s=9.0, eta_s=None
        )
        assert event.finished
        text = event.describe()
        assert "done in 9.0 s" in text
        assert "1 failed" in text
        assert "2 stored" in text

    def test_zero_total_fraction(self):
        event = ProgressEvent(
            done=0, total=0, failed=0, stored=0, elapsed_s=0.0, eta_s=None
        )
        assert event.fraction == 1.0


class TestSweepProgress:
    def test_emits_one_event_per_point_and_final_summary(self):
        def actions(tracker, clock):
            clock.advance(1.0)
            tracker.point_done({"index": 0})
            clock.advance(1.0)
            tracker.point_done({"index": 1})
            tracker.finish(failed=1)

        events = collect(dict(total=3), actions)
        assert [e.done for e in events] == [1, 2, 3]
        assert events[-1].failed == 1
        assert events[-1].finished

    def test_eta_from_this_runs_rate(self):
        def actions(tracker, clock):
            clock.advance(2.0)
            tracker.point_done()

        events = collect(dict(total=4), actions)
        # 1 point in 2 s -> 3 remaining at 2 s/point = 6 s.
        assert events[0].eta_s == pytest.approx(6.0)

    def test_resumed_points_excluded_from_eta_rate(self):
        def actions(tracker, clock):
            clock.advance(2.0)
            tracker.point_done()

        events = collect(dict(total=10, stored=8), actions)
        # Warm-start announcement first, with no rate yet.
        assert events[0].done == 8
        assert events[0].eta_s is None
        # One *computed* point in 2 s -> 1 remaining -> 2 s, not the
        # absurd 9-points-in-0-s a store-inclusive rate would claim.
        assert events[1].eta_s == pytest.approx(2.0)

    def test_finish_skipped_when_last_point_already_reported(self):
        def actions(tracker, clock):
            tracker.point_done()
            tracker.finish(failed=0)

        events = collect(dict(total=1), actions)
        assert len(events) == 1
        assert events[0].finished

    def test_finish_emits_when_failures_close_the_sweep(self):
        def actions(tracker, clock):
            tracker.point_done()
            tracker.finish(failed=1)

        events = collect(dict(total=2), actions)
        assert [e.done for e in events] == [1, 2]
        assert events[-1].failed == 1


class TestStreamProgressSink:
    def make_event(self, done, total=10):
        return ProgressEvent(
            done=done, total=total, failed=0, stored=0, elapsed_s=1.0, eta_s=None
        )

    def test_rate_limits_intermediate_events(self):
        stream = io.StringIO()
        clock = FakeClock()
        sink = StreamProgressSink(stream, min_interval_s=1.0, clock=clock)
        sink.emit(self.make_event(1))
        clock.advance(0.2)
        sink.emit(self.make_event(2))  # suppressed: 0.2 s < 1.0 s
        clock.advance(1.0)
        sink.emit(self.make_event(3))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "1/10" in lines[0] and "3/10" in lines[1]

    def test_final_event_bypasses_rate_limit(self):
        stream = io.StringIO()
        clock = FakeClock()
        sink = StreamProgressSink(stream, min_interval_s=60.0, clock=clock)
        sink.emit(self.make_event(1))
        sink.emit(self.make_event(10))  # finished: always written
        assert len(stream.getvalue().splitlines()) == 2


class TestNullSink:
    def test_discards_everything(self):
        sink = NullProgressSink()
        sink.emit(
            ProgressEvent(
                done=1, total=2, failed=0, stored=0, elapsed_s=0.0, eta_s=None
            )
        )  # must simply not raise
