"""Watchdog supervision: deadlines, hang detection, quarantine.

The contract under test (docs/architecture.md, "Supervision & chaos"):
a supervised job that hangs past its wall-clock deadline has its
worker killed and is requeued; a job that hangs (or kills its worker)
on every permitted attempt is quarantined instead of stalling the map
forever; every other job is unaffected and the sweep's ERR-cell /
``strict=`` semantics fold quarantines in like any other failure.
"""

import os
import time

import pytest

from repro.analysis.sweep import sweep_use_case
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError, JobTimeoutError, WorkerError
from repro.parallel import parallel_map, pool_supported
from repro.resilience.faults import CRASH_EXIT_CODE, FaultPlan, injected
from repro.resilience.report import (
    FAILURE_KIND_QUARANTINED,
    FAILURE_KIND_TIMEOUT,
    JobFailure,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import Watchdog
from repro.telemetry.session import Telemetry
from repro.usecase.levels import level_by_name

needs_pool = pytest.mark.skipif(
    not pool_supported(), reason="process pool unavailable on this platform"
)

BUDGET = 2000
LEVEL = level_by_name("3.1")
CONFIGS = [SystemConfig(channels=m) for m in (1, 2, 4)]

#: Deadline used by the map-level tests; short for fast tests, long
#: enough that an honest job (a multiplication) can never trip it.
DEADLINE_S = 0.6

#: Generous wall-clock ceiling: even a loaded CI machine must resolve
#: a permanent hang within the strike budget's worth of deadlines.
BOUNDED_S = 60.0


def _square(x):
    return x * x


def _hang_on_three(x):
    """Permanent hang on job value 3; instant everywhere else."""
    if x == 3:
        while True:
            time.sleep(0.05)
    return x * x


def _hang_once(arg):
    """Hang on the first attempt only (marker claimed before hanging)."""
    value, sentinel, marker = arg
    if value == sentinel and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        while True:
            time.sleep(0.05)
    return value * value


def _crash_on_two(x):
    """Kill the worker on job value 2, after letting innocents finish."""
    if x == 2:
        time.sleep(0.3)
        os._exit(CRASH_EXIT_CODE)
    return x * x


class TestWatchdogPolicy:
    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_timeout_must_be_positive(self, bad):
        with pytest.raises(ConfigurationError, match="timeout_s"):
            Watchdog(bad)

    def test_strikes_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="max_strikes"):
            Watchdog(1.0, max_strikes=0)

    def test_poll_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="poll_interval_s"):
            Watchdog(1.0, poll_interval_s=0)

    def test_strike_budget_defaults_to_retry_attempts(self):
        retry = RetryPolicy(max_attempts=5)
        assert Watchdog(1.0).strike_budget(retry) == 5
        assert Watchdog(1.0, max_strikes=2).strike_budget(retry) == 2

    def test_poll_interval_tracks_short_deadlines(self):
        # A 0.1 s deadline polled every 50 ms would overshoot by half
        # the budget; the cadence tightens to a quarter deadline.
        assert Watchdog(0.1).poll_interval_s == pytest.approx(0.025)

    def test_conflicting_timeout_and_watchdog_rejected(self):
        with pytest.raises(ConfigurationError, match="not conflicting both"):
            parallel_map(
                _square, [1], timeout_s=1.0, watchdog=Watchdog(2.0)
            )

    def test_matching_timeout_and_watchdog_accepted(self):
        dog = Watchdog(30.0)
        assert parallel_map(
            _square, [2], workers=1, timeout_s=30.0, watchdog=dog
        ) == [4]


@needs_pool
class TestHangDetection:
    def test_permanent_hang_is_quarantined_not_fatal(self):
        start = time.monotonic()
        out = parallel_map(
            _hang_on_three,
            range(6),
            workers=2,
            timeout_s=DEADLINE_S,
            capture_failures=True,
        )
        elapsed = time.monotonic() - start
        assert elapsed < BOUNDED_S
        failure = out[3]
        assert isinstance(failure, JobFailure)
        assert failure.kind == FAILURE_KIND_TIMEOUT
        assert failure.quarantined
        assert failure.error_type == "JobTimeoutError"
        # Every other job is untouched.
        assert [out[i] for i in (0, 1, 2, 4, 5)] == [0, 1, 4, 16, 25]

    def test_permanent_hang_raises_without_capture(self):
        with pytest.raises(JobTimeoutError, match="quarantined"):
            parallel_map(
                _hang_on_three, range(6), workers=2, timeout_s=DEADLINE_S
            )

    def test_transient_hang_recovers_without_quarantine(self, tmp_path):
        # The job hangs exactly once (the marker claims the hang); the
        # watchdog kill plus requeue must recover the full result set
        # with no failure records at all.
        marker = str(tmp_path / "hung-once.marker")
        dog = Watchdog(DEADLINE_S)
        jobs = [(value, 2, marker) for value in range(4)]
        out = parallel_map(
            _hang_once, jobs, workers=2, watchdog=dog, capture_failures=True
        )
        assert out == [0, 1, 4, 9]
        assert dog.kills >= 1
        assert dog.quarantined == 0

    def test_watchdog_statistics_accumulate(self):
        dog = Watchdog(DEADLINE_S)
        parallel_map(
            _hang_on_three,
            range(4),
            workers=2,
            watchdog=dog,
            capture_failures=True,
        )
        budget = dog.strike_budget(RetryPolicy())
        assert dog.timeouts == budget
        assert dog.kills == budget
        assert dog.quarantined == 1

    def test_supervision_forces_pool_for_serial_request(self):
        # workers=None normally means in-process, where a hang could
        # never be preempted; a deadline must force a pool of one.
        out = parallel_map(
            _hang_on_three,
            [1, 3],
            workers=None,
            timeout_s=DEADLINE_S,
            capture_failures=True,
        )
        assert out[0] == 1
        assert isinstance(out[1], JobFailure)

    def test_map_without_deadline_is_unchanged(self):
        assert parallel_map(_square, range(8), workers=2) == [
            n * n for n in range(8)
        ]


@needs_pool
class TestCrasherQuarantine:
    @pytest.mark.parametrize("timeout_s", [30.0, None])
    def test_permanent_crasher_is_quarantined_before_fallback(
        self, timeout_s
    ):
        # A job that kills its worker on every attempt must be written
        # off by the pooled loop, with or without a deadline -- if it
        # ever reached the in-process fallback its os._exit would take
        # down the test process.
        out = parallel_map(
            _crash_on_two,
            range(4),
            workers=2,
            timeout_s=timeout_s,
            capture_failures=True,
        )
        failure = out[2]
        assert isinstance(failure, JobFailure)
        assert failure.kind == FAILURE_KIND_QUARANTINED
        assert failure.quarantined
        assert [out[i] for i in (0, 1, 3)] == [0, 1, 9]


@needs_pool
class TestSupervisedSweep:
    def test_stalled_point_becomes_err_cell_within_bounded_time(self):
        plan = FaultPlan(site="sweep", index=1, mode="stall", once=False)
        start = time.monotonic()
        with injected(plan):
            report = sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                workers=2,
                strict=False,
                point_timeout=1.0,
            )
        assert time.monotonic() - start < BOUNDED_S
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.kind == FAILURE_KIND_TIMEOUT
        assert failure.coords["index"] == 1
        assert failure.coords["channels"] == 2
        # Exactly the other two points complete, bit-identical to a
        # fault-free sweep of the same configurations.
        clean = sweep_use_case(
            [LEVEL], [CONFIGS[0], CONFIGS[2]], chunk_budget=BUDGET
        )
        assert list(report) == list(clean)

    def test_stalled_point_strict_raises_naming_the_point(self):
        plan = FaultPlan(site="sweep", index=1, mode="stall", once=False)
        with injected(plan):
            with pytest.raises(WorkerError, match="channels': 2") as excinfo:
                sweep_use_case(
                    [LEVEL],
                    CONFIGS,
                    chunk_budget=BUDGET,
                    workers=2,
                    strict=True,
                    point_timeout=1.0,
                )
        assert excinfo.value.coords["index"] == 1

    def test_quarantine_is_recorded_and_resume_does_not_rehang(
        self, tmp_path
    ):
        store = tmp_path / "store"
        plan = FaultPlan(site="sweep", index=1, mode="stall", once=False)
        with injected(plan):
            first = sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                workers=2,
                strict=False,
                cache=store,
                point_timeout=1.0,
            )
        assert len(first.failures) == 1
        # Resume with the stall STILL armed: the stored quarantine
        # must be honoured instead of re-hanging.
        start = time.monotonic()
        with injected(plan):
            again = sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                workers=2,
                strict=False,
                cache=store,
                resume=True,
                point_timeout=1.0,
            )
        assert time.monotonic() - start < 5.0
        assert again.cached == len(CONFIGS) - 1
        assert again.resumed == 1
        assert list(again) == list(first)
        assert len(again.failures) == 1
        assert again.failures[0].kind == FAILURE_KIND_TIMEOUT
        assert again.failures[0].coords == first.failures[0].coords

    def test_resumed_quarantine_still_raises_in_strict_mode(self, tmp_path):
        store = tmp_path / "store"
        plan = FaultPlan(site="sweep", index=1, mode="stall", once=False)
        with injected(plan):
            sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                workers=2,
                strict=False,
                cache=store,
                point_timeout=1.0,
            )
        with pytest.raises(WorkerError, match="channels': 2"):
            sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                workers=2,
                strict=True,
                cache=store,
                resume=True,
                point_timeout=1.0,
            )

    def test_supervision_counters_reach_telemetry(self):
        plan = FaultPlan(site="sweep", index=0, mode="stall", once=False)
        telemetry = Telemetry()
        with injected(plan):
            sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                workers=2,
                strict=False,
                point_timeout=1.0,
                telemetry=telemetry,
            )
        registry = telemetry.registry
        assert registry.counter("sweep.timeouts").value >= 1
        assert registry.counter("sweep.watchdog_kills").value >= 1
        assert registry.counter("sweep.quarantined").value == 1

    def test_clean_supervised_sweep_exports_zeroed_counters(self):
        telemetry = Telemetry()
        report = sweep_use_case(
            [LEVEL],
            CONFIGS,
            chunk_budget=BUDGET,
            workers=2,
            point_timeout=60.0,
            telemetry=telemetry,
        )
        assert report.ok
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["sweep.timeouts"] == 0
        assert counters["sweep.watchdog_kills"] == 0
        assert counters["sweep.quarantined"] == 0

    def test_supervised_sweep_matches_unsupervised(self):
        supervised = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, workers=2,
            point_timeout=60.0,
        )
        plain = sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET)
        assert list(supervised) == list(plain)


class TestQuarantineRecords:
    def test_from_quarantine_truncates_item_repr(self):
        failure = JobFailure.from_quarantine(
            3, "x" * 500, kind=FAILURE_KIND_TIMEOUT, message="hung"
        )
        assert len(failure.item) == 200
        assert failure.item.endswith("...")

    def test_describe_tags_non_error_kinds(self):
        timeout = JobFailure.from_quarantine(
            0, "item", kind=FAILURE_KIND_TIMEOUT, message="hung"
        )
        assert "(timeout)" in timeout.describe()
        plain = JobFailure.from_exception(0, "item", ValueError("x"))
        assert "(" not in plain.describe().split("]")[1].split(":")[0]

    def test_plain_failures_are_not_quarantined(self):
        plain = JobFailure.from_exception(0, "item", ValueError("x"))
        assert not plain.quarantined
