"""Fault injection and the runtime DRAM-protocol invariant checker."""

import os

import pytest

from repro.analysis.experiments import run_fig3
from repro.analysis.sweep import sweep_use_case
from repro.controller.engine import ChannelEngine
from repro.controller.request import MasterTransaction, Op
from repro.core.channel import Channel
from repro.core.config import SystemConfig
from repro.core.system import ChannelSplit, MultiChannelMemorySystem
from repro.errors import (
    AddressError,
    ConfigurationError,
    ProtocolError,
    SimulationError,
    WorkerError,
)
from repro.parallel import pool_supported
from repro.resilience import SweepReport
from repro.resilience import faults
from repro.service.cache import ResultCache
from repro.telemetry import Telemetry
from repro.usecase.levels import level_by_name

BUDGET = 2000
LEVEL = level_by_name("3.1")
CONFIGS = [SystemConfig(channels=m) for m in (1, 2, 4)]

BACKENDS = ("reference", "batch", "analytic")
MAX_CHUNK = SystemConfig().device.geometry.capacity_bytes >> 4


def _malformed_streams(runs, max_chunk):
    """``(stream, error, match)`` for each way a run can be malformed,
    each a copy of the well-formed ``runs`` with its last run damaged."""
    head = [tuple(run) for run in runs[:-1]]
    return [
        (faults.malformed_runs(runs, at=len(runs) - 1), ConfigurationError,
         "op must be 0 or 1"),
        (head + [(0, 8, 0, 0)], ConfigurationError, "count must be positive"),
        (head + [(0, 8, -1, 0)], ConfigurationError, "count must be positive"),
        (head + [(0, -1, 1, 0)], ConfigurationError, "non-negative"),
        (head + [(0, 8, 1, -1)], ConfigurationError, "non-negative"),
        (head + [(1, max_chunk - 1, 2, 0)], AddressError, "capacity"),
    ]


needs_pool = pytest.mark.skipif(
    not pool_supported(), reason="platform cannot start worker processes"
)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = faults.FaultPlan(site="sweep", index=3, mode="raise")
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="mode"):
            faults.FaultPlan(site="sweep", index=0, mode="explode")
        with pytest.raises(ConfigurationError, match="index"):
            faults.FaultPlan(site="sweep", index=-1)
        with pytest.raises(ConfigurationError, match="marker_path"):
            faults.FaultPlan(site="sweep", index=0, mode="crash")

    def test_injected_context_arms_and_disarms(self):
        plan = faults.FaultPlan(site="s", index=0)
        assert faults.FAULT_PLAN_ENV not in os.environ
        with faults.injected(plan):
            assert os.environ[faults.FAULT_PLAN_ENV] == plan.to_json()
        assert faults.FAULT_PLAN_ENV not in os.environ

    def test_maybe_inject_is_inert_without_plan(self):
        faults.maybe_inject("sweep", 0)  # no plan armed: no-op

    def test_maybe_inject_ignores_other_sites(self):
        with faults.injected(faults.FaultPlan(site="elsewhere", index=0)):
            faults.maybe_inject("sweep", 0)

    def test_maybe_inject_raises_at_target(self):
        with faults.injected(faults.FaultPlan(site="s", index=2)):
            faults.maybe_inject("s", 1)
            with pytest.raises(SimulationError, match="injected fault"):
                faults.maybe_inject("s", 2)

    def test_unreadable_plan_is_a_loud_error(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, "not json")
        with pytest.raises(ConfigurationError, match="unreadable fault plan"):
            faults.maybe_inject("s", 0)


class TestSweepDegradation:
    """Acceptance: a fault at point N leaves every other point intact."""

    def test_strict_sweep_wraps_failure_as_worker_error(self):
        with faults.injected(faults.FaultPlan(site="sweep", index=1)):
            with pytest.raises(WorkerError) as excinfo:
                sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET)
        err = excinfo.value
        assert err.coords["index"] == 1
        assert err.coords["channels"] == 2
        assert err.coords["level"] == "3.1"
        assert "SimulationError" in (err.traceback or "")

    def test_graceful_sweep_completes_other_points(self):
        with faults.injected(faults.FaultPlan(site="sweep", index=1)):
            report = sweep_use_case(
                [LEVEL], CONFIGS, chunk_budget=BUDGET, strict=False
            )
        assert isinstance(report, SweepReport)
        assert not report.ok
        assert [p.config.channels for p in report] == [1, 4]
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.coords["channels"] == 2
        assert failure.error_type == "SimulationError"
        assert "channels=2" in report.format_failures()
        assert "1 failed" in report.summary()

    def test_resume_after_fault_is_bit_identical(self, tmp_path):
        """The headline scenario: crash at point N, resume, and get the
        exact uninterrupted-sequential-sweep answer."""
        store = ResultCache(tmp_path / "store")
        with faults.injected(faults.FaultPlan(site="sweep", index=1)):
            partial = sweep_use_case(
                [LEVEL],
                CONFIGS,
                chunk_budget=BUDGET,
                cache=store,
                strict=False,
            )
        assert len(partial) == 2
        assert len(store) == 2

        # Fault cleared (the operator fixed the box); resume.
        resumed = sweep_use_case(
            [LEVEL], CONFIGS, chunk_budget=BUDGET, cache=store, resume=True
        )
        assert resumed.ok
        assert resumed.cached == 2

        fresh = sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET)
        assert list(resumed) == list(fresh)

    @needs_pool
    def test_worker_crash_recovers_without_losing_points(self, tmp_path):
        plan = faults.FaultPlan(
            site="sweep",
            index=1,
            mode="crash",
            once=True,
            marker_path=str(tmp_path / "sweep.marker"),
        )
        with faults.injected(plan):
            report = sweep_use_case(
                [LEVEL], CONFIGS, chunk_budget=BUDGET, workers=2
            )
        # The crash killed one pool attempt; the retry completed every
        # point with bit-identical results.
        assert report.ok
        fresh = sweep_use_case([LEVEL], CONFIGS, chunk_budget=BUDGET)
        assert list(report) == list(fresh)


class TestInputCorruption:
    def test_corrupt_timing_replaces_field(self):
        timing = SystemConfig().device.timing.at_frequency(400.0)
        skewed = faults.corrupt_timing(timing, "t_rcd", -2)
        assert skewed.t_rcd == timing.t_rcd - 2
        assert timing.t_rcd != skewed.t_rcd  # original untouched

    def test_corrupt_timing_floors_at_zero(self):
        timing = SystemConfig().device.timing.at_frequency(400.0)
        assert faults.corrupt_timing(timing, "t_rcd", -1000).t_rcd == 0

    def test_corrupt_timing_rejects_unknown_field(self):
        timing = SystemConfig().device.timing.at_frequency(400.0)
        with pytest.raises(ConfigurationError, match="no parameter"):
            faults.corrupt_timing(timing, "t_bogus", -1)
        with pytest.raises(ConfigurationError, match="not a cycle count"):
            faults.corrupt_timing(timing, "t_ck_ns", -1)

    def test_malformed_runs_rejected_by_engine(self):
        config = SystemConfig()
        engine = ChannelEngine(device=config.device, freq_mhz=400.0)
        runs = [(0, 0, 1), (1, 8, 1)]
        damaged = faults.malformed_runs(runs, at=1)
        with pytest.raises(ConfigurationError, match="op must be 0 or 1"):
            engine.run(damaged)
        with pytest.raises(ConfigurationError, match="outside"):
            faults.malformed_runs(runs, at=5)
        # Every built-in backend's validating entry rejects the same
        # inputs with the same typed errors.
        for backend in BACKENDS:
            channel = Channel(config.with_backend(backend))
            for bad, error, match in _malformed_streams(runs, MAX_CHUNK):
                with pytest.raises(error, match=match):
                    channel.run(bad)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hand_built_split_rejected_before_any_engine_runs(
        self, backend, monkeypatch
    ):
        system = MultiChannelMemorySystem(
            SystemConfig(channels=2, backend=backend)
        )
        simulated = []

        def spy(runs, command_log=None):
            simulated.append(runs)

        for channel in system.channels:
            monkeypatch.setattr(channel.simulator, "run", spy)
            monkeypatch.setattr(channel.simulator, "run_trusted", spy)
        good = ((0, 0, 1, 0), (1, 8, 1, 0))
        # The bad run sits in the last channel, so a split checked
        # lazily, channel by channel, would already have run channel 0.
        for bad, error, match in _malformed_streams(good, MAX_CHUNK):
            split = ChannelSplit(
                runs=(good, tuple(bad)), transactions=2, chunks=4
            )
            with pytest.raises(error, match=match):
                system.run_split(split)
            with pytest.raises(error, match=match):
                system.run_split(split, telemetry=Telemetry.enabled())
        # A checked split stops being trusted once it is changed.
        checked = system.split([MasterTransaction(Op.READ, 0, 64)])
        changed = checked._replace(runs=(checked.runs[0], ((7, 0, 1, 0),)))
        with pytest.raises(ConfigurationError, match="op must be 0 or 1"):
            system.run_split(changed)
        assert simulated == []


def _two_rows_same_bank(engine):
    """Two accesses forcing ACT->use->PRE->ACT on one bank, so the
    row-management timings (tRCD/tRP/tRAS) all bind."""
    other_row = 1 << engine.mapping.row_shift
    return [(0, 0, 1), (0, other_row, 1)]


class TestRuntimeInvariantChecker:
    def test_clean_engine_run_passes(self):
        config = SystemConfig(check_invariants=True)
        engine = ChannelEngine(
            device=config.device, freq_mhz=400.0, check_invariants=True
        )
        result = engine.run(_two_rows_same_bank(engine))
        assert result.chunks_read == 2

    def test_corrupted_trcd_is_caught(self):
        config = SystemConfig()
        engine = ChannelEngine(
            device=config.device, freq_mhz=400.0, check_invariants=True
        )
        faults.corrupt_engine_timing(engine, "t_rcd", -(engine.timing.t_rcd - 1))
        with pytest.raises(ProtocolError) as excinfo:
            engine.run(_two_rows_same_bank(engine))
        message = str(excinfo.value)
        assert "tRCD" in message
        # The offending command history rides along for post-mortem.
        assert "last" in message and "ACT" in message

    def test_zeroed_trcd_is_caught(self):
        # A zero tRCD is outside the engines' premise (every cycle count
        # derived from a datasheet is >= 1): the column then issues on
        # its ACT's own cycle, which the checker must still flag.
        config = SystemConfig()
        engine = ChannelEngine(
            device=config.device, freq_mhz=400.0, check_invariants=True
        )
        faults.corrupt_engine_timing(engine, "t_rcd", -engine.timing.t_rcd)
        assert engine.timing.t_rcd == 0
        with pytest.raises(ProtocolError) as excinfo:
            engine.run(_two_rows_same_bank(engine))
        message = str(excinfo.value)
        assert "tRCD" in message and "command-bus" in message

    def test_corrupted_trp_is_caught(self):
        config = SystemConfig()
        engine = ChannelEngine(
            device=config.device, freq_mhz=400.0, check_invariants=True
        )
        # Alone, a zeroed tRP can hide behind the engine's separate
        # ACT-to-ACT (tRC) spacing; zero that too so the precharge
        # recovery itself is what the stream violates.
        faults.corrupt_engine_timing(engine, "t_rp", -engine.timing.t_rp)
        faults.corrupt_engine_timing(engine, "t_rc", -engine.timing.t_rc)
        with pytest.raises(ProtocolError, match="tRP"):
            engine.run(_two_rows_same_bank(engine))

    def test_disabled_checker_does_not_raise(self):
        config = SystemConfig()
        engine = ChannelEngine(device=config.device, freq_mhz=400.0)
        faults.corrupt_engine_timing(engine, "t_rcd", -(engine.timing.t_rcd - 1))
        engine.run(_two_rows_same_bank(engine))  # silent corruption

    def test_config_flag_reaches_the_engine(self):
        from repro.core.channel import Channel

        channel = Channel(SystemConfig(check_invariants=True))
        assert channel.engine.check_invariants

    def test_full_use_case_is_protocol_clean(self):
        from repro.analysis.sweep import simulate_use_case

        point = simulate_use_case(
            LEVEL,
            SystemConfig(channels=2, check_invariants=True),
            chunk_budget=BUDGET,
        )
        assert point.result.access_time_ms > 0

    def test_fig3_runner_is_protocol_clean(self):
        fig3 = run_fig3(
            frequencies_mhz=[200.0, 400.0],
            channel_counts=[1, 2],
            chunk_budget=BUDGET,
            base_config=SystemConfig(check_invariants=True),
        )
        assert fig3.format()
