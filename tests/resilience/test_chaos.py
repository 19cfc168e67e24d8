"""Chaos campaign and torn result-cache-write injection.

The campaign's promise is compositional: crash + stall + torn-write
recovery, stacked in random seeded order, must still converge to a
sweep bit-identical to the fault-free baseline.  The unit tests here
pin the torn-write mechanics the campaign leans on; the campaign test
runs one real seed end to end.
"""

import random

import pytest

from repro.parallel import pool_supported
from repro.resilience.chaos import (
    CHAOS_FAULT_MODES,
    DEFAULT_CHAOS_SEEDS,
    ChaosReport,
    ChaosRun,
    _draw_fault,
    run_chaos_campaign,
)
from repro.resilience.faults import FaultPlan, TornWriteInjected, injected
from repro.service.cache import CacheWarning, ResultCache

needs_pool = pytest.mark.skipif(
    not pool_supported(), reason="process pool unavailable on this platform"
)

BUDGET = 2000
KEY0 = "0" * 64
KEY1 = "1" * 64


class TestTornWriteInjection:
    def test_targeted_append_is_torn_and_raises(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        store.put(KEY0, "payload-0")
        plan = FaultPlan(site="cache", index=1, mode="torn-write", once=False)
        with injected(plan):
            with pytest.raises(TornWriteInjected, match="put #1"):
                store.put(KEY1, "payload-1")
        # Half an entry sits under the entry's own name, exactly like a
        # writer killed before the atomic rename; the entry written
        # before it is untouched.
        assert store.entry_path(KEY1).exists()
        fresh = ResultCache(tmp_path / "store")
        assert fresh.get(KEY0) == "payload-0"
        with pytest.warns(CacheWarning, match="recomputed"):
            assert fresh.get(KEY1) is None

    def test_next_append_repairs_the_torn_tail(self, tmp_path):
        plan = FaultPlan(site="cache", index=0, mode="torn-write", once=False)
        with injected(plan):
            with pytest.raises(TornWriteInjected):
                ResultCache(tmp_path / "store").put(KEY0, "payload-0")
        # A fresh instance models the resumed process: its put replaces
        # the torn entry atomically, and nothing warns afterwards.
        resumed = ResultCache(tmp_path / "store")
        resumed.put(KEY0, "payload-0")
        resumed.put(KEY1, "payload-1")
        fresh = ResultCache(tmp_path / "store")
        assert fresh.get(KEY0) == "payload-0"
        assert fresh.get(KEY1) == "payload-1"
        assert fresh.stats()["corrupt"] == 0

    def test_one_shot_plan_fires_exactly_once(self, tmp_path):
        # The chaos campaign arms one-shot plans: the torn write fires
        # on the first targeted put and never again -- not even in
        # the resumed "process" (fresh instance, put counter back at 0)
        # that retries the same put while the plan is still armed.
        plan = FaultPlan(
            site="cache",
            index=0,
            mode="torn-write",
            once=True,
            marker_path=str(tmp_path / "fault.marker"),
        )
        with injected(plan):
            with pytest.raises(TornWriteInjected):
                ResultCache(tmp_path / "store").put(KEY0, "payload-0")
            ResultCache(tmp_path / "store").put(KEY0, "payload-0")
        assert ResultCache(tmp_path / "store").get(KEY0) == "payload-0"


class TestFaultDraw:
    def test_draw_is_seed_deterministic(self, tmp_path):
        # CI reproducibility hinges on this: the same seed must draw
        # the same fault sequence on any machine.
        draws_a = [
            _draw_fault(rng_a, 6, str(tmp_path), i)
            for rng_a in [random.Random(7)]
            for i in range(8)
        ]
        draws_b = [
            _draw_fault(rng_b, 6, str(tmp_path), i)
            for rng_b in [random.Random(7)]
            for i in range(8)
        ]
        assert [
            (p.mode, p.site, p.index) for p in draws_a
        ] == [(p.mode, p.site, p.index) for p in draws_b]

    def test_draws_are_one_shot_and_well_aimed(self, tmp_path):
        rng = random.Random(3)
        for serial in range(16):
            plan = _draw_fault(rng, 5, str(tmp_path), serial)
            assert plan.once
            assert plan.mode in CHAOS_FAULT_MODES
            assert plan.mode != "raise"
            expected_site = "cache" if plan.mode == "torn-write" else "sweep"
            assert plan.site == expected_site
            assert 0 <= plan.index < 5


class TestCampaignReporting:
    def test_run_requires_identity_and_zero_residuals(self):
        assert ChaosRun(seed=1, identical=True).ok
        assert not ChaosRun(seed=1, identical=False).ok
        assert not ChaosRun(seed=1, identical=True, residual_failures=1).ok

    def test_failing_report_names_the_reproducing_seed(self):
        good = ChaosRun(seed=1, attempts=1, identical=True)
        bad = ChaosRun(seed=9, attempts=2, identical=False)
        report = ChaosReport(runs=[good, bad], points=3)
        assert not report.passed
        assert report.first_failure is bad
        text = report.format()
        assert "repro chaos --seeds 9" in text
        assert "FAIL" in text

    def test_passing_report_says_so(self):
        report = ChaosReport(
            runs=[ChaosRun(seed=s, attempts=1, identical=True) for s in (1, 5)],
            points=3,
        )
        assert report.passed
        assert "PASS" in report.format()

    def test_default_seeds_are_the_ci_triple(self):
        assert DEFAULT_CHAOS_SEEDS == (1, 5, 17)


@needs_pool
class TestCampaign:
    def test_single_seed_campaign_converges_bit_identically(self):
        report = run_chaos_campaign(
            seeds=(5,), chunk_budget=BUDGET, point_timeout=15.0
        )
        assert report.passed
        assert report.points == 3
        run = report.runs[0]
        assert run.ok
        assert run.attempts >= 1
        assert run.faults, "every attempt arms a fault"
        assert run.residual_failures == 0
