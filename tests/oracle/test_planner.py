"""Tests for the cost-based planner (:mod:`repro.oracle.planner`)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.oracle.planner import (
    TIER_ANALYTIC,
    TIER_EXACT,
    TIER_SURROGATE,
    CostPlanner,
    feasibility_limit_ms,
    screen_survivors,
)

ANALYTIC_TOL = CostPlanner.analytic_tolerance()


class TestCheapestAdequateTier:
    """Each accuracy budget lands on the cheapest adequate tier."""

    def test_tight_surrogate_wins_generous_budget(self):
        plan = CostPlanner().plan(
            0.5, surrogate_bound=0.1, surrogate_verdict_certain=True
        )
        assert plan.tier == TIER_SURROGATE
        assert plan.backend is None
        assert plan.error_bound == 0.1
        assert plan.escalations == 0

    def test_loose_surrogate_escalates_to_analytic(self):
        plan = CostPlanner().plan(
            0.2, surrogate_bound=0.3, surrogate_verdict_certain=True
        )
        assert plan.tier == TIER_ANALYTIC
        assert plan.backend == "analytic"
        assert plan.error_bound == ANALYTIC_TOL
        assert plan.rejected == (TIER_SURROGATE,)
        assert plan.escalations == 1

    def test_budget_under_analytic_tolerance_goes_exact(self):
        plan = CostPlanner().plan(
            ANALYTIC_TOL / 2, surrogate_bound=0.3,
            surrogate_verdict_certain=True,
        )
        assert plan.tier == TIER_EXACT
        assert plan.error_bound == 0.0
        assert plan.rejected == (TIER_SURROGATE, TIER_ANALYTIC)
        assert plan.escalations == 2

    def test_zero_budget_demands_exact(self):
        plan = CostPlanner().plan(
            0.0, surrogate_bound=1e-9, surrogate_verdict_certain=True
        )
        assert plan.tier == TIER_EXACT

    def test_budget_exactly_at_analytic_tolerance_is_adequate(self):
        plan = CostPlanner().plan(ANALYTIC_TOL)
        assert plan.tier == TIER_ANALYTIC

    def test_no_surrogate_data_is_not_an_escalation(self):
        # A tier that *cannot* answer (cold cache: no surface) is
        # skipped silently; only a tier that answered inadequately
        # counts as an escalation.
        plan = CostPlanner().plan(0.5, surrogate_bound=None)
        assert plan.tier == TIER_ANALYTIC
        assert plan.escalations == 0

    def test_cold_cache_degrades_analytic_then_exact(self):
        planner = CostPlanner()
        screening = planner.plan(0.5, surrogate_bound=None)
        exact = planner.plan(0.0, surrogate_bound=None)
        assert screening.tier == TIER_ANALYTIC
        assert exact.tier == TIER_EXACT
        assert exact.rejected == (TIER_ANALYTIC,)

    def test_uncertain_verdict_rejects_surrogate_despite_tight_bound(self):
        # An interval straddling a verdict boundary must escalate even
        # when its relative error fits the budget.
        plan = CostPlanner().plan(
            0.5, surrogate_bound=0.01, surrogate_verdict_certain=False
        )
        assert plan.tier == TIER_ANALYTIC
        assert plan.rejected == (TIER_SURROGATE,)


class TestBudgetValidation:
    @pytest.mark.parametrize(
        "budget", [-0.1, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(ConfigurationError):
            CostPlanner().plan(budget)


class TestExactBackend:
    def test_default_is_batch(self):
        assert CostPlanner().resolve_exact_backend() == "batch"

    def test_explicit_backend_honoured(self):
        assert CostPlanner("reference").resolve_exact_backend() == "reference"

    def test_analytic_refused_as_exact_tier(self):
        with pytest.raises(ConfigurationError, match="bit-identical") as excinfo:
            CostPlanner("analytic")
        assert "pick reference or batch" in str(excinfo.value)

    def test_unknown_backend_refused(self):
        with pytest.raises(ConfigurationError):
            CostPlanner("no-such-backend")


class _Point:
    def __init__(self, access_time_ms):
        self.access_time_ms = access_time_ms


class TestScreening:
    def test_limit_is_slacked_period(self):
        assert feasibility_limit_ms(100.0, 0.25) == pytest.approx(125.0)

    def test_zero_slack_is_the_raw_period(self):
        assert feasibility_limit_ms(33.3, 0.0) == pytest.approx(33.3)

    @pytest.mark.parametrize(
        "period", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_degenerate_period_refused(self, period):
        # The historical bug shape: a zero/non-finite period makes the
        # multiplicative slack a no-op and the screen silently discards
        # every point.  It must refuse loudly instead.
        with pytest.raises(ConfigurationError, match="frame period"):
            feasibility_limit_ms(period, 0.25)

    @pytest.mark.parametrize("slack", [-0.25, float("nan"), float("inf")])
    def test_bad_slack_refused(self, slack):
        with pytest.raises(ConfigurationError, match="slack"):
            feasibility_limit_ms(33.3, slack)

    def test_survivors_filtered_in_order(self):
        points = [_Point(90.0), _Point(126.0), _Point(110.0), _Point(125.0)]
        kept = screen_survivors(points, 100.0, 0.25)
        assert [p.access_time_ms for p in kept] == [90.0, 110.0, 125.0]

    def test_survivors_validate_the_limit(self):
        with pytest.raises(ConfigurationError):
            screen_survivors([_Point(1.0)], math.nan, 0.25)
