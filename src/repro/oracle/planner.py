"""Cost-based backend planner: accuracy budget in, cheapest tier out.

The oracle (:mod:`repro.oracle.api`) answers feasibility queries by
escalating through three tiers of increasing cost and fidelity:

========== ===================================== =====================
tier       source                                error bound
========== ===================================== =====================
surrogate  monotone interpolation over exact     data-dependent; the
           sweep points already in the result    bracketing interval is
           cache (microseconds)                  reported per answer
analytic   the closed-form ``analytic`` backend  its registered
           (milliseconds)                        ``reference_tolerance``
                                                 (documented 15 %)
exact      a bit-identical backend               0.0
           (``batch``/``reference``;
           tens of milliseconds and up)
========== ===================================== =====================

:class:`CostPlanner` owns the escalation policy: given the caller's
relative accuracy budget and what the surrogate layer can offer for
this query, it picks the *cheapest adequate* tier.  A surrogate answer
is adequate only when its error bound fits the budget **and** its
confidence interval does not straddle a verdict boundary -- an
interpolated point whose interval covers both PASS and FAIL territory
must escalate no matter how tight its relative error is.

The module also hosts the screening policy the explorer's
``--prescreen`` mode shares with the oracle
(:func:`feasibility_limit_ms` / :func:`screen_survivors`), so there is
exactly one place in the codebase that decides "how far past the frame
period may a low-fidelity estimate be before we discard the point".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.backends.registry import get_backend, validate_backend_name
from repro.errors import ConfigurationError

#: Planner tiers, cheapest first.
TIER_SURROGATE = "surrogate"
TIER_ANALYTIC = "analytic"
TIER_EXACT = "exact"

#: Escalation order (also the order tiers are rejected in).
TIERS: Tuple[str, ...] = (TIER_SURROGATE, TIER_ANALYTIC, TIER_EXACT)


def feasibility_limit_ms(frame_period_ms: float, slack: float) -> float:
    """The screening limit: ``frame_period_ms * (1 + slack)``.

    A low-fidelity estimate at most ``slack`` (fractionally) past the
    frame period is kept for refinement; anything beyond is discarded
    as infeasible.  Both inputs are validated loudly -- a zero or
    non-finite period would make the multiplicative slack a no-op and
    silently turn the screen into "discard everything", which then
    double-simulates the full grid.
    """
    if not math.isfinite(frame_period_ms) or frame_period_ms <= 0:
        raise ConfigurationError(
            f"screening needs a positive finite frame period, got "
            f"{frame_period_ms}"
        )
    if not math.isfinite(slack) or slack < 0:
        raise ConfigurationError(
            f"screening slack must be finite and >= 0, got {slack}"
        )
    return frame_period_ms * (1.0 + slack)


def screen_survivors(
    points: Sequence[object], frame_period_ms: float, slack: float
) -> List[object]:
    """Points whose screened access time is within the slacked limit.

    ``points`` is any sequence with ``access_time_ms`` attributes
    (:class:`~repro.analysis.sweep.SweepPoint` in practice).  The
    returned list preserves order.  Shared by the explorer pre-screen
    and the oracle so the discard policy cannot drift between them.
    """
    limit_ms = feasibility_limit_ms(frame_period_ms, slack)
    return [point for point in points if point.access_time_ms <= limit_ms]


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one query.

    ``tier`` answers; ``backend`` is the simulation backend to run
    (``None`` for the surrogate tier); ``error_bound`` is the relative
    access-time error the answer must be labelled with; ``rejected``
    names the cheaper tiers that were considered and found inadequate,
    in escalation order (``len(rejected)`` is the number of
    escalations this query cost).
    """

    tier: str
    backend: Optional[str]
    error_bound: float
    rejected: Tuple[str, ...] = ()

    @property
    def escalations(self) -> int:
        """How many cheaper tiers were rejected before this one."""
        return len(self.rejected)


class CostPlanner:
    """Pick the cheapest tier whose error bound fits a budget.

    ``exact_backend`` pins the tier-3 backend; it must be registered
    and bit-identical (``reference_tolerance == 0.0``) -- the exact
    tier's contract is "indistinguishable from ``sweep_use_case``".
    When ``None``, the planner uses ``batch`` (bit-identical to
    ``reference`` and the fastest exact backend).
    """

    def __init__(self, exact_backend: Optional[str] = None) -> None:
        if exact_backend is not None:
            validate_backend_name(exact_backend)
            if not get_backend(exact_backend).bit_identical:
                raise ConfigurationError(
                    f"exact tier needs a bit-identical backend, but "
                    f"{exact_backend!r} carries a "
                    f"{get_backend(exact_backend).reference_tolerance:.0%} "
                    "tolerance; pick reference or batch"
                )
        self._exact_backend = exact_backend

    def resolve_exact_backend(self) -> str:
        """The backend the exact tier runs on."""
        if self._exact_backend is not None:
            return self._exact_backend
        return "batch"

    @staticmethod
    def analytic_tolerance() -> float:
        """The analytic tier's documented relative error bound."""
        return get_backend(TIER_ANALYTIC).reference_tolerance

    def plan(
        self,
        accuracy_budget: float,
        surrogate_bound: Optional[float] = None,
        surrogate_verdict_certain: bool = False,
    ) -> QueryPlan:
        """Choose the cheapest adequate tier for one query.

        ``accuracy_budget`` is the caller's relative access-time error
        tolerance (0.0 demands an exact answer).  ``surrogate_bound``
        is the surrogate layer's error bound for this query (``None``
        when no interpolation is possible -- a tier that cannot answer
        is skipped without counting as an escalation);
        ``surrogate_verdict_certain`` says whether the surrogate's
        confidence interval stays on one side of every verdict
        boundary.
        """
        if not math.isfinite(accuracy_budget) or accuracy_budget < 0:
            raise ConfigurationError(
                f"accuracy budget must be finite and >= 0, got "
                f"{accuracy_budget}"
            )
        rejected: List[str] = []
        if surrogate_bound is not None:
            if surrogate_bound <= accuracy_budget and surrogate_verdict_certain:
                return QueryPlan(
                    tier=TIER_SURROGATE, backend=None,
                    error_bound=surrogate_bound,
                )
            rejected.append(TIER_SURROGATE)
        analytic_tol = self.analytic_tolerance()
        if analytic_tol <= accuracy_budget:
            return QueryPlan(
                tier=TIER_ANALYTIC, backend=TIER_ANALYTIC,
                error_bound=analytic_tol, rejected=tuple(rejected),
            )
        rejected.append(TIER_ANALYTIC)
        return QueryPlan(
            tier=TIER_EXACT, backend=self.resolve_exact_backend(),
            error_bound=0.0, rejected=tuple(rejected),
        )
