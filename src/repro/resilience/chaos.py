"""Seeded chaos campaign: a real sweep under randomized fault injection.

The resilience machinery makes a compound promise -- crashes are
retried, hangs are killed and requeued, torn result-cache writes are
recomputed on resume, and through all of it the final sweep result is
**bit-identical** to an undisturbed run.  Each mechanism has unit
tests; this module tests the *composition*, which is where resilience
systems actually break (a retry that re-runs a stored point, a torn
entry served as a result, a kill that leaks into an innocent job).

:func:`run_chaos_campaign` runs one small but real sweep per seed.
Each seed drives a :class:`random.Random` that draws a fresh fault
before every attempt -- a worker crash, a permanent stall, or a torn
result-cache write, aimed at a random point -- and the sweep runs under
full supervision (``point_timeout``, a result cache, strict mode).  Torn
writes tear the run down mid-write
(:class:`~repro.resilience.faults.TornWriteInjected`); the campaign
then *resumes* against the damaged store (``resume=True``), exactly as
an operator would.  A campaign passes only if every seed converges to a
report bit-identical to the fault-free baseline (dataclass equality
over every :class:`~repro.analysis.sweep.SweepPoint`) with zero
residual failures.

Determinism: everything is derived from the seed, so a CI failure
reproduces locally with the same seed -- which is why the CLI
(``repro chaos``) prints the seed of the first failing run.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import random

from repro.analysis.sweep import SweepPoint, sweep_use_case
from repro.core.config import SystemConfig
from repro.errors import SimulationError
from repro.load.scaling import DEFAULT_CHUNK_BUDGET
from repro.resilience.faults import FaultPlan, TornWriteInjected, injected
from repro.telemetry.session import Telemetry
from repro.usecase.levels import H264Level, level_by_name

#: Default seeds of the CI campaign (see ``repro chaos --seeds``).
DEFAULT_CHAOS_SEEDS: Tuple[int, ...] = (1, 5, 17)

#: Fault modes the campaign draws from.  ``raise`` is excluded on
#: purpose: a deterministic job failure legitimately changes the sweep
#: outcome (an ERR cell), so it has no place in a bit-identity check.
CHAOS_FAULT_MODES: Tuple[str, ...] = ("crash", "stall", "torn-write")


@dataclass
class ChaosRun:
    """Outcome of one seeded run of the campaign."""

    seed: int
    #: Human-readable description of each injected fault, in order.
    faults: List[str] = field(default_factory=list)
    #: Sweep attempts used (1 = no resume was needed).
    attempts: int = 0
    #: Whether the final report matched the baseline bit-for-bit.
    identical: bool = False
    #: Residual failures in the final report (must be 0 to pass).
    residual_failures: int = 0
    #: Supervision counters accumulated across the run's attempts.
    watchdog_kills: int = 0
    timeouts: int = 0
    quarantined: int = 0

    @property
    def ok(self) -> bool:
        """Whether this seed's run converged to the baseline."""
        return self.identical and self.residual_failures == 0

    def describe(self) -> str:
        """One-line summary for campaign output."""
        status = "ok" if self.ok else "FAIL"
        return (
            f"seed {self.seed}: {status} after {self.attempts} attempt(s), "
            f"{len(self.faults)} fault(s) injected "
            f"[{', '.join(self.faults) or 'none fired'}], "
            f"kills={self.watchdog_kills} timeouts={self.timeouts} "
            f"quarantined={self.quarantined}"
        )


@dataclass
class ChaosReport:
    """Outcome of a whole chaos campaign."""

    runs: List[ChaosRun]
    points: int

    @property
    def passed(self) -> bool:
        """Whether every seeded run converged to the baseline."""
        return all(run.ok for run in self.runs)

    @property
    def first_failure(self) -> Optional[ChaosRun]:
        """The first failing run, for reproduction instructions."""
        for run in self.runs:
            if not run.ok:
                return run
        return None

    def format(self) -> str:
        """Multi-line human-readable campaign summary."""
        lines = [
            f"chaos campaign: {len(self.runs)} seed(s) over a "
            f"{self.points}-point sweep"
        ]
        lines.extend("  " + run.describe() for run in self.runs)
        if self.passed:
            lines.append("PASS: every run bit-identical to the fault-free sweep")
        else:
            failing = self.first_failure
            lines.append(
                f"FAIL: seed {failing.seed} diverged -- reproduce with "
                f"`repro chaos --seeds {failing.seed}`"
            )
        return "\n".join(lines)


def _draw_fault(rng: random.Random, n_jobs: int, marker_dir: str, serial: int) -> FaultPlan:
    """Draw the next fault of a seeded run.

    Every fault is one-shot (``once=True``) with a fresh marker file:
    the fault fires exactly once and the recovery machinery must then
    converge, which keeps each attempt's outcome decidable.  The
    ``site``/``index`` aim crash/stall at a random sweep point and
    torn-write at a random result-cache put.
    """
    mode = rng.choice(CHAOS_FAULT_MODES)
    site = "cache" if mode == "torn-write" else "sweep"
    index = rng.randrange(n_jobs)
    marker = os.path.join(marker_dir, f"fault-{serial}.marker")
    return FaultPlan(
        site=site, index=index, mode=mode, once=True, marker_path=marker
    )


def run_chaos_campaign(
    seeds: Sequence[int] = DEFAULT_CHAOS_SEEDS,
    levels: Optional[Sequence[H264Level]] = None,
    configs: Optional[Sequence[SystemConfig]] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    backend: Optional[str] = None,
    workers: int = 2,
    point_timeout: float = 15.0,
    max_attempts: int = 8,
) -> ChaosReport:
    """Run the seeded chaos campaign and report per-seed outcomes.

    For every seed: run the sweep under supervision with a one-shot
    random fault armed; when a torn cache write tears the run down,
    draw a fresh fault and *resume* against the (damaged) result
    cache; repeat until the sweep completes or
    ``max_attempts`` runs out.  The final report must be bit-identical
    to the fault-free baseline.

    ``point_timeout`` bounds how long a stalled point can hold the
    campaign hostage; the default is deliberately generous so loaded
    CI machines do not kill *slow* (as opposed to hung) points --
    an injected stall is infinite, so any finite deadline catches it.
    """
    if levels is None:
        levels = [level_by_name("3.1")]
    if configs is None:
        configs = [SystemConfig(channels=m) for m in (1, 2, 4)]
    n_jobs = len(levels) * len(configs)

    baseline = sweep_use_case(
        list(levels),
        list(configs),
        chunk_budget=chunk_budget,
        backend=backend,
        strict=True,
    )
    baseline_points: List[SweepPoint] = list(baseline)

    runs: List[ChaosRun] = []
    for seed in seeds:
        rng = random.Random(seed)
        run = ChaosRun(seed=seed)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            store = os.path.join(tmp, "store")
            report = None
            for attempt in range(1, max_attempts + 1):
                run.attempts = attempt
                plan = _draw_fault(rng, n_jobs, tmp, attempt)
                run.faults.append(f"{plan.mode}@{plan.site}[{plan.index}]")
                telemetry = Telemetry()
                try:
                    with injected(plan):
                        report = sweep_use_case(
                            list(levels),
                            list(configs),
                            chunk_budget=chunk_budget,
                            backend=backend,
                            workers=workers,
                            cache=store,
                            resume=True,
                            strict=True,
                            point_timeout=point_timeout,
                            telemetry=telemetry,
                        )
                except TornWriteInjected:
                    # The injected mid-write death: resume against the
                    # torn store on the next attempt.
                    report = None
                finally:
                    registry = telemetry.registry
                    run.watchdog_kills += registry.counter(
                        "sweep.watchdog_kills"
                    ).value
                    run.timeouts += registry.counter("sweep.timeouts").value
                    run.quarantined += registry.counter(
                        "sweep.quarantined"
                    ).value
                if report is not None:
                    break
            if report is None:
                raise SimulationError(
                    f"chaos seed {seed} failed to converge within "
                    f"{max_attempts} attempts"
                )
            run.identical = list(report) == baseline_points
            run.residual_failures = len(report.failures)
        runs.append(run)
    return ChaosReport(runs=runs, points=n_jobs)
