"""Design-space exploration utilities.

The paper's conclusions summarise its sweep as a lookup — level 3.1
works on one channel, 3.2 needs several, 4 needs four, 4.2/5.2 need
eight — and call for "novel policies" to keep power manageable as
loads grow.  This module packages those questions as first-class
queries over the simulator:

- :func:`minimum_channels` — the smallest channel count that meets a
  level's real-time requirement (the conclusions' summary table);
- :func:`find_minimum_power_configuration` — the cheapest feasible
  (channels, clock) design point for a level;
- :func:`compare_energy_strategies` — *race-to-idle* (run the memory
  flat out, then power down for the rest of the frame) versus
  *just-in-time* (pace the traffic across the frame), the canonical
  DVFS-era policy question raised by Section V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.realtime import PAPER_MARGIN, RealTimeVerdict
from repro.analysis.sweep import SweepPoint, simulate_use_case, sweep_use_case
from repro.backends.registry import default_backend_name
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.core.system import MultiChannelMemorySystem
from repro.errors import ConfigurationError
from repro.load.model import VideoRecordingLoadModel
from repro.load.pacing import pace_transactions
from repro.load.scaling import DEFAULT_CHUNK_BUDGET, choose_scale
from repro.oracle.planner import screen_survivors
from repro.parallel import resolve_workers
from repro.power.report import compute_frame_power
from repro.telemetry.session import Telemetry
from repro.usecase.levels import H264Level
from repro.workloads.registry import WorkloadLike, resolve_workload


def minimum_channels(
    level: H264Level,
    freq_mhz: float = 400.0,
    channel_counts: Sequence[int] = PAPER_CHANNEL_COUNTS,
    require_margin: bool = False,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    workers: Optional[int] = None,
    strict: bool = True,
    backend: Optional[str] = None,
    point_timeout: Optional[float] = None,
    cache: Optional[object] = None,
    workload: WorkloadLike = None,
    telemetry: Optional[Telemetry] = None,
) -> Optional[int]:
    """Smallest channel count meeting the level's real-time target.

    ``require_margin`` demands a full PASS (15 % headroom); otherwise
    MARGINAL counts as feasible, matching the paper's Fig. 4 reading.
    Returns ``None`` when no evaluated count suffices.

    ``workers`` > 1 simulates all evaluated channel counts
    concurrently and then scans for the smallest feasible one; the
    sequential default stops at the first success.  Both return the
    same answer -- every point is an independent simulation.
    ``backend`` selects the simulation backend for every point.

    ``strict=False`` degrades gracefully: a channel count whose
    simulation failed is skipped (treated as not demonstrably
    feasible) instead of aborting the exploration.  ``point_timeout``
    puts every evaluated point under watchdog supervision (and forces
    the sweep path -- an in-process point cannot be preempted).
    ``cache`` names a persistent content-addressed result store
    directory (or passes a prepared
    :class:`~repro.service.cache.ResultCache`) and likewise forces the
    sweep path so every evaluated point is served from -- and written
    back to -- the store.
    """
    counts = sorted(channel_counts)

    def config_for(m: int) -> SystemConfig:
        config = SystemConfig(channels=m, freq_mhz=freq_mhz)
        return config if backend is None else config.with_backend(backend)

    if (
        not strict
        or point_timeout is not None
        or cache is not None
        or resolve_workers(workers, len(counts)) > 1
    ):
        points = sweep_use_case(
            [level],
            [config_for(m) for m in counts],
            chunk_budget=chunk_budget,
            workers=workers,
            strict=strict,
            point_timeout=point_timeout,
            cache=cache,
            workload=workload,
            telemetry=telemetry,
        )
    else:
        points = (
            simulate_use_case(
                level,
                config_for(m),
                chunk_budget=chunk_budget,
                workload=workload,
                telemetry=telemetry,
            )
            for m in counts
        )
    for point in points:
        if require_margin:
            if point.verdict is RealTimeVerdict.PASS:
                return point.config.channels
        elif point.verdict.feasible:
            return point.config.channels
    return None


def find_minimum_power_configuration(
    level: H264Level,
    channel_counts: Sequence[int] = PAPER_CHANNEL_COUNTS,
    frequencies_mhz: Sequence[float] = PAPER_FREQUENCIES_MHZ,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    workers: Optional[int] = None,
    strict: bool = True,
    backend: Optional[str] = None,
    prescreen_backend: Optional[str] = None,
    prescreen_slack: float = 0.25,
    point_timeout: Optional[float] = None,
    cache: Optional[object] = None,
    workload: WorkloadLike = None,
    telemetry: Optional[Telemetry] = None,
) -> Optional[SweepPoint]:
    """Cheapest (by average power) PASS configuration for ``level``.

    Returns ``None`` when nothing in the evaluated grid passes with
    the processing margin intact.  The (channels, clock) grid is
    exhaustive either way, so ``workers`` > 1 fans it out across
    processes without changing the answer.  ``strict=False`` skips
    failed grid points instead of aborting, answering over the
    surviving portion of the grid.

    ``backend`` selects the simulation backend scoring the grid.
    ``prescreen_backend`` enables two-phase exploration -- the
    "screen with analytic, confirm with reference" recipe
    (docs/cookbook.md): the whole grid is first swept under the
    (cheap) pre-screen backend, configurations whose screened access
    time misses the real-time requirement by more than
    ``prescreen_slack`` (a fractional safety margin absorbing the
    screen's tolerance) are discarded, and only the survivors are
    re-simulated under ``backend`` for the authoritative answer.  The
    discard policy itself --
    :func:`repro.oracle.planner.screen_survivors` -- is shared with
    the feasibility oracle's cost planner, so there is one escalation
    policy in the codebase; it validates the frame period and the
    slack loudly (a degenerate limit would silently turn the screen
    into "discard everything").  If the screen eliminates everything,
    the full grid is refined anyway rather than trusting a
    low-fidelity "infeasible", and the fallback is announced via the
    ``explorer.prescreen_empty`` telemetry counter (alongside
    ``explorer.prescreen_points`` / ``explorer.prescreen_survivors``)
    instead of double-simulating silently.

    ``cache`` names a persistent content-addressed result store
    directory shared by both phases; keys include the backend, so the
    pre-screen and the refinement populate disjoint entries and a
    repeated exploration replays both from disk.
    """
    configs = [
        SystemConfig(channels=channels, freq_mhz=freq)
        for freq in frequencies_mhz
        for channels in channel_counts
    ]
    if backend is not None:
        configs = [config.with_backend(backend) for config in configs]
    registry = telemetry.registry if telemetry is not None else None
    if prescreen_backend is not None:
        screened = sweep_use_case(
            [level],
            configs,
            chunk_budget=chunk_budget,
            workers=workers,
            strict=strict,
            backend=prescreen_backend,
            point_timeout=point_timeout,
            cache=cache,
            workload=workload,
            telemetry=telemetry,
        )
        survivors = [
            point.config.with_backend(
                backend if backend is not None else default_backend_name()
            )
            for point in screen_survivors(
                screened, level.frame_period_ms, prescreen_slack
            )
        ]
        if registry is not None:
            registry.counter("explorer.prescreen_points").add(len(screened))
            registry.counter("explorer.prescreen_survivors").add(len(survivors))
            # Pre-register at zero so the fallback counter exports
            # (visibly zero) on every pre-screened exploration.
            registry.counter("explorer.prescreen_empty").add(0)
        if survivors:
            configs = survivors
        elif registry is not None:
            registry.counter("explorer.prescreen_empty").add(1)
    points = sweep_use_case(
        [level], configs, chunk_budget=chunk_budget, workers=workers,
        strict=strict, point_timeout=point_timeout, cache=cache,
        workload=workload, telemetry=telemetry,
    )
    best: Optional[SweepPoint] = None
    for point in points:
        if point.verdict is not RealTimeVerdict.PASS:
            continue
        if best is None or point.power.total_power_w < best.power.total_power_w:
            best = point
    return best


@dataclass(frozen=True)
class EnergyStrategyComparison:
    """Race-to-idle vs just-in-time energy for one configuration."""

    level: H264Level
    config: SystemConfig
    #: Backlogged run: finish fast, power down for the frame remainder.
    race_to_idle_energy_j: float
    race_to_idle_access_ms: float
    #: Paced run: injection spread over the frame's usable window.
    just_in_time_energy_j: float
    just_in_time_access_ms: float

    @property
    def energy_ratio(self) -> float:
        """just-in-time / race-to-idle energy (1.0 = tie)."""
        return self.just_in_time_energy_j / self.race_to_idle_energy_j

    def summary(self) -> str:
        """One-line human-readable comparison."""
        return (
            f"{self.level.column_title} on {self.config.channels}ch @ "
            f"{self.config.freq_mhz:g} MHz: race-to-idle "
            f"{self.race_to_idle_energy_j * 1e3:.2f} mJ/frame vs just-in-time "
            f"{self.just_in_time_energy_j * 1e3:.2f} mJ/frame "
            f"(ratio {self.energy_ratio:.3f})"
        )


def compare_energy_strategies(
    level: H264Level,
    config: SystemConfig,
    duty: float = 1.0 - PAPER_MARGIN,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    workload: WorkloadLike = None,
) -> EnergyStrategyComparison:
    """Compare race-to-idle and just-in-time scheduling energies.

    Both runs move the identical frame traffic on the identical
    configuration; only arrival times differ.  With the paper's
    near-free power-down (immediate entry, tXP exit) the two should be
    close — quantifying *how* close is the point: it shows the paper's
    aggressive power-down assumption already captures most of what a
    DVFS-style pacing policy could save at fixed voltage/frequency.
    """
    use_case = resolve_workload(workload).instantiate(level)
    load = VideoRecordingLoadModel(use_case)
    scale = choose_scale(use_case.total_bytes_per_frame(), chunk_budget)
    txns = load.generate_frame(scale=scale)
    system = MultiChannelMemorySystem(config)

    backlogged = system.run(txns, scale=scale)
    race = compute_frame_power(config, backlogged, level.frame_period_ms)
    if not race.meets_realtime:
        raise ConfigurationError(
            f"{config.describe()} cannot sustain {level.column_title}; "
            "strategy comparison needs a feasible configuration"
        )

    paced_txns = pace_transactions(
        txns, frame_period_ms=level.frame_period_ms * scale, duty=duty
    )
    paced = system.run(paced_txns, scale=scale)
    jit = compute_frame_power(config, paced, level.frame_period_ms)

    return EnergyStrategyComparison(
        level=level,
        config=config,
        race_to_idle_energy_j=race.energy_per_frame_j,
        race_to_idle_access_ms=race.access_time_ms,
        just_in_time_energy_j=jit.energy_per_frame_j,
        just_in_time_access_ms=jit.access_time_ms,
    )
