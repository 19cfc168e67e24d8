"""Configuration-sweep machinery shared by the experiments.

The central primitive is :func:`simulate_use_case`: build the load
model for an H.264 level, pick a simulation scale, run the
multi-channel system and assemble the frame-power report.  The Fig. 3,
4 and 5 runners are thin sweeps over it.

Sweep points are embarrassingly parallel -- every (configuration,
level) pair is an independent simulation -- so :func:`sweep_use_case`
accepts a ``workers`` count and fans whole points out across worker
processes via :mod:`repro.parallel`.  Results are returned in the same
order and with the same bit-identical values as a sequential sweep.

Fault tolerance (see :mod:`repro.resilience`):

- ``cache=`` names the persistent result store; completed points are
  written as they finish and served on re-run, so an interrupted sweep
  resumes with only the missing work -- bit-identically, because the
  store holds the full pickled points.  ``resume=True`` also serves the
  points quarantined by an earlier run as their recorded failures.
- ``strict=True`` (the default) keeps fail-fast semantics, but wraps
  worker exceptions in :class:`~repro.errors.WorkerError` carrying the
  sweep coordinates and worker-side traceback.  ``strict=False``
  degrades gracefully: every healthy point completes and the returned
  :class:`~repro.resilience.report.SweepReport` carries the failures
  alongside the results.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.realtime import RealTimeVerdict, realtime_verdict
from repro.controller.request import MasterTransaction
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.core.system import ChannelSplit, MultiChannelMemorySystem
from repro.errors import ConfigurationError, WorkerError
from repro.keys import canonical_key
from repro.load.model import DEFAULT_BLOCK_BYTES, VideoRecordingLoadModel
from repro.load.scaling import DEFAULT_CHUNK_BUDGET, choose_scale
from repro.parallel import parallel_map, resolve_workers
from repro.power.report import FramePowerReport, compute_frame_power
from repro.resilience.faults import maybe_inject
from repro.resilience.report import JobFailure, SweepReport
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import Watchdog
from repro.service.cache import CacheWarning, ResultCache, resolve_cache
from repro.telemetry.profile import NULL_PROFILER, PhaseProfiler
from repro.telemetry.progress import ProgressSink, SweepProgress
from repro.telemetry.session import Telemetry
from repro.units import clock_period_ns
from repro.usecase.levels import H264Level
from repro.usecase.pipeline import VideoRecordingUseCase
from repro.workloads.registry import WorkloadLike, resolve_workload
from repro.workloads.spec import BoundWorkload


@dataclass(frozen=True)
class SweepPoint:
    """One simulated (configuration, level) point of a sweep."""

    config: SystemConfig
    level: H264Level
    result: SimulationResult
    power: FramePowerReport
    verdict: RealTimeVerdict

    @property
    def access_time_ms(self) -> float:
        """Full-frame access time, ms."""
        return self.result.access_time_ms

    @property
    def total_power_mw(self) -> float:
        """Frame-average power, mW."""
        return self.power.total_power_mw

    @property
    def reported_power_mw(self) -> float:
        """The Fig. 5 bar height: zero when real time is missed."""
        return 0.0 if self.verdict is RealTimeVerdict.FAIL else self.total_power_mw


class _SharedTraffic:
    """The traffic the points of one in-process sweep share.

    A point's master stream depends on its level (and on the
    sweep-wide scale, budget, block size and workload), never on the
    memory configuration; its channel split depends on that stream,
    the channel count and the capacity, and on the clock only through
    the arrival cycles.  This memo holds the current level's stream
    and its splits as immutable tuples and drops both when the level
    changes, so it never holds more than one level's traffic.  It
    lives for one :func:`sweep_use_case` call (or one
    :func:`simulate_use_case` point): nothing outlives the call.
    """

    def __init__(self) -> None:
        self._stream_key: Optional[tuple] = None
        self._scale = 1.0
        self._transactions: Tuple[MasterTransaction, ...] = ()
        # Whether any transaction carries a non-zero arrival: only then
        # does the split depend on the clock.
        self._paced = False
        self._splits: Dict[tuple, ChannelSplit] = {}

    def stream(
        self,
        level: H264Level,
        scale: Optional[float],
        chunk_budget: int,
        block_bytes: int,
        use_case: Optional[VideoRecordingUseCase],
        workload: WorkloadLike,
        profiler: PhaseProfiler,
    ) -> float:
        """Build the master stream unless the last call built the same
        one; returns the stream's scale."""
        key = (level, scale, chunk_budget, block_bytes, use_case, workload)
        if key == self._stream_key:
            return self._scale
        self._stream_key = None
        self._splits = {}
        with profiler.phase("load.build"):
            if use_case is None:
                use_case = resolve_workload(workload).instantiate(level)
            load = VideoRecordingLoadModel(use_case, block_bytes=block_bytes)
        with profiler.phase("load.scale"):
            if scale is None:
                scale = choose_scale(use_case.total_bytes_per_frame(), chunk_budget)
        with profiler.phase("load.generate"):
            self._transactions = tuple(load.generate_frame(scale=scale))
        self._scale = scale
        self._paced = any(txn.arrival_ns for txn in self._transactions)
        self._stream_key = key
        return scale

    def split(
        self, system: MultiChannelMemorySystem, profiler: PhaseProfiler
    ) -> ChannelSplit:
        """The current stream split for ``system``, made on first use."""
        config = system.config
        key = (
            config.channels,
            config.total_capacity_bytes,
            clock_period_ns(config.freq_mhz) if self._paced else None,
        )
        split = self._splits.get(key)
        if split is None:
            with profiler.phase("system.interleave"):
                split = system.split(self._transactions)
            self._splits[key] = split
        return split


def simulate_use_case(
    level: H264Level,
    config: SystemConfig,
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    use_case: Optional[VideoRecordingUseCase] = None,
    telemetry: Optional[Telemetry] = None,
    workload: WorkloadLike = None,
    *,
    _traffic: Optional[_SharedTraffic] = None,
) -> SweepPoint:
    """Simulate one frame of ``workload`` at ``level`` on ``config``.

    ``scale`` overrides the automatic fraction selection (pass 1.0 for
    an exact full-frame run).

    ``workload`` selects the declarative traffic model (a registered
    name, a :class:`~repro.workloads.spec.WorkloadSpec` or a
    :class:`~repro.workloads.spec.BoundWorkload`); ``None`` resolves to
    the default ``h264_camcorder`` spec, which is bit-identical to the
    legacy :class:`~repro.usecase.pipeline.VideoRecordingUseCase`.  An
    explicit ``use_case`` instance (the legacy hook) wins over
    ``workload``.

    A live ``telemetry`` session attributes wall-clock to the pipeline
    phases (``load.build``, ``load.scale``, ``load.generate``,
    ``system.interleave``, ``system.engine`` and ``power.integrate``)
    and collects the ``engine.*`` statistics; the returned point is
    bit-identical with telemetry on, off or absent.

    ``_traffic`` is the sweep-internal memo through which an
    in-process sweep's points share their stream and splits.
    """
    profiler = telemetry.profiler if telemetry is not None else NULL_PROFILER
    traffic = _traffic if _traffic is not None else _SharedTraffic()
    scale = traffic.stream(
        level, scale, chunk_budget, block_bytes, use_case, workload, profiler
    )
    system = MultiChannelMemorySystem(config)
    result = system.run_split(
        traffic.split(system, profiler), scale=scale, telemetry=telemetry
    )
    with profiler.phase("power.integrate"):
        power = compute_frame_power(config, result, level.frame_period_ms)
        verdict = realtime_verdict(result.access_time_ms, level.frame_period_ms)
    if telemetry is not None:
        telemetry.registry.counter("sim.points").add(1)
    return SweepPoint(
        config=config, level=level, result=result, power=power, verdict=verdict
    )


#: One sweep job:
#: (index, level, config, scale, chunk_budget, block_bytes, workload).
SweepJob = Tuple[
    int, H264Level, SystemConfig, Optional[float], int, int, BoundWorkload
]


def _sweep_point_job(
    job: SweepJob,
    telemetry: Optional[Telemetry] = None,
    traffic: Optional[_SharedTraffic] = None,
) -> SweepPoint:
    """Simulate one sweep point (pool worker entry point).

    Module-level so it pickles by reference; every argument and the
    returned :class:`SweepPoint` are plain dataclasses/enums, so the
    round trip through the pool is lossless.  The leading index exists
    for failure records and as the fault-injection hook the resilience
    tests target.

    ``telemetry`` and ``traffic`` are only threaded in for in-process
    sweeps: a pool worker's registry/profiler mutations would die with
    the worker, so pooled sweeps collect sweep-level metrics in the
    parent instead, and a worker receives single points, so it has no
    traffic to share.
    """
    index, level, config, scale, chunk_budget, block_bytes, workload = job
    maybe_inject("sweep", index)
    return simulate_use_case(
        level,
        config,
        scale=scale,
        chunk_budget=chunk_budget,
        block_bytes=block_bytes,
        telemetry=telemetry,
        workload=workload,
        _traffic=traffic,
    )


def _job_coords(job: SweepJob) -> Dict[str, object]:
    """Human-readable sweep coordinates of one job (for failure
    records and cache entry headers)."""
    index, level, config, scale, chunk_budget, block_bytes, workload = job
    return {
        "index": index,
        "level": level.name,
        "channels": config.channels,
        "freq_mhz": config.freq_mhz,
        "backend": config.backend,
        "workload": workload.name,
    }


def _job_description(job: SweepJob) -> Dict[str, object]:
    """Canonical-key material of one job: everything that determines
    its result, nothing that does not.

    The grid ``index`` is deliberately excluded -- a point's result is
    a pure function of (level, config, scale, budget, block size), so
    the same configuration must share stored work no matter where it
    sits in which grid (the Fig. 3 and Fig. 4/5 runners, the explorer
    and the ``sweep`` subcommand all hit the same entries).  The
    simulation ``backend`` is surfaced explicitly alongside the config
    (which also carries it) so the key contract -- "changing the
    backend misses" -- is visible in the payload, and the engine
    version rides in via :func:`repro.keys.canonical_key`.

    The ``workload`` identity -- registry name, fully resolved
    parameters and a digest of the spec's semantic structure
    (:meth:`~repro.workloads.spec.BoundWorkload.identity`) -- is part
    of the key, so the result cache can never alias points generated
    by different workloads (or by two registrations of the same name
    with different structure).
    """
    index, level, config, scale, chunk_budget, block_bytes, workload = job
    return point_description(
        level,
        config,
        scale=scale,
        chunk_budget=chunk_budget,
        block_bytes=block_bytes,
        workload=workload,
    )


def point_description(
    level: H264Level,
    config: SystemConfig,
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    workload: WorkloadLike = None,
) -> Dict[str, object]:
    """Canonical-key material of one sweep point (see
    :func:`_job_description` for the field-by-field rationale).

    Public so other layers -- the feasibility oracle probing the
    result cache, external tooling addressing entries -- can construct
    the *identical* description a sweep would, without fabricating a
    :data:`SweepJob`."""
    bound = (
        workload
        if isinstance(workload, BoundWorkload)
        else resolve_workload(workload)
    )
    return {
        "kind": "sweep-point",
        "level": level,
        "config": config,
        "backend": config.backend,
        "scale": scale,
        "chunk_budget": chunk_budget,
        "block_bytes": block_bytes,
        "workload": bound.identity(),
    }


def point_key(
    level: H264Level,
    config: SystemConfig,
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    workload: WorkloadLike = None,
) -> str:
    """Canonical content key of one sweep point -- exactly the key
    :func:`sweep_use_case` files the point under in the result cache."""
    return canonical_key(
        point_description(
            level,
            config,
            scale=scale,
            chunk_budget=chunk_budget,
            block_bytes=block_bytes,
            workload=workload,
        )
    )


def job_keys(jobs: Sequence[SweepJob]) -> List[str]:
    """Canonical content keys of ``jobs``: the names they are filed
    under in the result cache (see :mod:`repro.keys`)."""
    return [canonical_key(_job_description(job)) for job in jobs]


def _serve_stored(
    jobs: Sequence[SweepJob],
    keys: Sequence[str],
    cache: Optional[ResultCache],
    resume: bool,
) -> Tuple[List[Optional[SweepPoint]], int, List[JobFailure], List[int], Set[int]]:
    """Serve what the store holds before dispatching anything.

    Returns ``(results, cached, restored, pending_positions,
    quarantined_positions)``.  A stored point is always served.  A
    negative entry (a point an earlier run quarantined) is served as
    its recorded failure only under ``resume``; otherwise it is a
    silent miss (counted as a cache miss), so the point is retried and
    its new outcome replaces the entry; ``quarantined_positions`` names
    those retried points.
    """
    results: List[Optional[SweepPoint]] = [None] * len(jobs)
    if cache is None:
        return results, 0, [], list(range(len(jobs))), set()
    cached = 0
    restored: List[JobFailure] = []
    pending_positions: List[int] = []
    quarantined_positions: Set[int] = set()

    def serves(payload) -> bool:
        return isinstance(payload, SweepPoint) or (
            resume and isinstance(payload, JobFailure)
        )

    for position, key in enumerate(keys):
        hit = cache.get(key, serves)
        if isinstance(hit, SweepPoint):
            results[position] = hit
            cached += 1
        elif isinstance(hit, JobFailure) and resume:
            restored.append(
                replace(hit, index=position, coords=_job_coords(jobs[position]))
            )
        else:
            if isinstance(hit, JobFailure):
                quarantined_positions.add(position)
            elif hit is not None:
                warnings.warn(
                    CacheWarning(
                        f"cache entry {key[:12]}... holds a "
                        f"{type(hit).__name__}, not a sweep point; recomputing"
                    ),
                    stacklevel=3,
                )
            pending_positions.append(position)
    return results, cached, restored, pending_positions, quarantined_positions


def sweep_use_case(
    levels: Sequence[H264Level],
    configs: Sequence[SystemConfig],
    scale: Optional[float] = None,
    chunk_budget: int = DEFAULT_CHUNK_BUDGET,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    workers: Optional[int] = None,
    strict: bool = True,
    retry: Optional[RetryPolicy] = None,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressSink] = None,
    backend: Optional[str] = None,
    point_timeout: Optional[float] = None,
    cache: Optional[Union[str, Path, ResultCache]] = None,
    workload: WorkloadLike = None,
    resume: bool = False,
    *,
    _keys: Optional[Sequence[str]] = None,
) -> SweepReport:
    """Cartesian sweep of levels x configurations.

    ``workload`` selects the declarative traffic model every point
    simulates (registered name, spec or bound workload; ``None`` = the
    default ``h264_camcorder``).  The workload identity is part of
    every point's canonical key, so the result cache never mixes points
    across workloads.

    ``workers`` fans the (level, config) points out across worker
    processes (``None``/1 = in-process, 0 = one per CPU); the returned
    report is in levels-major order and bit-identical either way.

    ``backend`` overrides the simulation backend of every swept
    configuration (``None`` keeps each config's own); the selection
    travels inside the (picklable) configs, so pool workers honour it
    without extra plumbing.

    ``strict=False`` captures per-point failures in the report instead
    of raising; ``retry`` overrides the backoff schedule for transient
    pool failures.

    ``point_timeout`` puts every point under watchdog supervision
    (CLI ``--point-timeout``): a point still running after that many
    wall-clock seconds has its worker killed and is requeued, and a
    point that hangs (or takes its worker down) on every permitted
    attempt is quarantined -- an ERR cell in the figures under
    ``strict=False``, a :class:`~repro.errors.WorkerError` naming the
    point under ``strict=True``.  Quarantined failures are written to
    the ``cache`` as negative entries, so a resumed sweep yields the
    failure immediately instead of re-hanging on the same point.
    Supervision counters (``sweep.timeouts``, ``sweep.watchdog_kills``,
    ``sweep.quarantined``) land in ``telemetry`` when given.

    ``cache`` names a persistent content-addressed result store
    directory (or passes a prepared
    :class:`~repro.service.cache.ResultCache`; CLI ``--cache-dir``):
    before anything is dispatched, every point's canonical key --
    :func:`repro.keys.canonical_key` over the full job description
    including the backend and engine version -- is looked up there,
    and hits are served without simulating.  Computed points are
    written back atomically as they finish, so a warm cache replays a
    whole grid as pure lookups and an interrupted sweep re-run with
    the same arguments recomputes only the missing work.  Corrupt or
    torn entries degrade to a recompute with a
    :class:`~repro.service.cache.CacheWarning` -- a damaged cache can
    cost time, never correctness.  ``cache.hits`` / ``cache.misses`` /
    ``cache.corrupt`` / ``cache.evictions`` counters land in
    ``telemetry`` when given (``cache.hits`` counts the entries served:
    a negative entry read without ``resume``, or an entry that holds no
    sweep point, is a miss).

    ``resume=True`` (CLI ``--resume``; needs ``cache``) also serves
    each negative entry as its recorded failure, so a resumed sweep
    never hangs on the same point again.  Without it a negative entry
    is a miss: the point is retried and its new outcome overwrites the
    entry.  Deterministic errors are never stored, so they are always
    recomputed: a retried point that ends in one has its negative entry
    removed, and a later resume recomputes it.

    ``progress`` receives a heartbeat per completed point (and a final
    summary) as :class:`~repro.telemetry.ProgressEvent`\\ s with
    done/total counts and an ETA, so long campaigns are observable.
    ``telemetry`` collects sweep-level metrics (``sweep.points_*``,
    the ``sweep.run`` timer, a per-point runtime histogram); for
    in-process sweeps it also reaches the per-point phase profile --
    pool workers cannot mutate the parent's registry, so pooled sweeps
    profile only the dispatch.

    The report is a drop-in :class:`~collections.abc.Sequence` of the
    successful :class:`SweepPoint`\\ s, so callers that treat the
    result as a list keep working.

    ``_keys`` is the feasibility oracle's private path: the points'
    canonical keys in job order, already computed by the caller (which
    must compute them exactly as :func:`job_keys` would), so a one-point
    sweep does not project its whole configuration again.
    """
    if not levels or not configs:
        raise ConfigurationError("sweep needs at least one level and one config")
    if resume and cache is None:
        raise ConfigurationError("resume=True needs a cache to resume from")
    if backend is not None:
        configs = [config.with_backend(backend) for config in configs]
    bound = resolve_workload(workload)
    jobs: List[SweepJob] = [
        (index, level, config, scale, chunk_budget, block_bytes, bound)
        for index, (level, config) in enumerate(
            (level, config) for level in levels for config in configs
        )
    ]

    cache_store = resolve_cache(cache)
    if cache_store is None:
        keys: Sequence[str] = []
    else:
        keys = _keys if _keys is not None else job_keys(jobs)
    cache_before = cache_store.stats() if cache_store is not None else {}
    results, cache_hits, restored, pending_positions, quarantined_positions = (
        _serve_stored(jobs, keys, cache_store, resume)
    )
    pending_jobs = [jobs[position] for position in pending_positions]

    if telemetry is not None:
        registry = telemetry.registry
        registry.counter("sweep.points_total").add(len(jobs))
        for name in sorted({config.backend for config in configs}):
            registry.counter(f"sweep.backend.{name}").add(1)
        registry.counter("sweep.points_resumed").add(len(restored))
        # Pre-register at zero so a fully stored sweep still exports
        # the counter (a warm campaign computed nothing, visibly).
        registry.counter("sweep.points_completed").add(0)
        if cache_store is not None:
            registry.counter("sweep.points_cached").add(cache_hits)
            # Pre-register so a fully cold (or fully warm) run still
            # exports every cache counter.
            for name in (
                "cache.hits", "cache.misses", "cache.corrupt",
                "cache.evictions",
            ):
                registry.counter(name).add(0)
    tracker = (
        SweepProgress(
            progress, total=len(jobs), stored=cache_hits + len(restored)
        )
        if progress is not None
        else None
    )

    on_result = None
    if cache_store is not None or tracker is not None or telemetry is not None:
        point_timer = time.monotonic
        # Placeholder: re-stamped at dispatch so the first interval
        # sample measures point throughput, not setup done between
        # closure creation and the parallel_map call.
        last_done = [point_timer()]

        def on_result(local_index: int, point: SweepPoint) -> None:
            position = pending_positions[local_index]
            if cache_store is not None:
                cache_store.put(
                    keys[position], point, _job_coords(jobs[position])
                )
            if telemetry is not None:
                # Wall-clock between successive completions; under a
                # pool this is the effective per-point throughput, not
                # one point's runtime.
                now = point_timer()
                telemetry.registry.counter("sweep.points_completed").add(1)
                telemetry.registry.histogram(
                    "sweep.point_interval_seconds"
                ).record(now - last_done[0])
                last_done[0] = now
            if tracker is not None:
                tracker.point_done(_job_coords(jobs[position]))

    on_failure = None
    if cache_store is not None:

        def on_failure(local_index: int, failure: JobFailure) -> None:
            position = pending_positions[local_index]
            if not failure.quarantined:
                # Deterministic errors are recomputed by the next run
                # (the bug might be fixed by then); only quarantines --
                # the points that would re-hang -- are stored.  A stale
                # quarantine of this point goes, or a resume would
                # serve it in place of this error.
                if position in quarantined_positions:
                    cache_store.discard(keys[position])
                return
            coords = _job_coords(jobs[position])
            cache_store.put(
                keys[position],
                replace(failure, index=position, coords=coords),
                coords,
            )

    watchdog = Watchdog(point_timeout) if point_timeout is not None else None
    if telemetry is not None and watchdog is not None:
        # Pre-register at zero so a clean supervised sweep still
        # exports the supervision counters.
        for name in ("sweep.timeouts", "sweep.watchdog_kills", "sweep.quarantined"):
            telemetry.registry.counter(name).add(0)

    # Per-point telemetry (phase profile, engine counters) and shared
    # traffic only work in-process: a pool worker's mutations die with
    # the worker.  Supervision forces pooled execution even for one
    # worker, so a supervised sweep binds neither into the job.
    point_fn = _sweep_point_job
    if (
        point_timeout is None
        and resolve_workers(workers, max(1, len(pending_jobs))) <= 1
    ):
        point_fn = partial(
            _sweep_point_job, telemetry=telemetry, traffic=_SharedTraffic()
        )

    sweep_timer = (
        telemetry.registry.timer("sweep.run") if telemetry is not None else None
    )
    start = time.perf_counter()
    if on_result is not None:
        # Baseline for the first ``sweep.point_interval_seconds``
        # sample is dispatch start: stamping any earlier bills the
        # store lookups and other setup to the first point.
        last_done[0] = point_timer()
    outcomes = parallel_map(
        point_fn,
        pending_jobs,
        workers=workers,
        retry=retry,
        capture_failures=True,
        on_result=on_result,
        on_failure=on_failure,
        watchdog=watchdog,
    )
    if sweep_timer is not None:
        sweep_timer.record(time.perf_counter() - start)
    if telemetry is not None and watchdog is not None:
        telemetry.registry.counter("sweep.timeouts").add(watchdog.timeouts)
        telemetry.registry.counter("sweep.watchdog_kills").add(watchdog.kills)
        telemetry.registry.counter("sweep.quarantined").add(watchdog.quarantined)
    if telemetry is not None and cache_store is not None:
        # Delta against the pre-sweep snapshot, so a shared ResultCache
        # instance attributes each sweep only its own traffic.
        cache_after = cache_store.stats()
        for name in ("hits", "misses", "corrupt", "evictions"):
            telemetry.registry.counter(f"cache.{name}").add(
                cache_after[name] - cache_before.get(name, 0)
            )

    failures: List[JobFailure] = list(restored)
    for local_index, outcome in enumerate(outcomes):
        position = pending_positions[local_index]
        if isinstance(outcome, JobFailure):
            failures.append(
                replace(
                    outcome,
                    index=position,
                    coords=_job_coords(jobs[position]),
                )
            )
        else:
            results[position] = outcome
    failures.sort(key=lambda failure: failure.index)

    if telemetry is not None:
        telemetry.registry.counter("sweep.points_failed").add(len(failures))
    if tracker is not None:
        tracker.finish(failed=len(failures) - len(restored))

    if strict and failures:
        first = failures[0]
        raise WorkerError(
            f"sweep point {dict(first.coords)} failed: "
            f"{first.error_type}: {first.message}",
            coords=first.coords,
            traceback=first.traceback,
        )
    return SweepReport(
        points=[point for point in results if point is not None],
        failures=failures,
        total=len(jobs),
        resumed=len(restored),
        cached=cache_hits,
    )


def channel_sweep_configs(
    base: SystemConfig, channel_counts: Iterable[int]
) -> List[SystemConfig]:
    """Clone ``base`` across channel counts."""
    return [base.with_channels(m) for m in channel_counts]
