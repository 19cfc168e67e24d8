"""The feasibility oracle: interactive-rate answers to the paper's
question.

"Will memory configuration X sustain video format Y in real time, and
at what power?" is the query millions of hypothetical users ask, and
they ask it at interactive rates -- a serving problem, not a batch
problem.  :class:`FeasibilityOracle` answers it in microseconds when
it can and escalates only as far as the caller's accuracy budget
demands:

1. **surrogate** -- monotone interpolation over exact sweep points
   harvested from the result cache (:mod:`repro.oracle.surrogate`);
   microseconds, with an explicit confidence interval per answer;
2. **analytic** -- the closed-form backend within its documented 15 %
   tolerance; milliseconds;
3. **exact** -- a bit-identical backend (``batch``/``reference``),
   bit-identical to :func:`~repro.analysis.sweep.sweep_use_case`
   by construction (it *is* a one-point sweep, run through the same
   cache), with the computed point folded back into the cache and the
   in-memory surface so the oracle gets cheaper as it serves.

Every :class:`OracleAnswer` names the tier that answered and carries
its relative error bound plus the access-time/power confidence
interval -- a surrogate or analytic answer can never masquerade as
exact.  The escalation policy itself lives in
:class:`~repro.oracle.planner.CostPlanner`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro.keys as canonical_keys
from repro.analysis.realtime import (
    PAPER_MARGIN,
    RealTimeVerdict,
    realtime_verdict,
)
from repro.analysis.sweep import SweepPoint, point_key, sweep_use_case
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.errors import ConfigurationError
from repro.load.model import DEFAULT_BLOCK_BYTES
from repro.load.scaling import DEFAULT_CHUNK_BUDGET
from repro.oracle.planner import (
    TIER_ANALYTIC,
    TIER_EXACT,
    TIER_SURROGATE,
    CostPlanner,
)
from repro.oracle.surrogate import SurrogateSurface
from repro.service.cache import ResultCache, resolve_cache
from repro.telemetry.session import Telemetry
from repro.usecase.levels import H264Level, level_by_name
from repro.workloads.registry import WorkloadLike, resolve_workload
from repro.workloads.spec import BoundWorkload

#: Default relative access-time error budget: the analytic backend's
#: documented tolerance, i.e. "screening accuracy".
DEFAULT_ACCURACY = 0.15

#: Backends whose stored points may seed a surrogate surface -- all
#: bit-identical to ``reference``, so a surface only ever interpolates
#: between exact values.
EXACT_BACKENDS: Tuple[str, ...] = ("reference", "batch")

#: Point keys one oracle keeps (first in, first out past the bound), so
#: a stream of ever-new off-grid clocks cannot grow the memo forever.
POINT_KEY_MEMO_SIZE = 4096

#: Telemetry counters the oracle exports (pre-registered at zero so a
#: metrics dump shows them even before the first query).
_COUNTERS = (
    "oracle.queries",
    "oracle.escalations",
    "oracle.tier_hits.surrogate",
    "oracle.tier_hits.analytic",
    "oracle.tier_hits.exact",
)


@dataclass(frozen=True)
class OracleAnswer:
    """One feasibility answer, labelled with its provenance.

    ``tier`` names who answered (``surrogate`` / ``analytic`` /
    ``exact``); ``error_bound`` is that tier's relative access-time
    error (0.0 only for the exact tier) and ``[access_low_ms,
    access_high_ms]`` / ``[power_low_mw, power_high_mw]`` bound the
    true values.  ``verdict_certain`` says whether both interval
    endpoints classify to the same verdict -- when ``False`` the
    verdict is the point estimate's, and a caller who needs certainty
    should re-query with a tighter ``accuracy``.  ``escalations``
    counts the cheaper tiers rejected for this query.  ``point`` is
    the underlying :class:`~repro.analysis.sweep.SweepPoint` for
    simulated tiers (``None`` for surrogate answers).
    """

    level: str
    workload: str
    channels: int
    freq_mhz: float
    accuracy: float
    tier: str
    verdict: RealTimeVerdict
    feasible: bool
    access_time_ms: float
    access_low_ms: float
    access_high_ms: float
    total_power_mw: float
    power_low_mw: float
    power_high_mw: float
    error_bound: float
    verdict_certain: bool
    escalations: int
    point: Optional[SweepPoint] = None
    latency_s: float = 0.0

    def to_json(self) -> Dict[str, object]:
        """JSON-ready projection.

        Deterministic for a given query against given stores: the
        wall-clock ``latency_s`` and the ``point`` payload are
        excluded, so batch output is byte-stable across runs (a
        cache-served re-run answers identically to the run that
        computed the entries).
        """
        return {
            "level": self.level,
            "workload": self.workload,
            "channels": self.channels,
            "freq_mhz": self.freq_mhz,
            "accuracy": self.accuracy,
            "tier": self.tier,
            "verdict": self.verdict.value,
            "feasible": self.feasible,
            "access_time_ms": self.access_time_ms,
            "access_low_ms": self.access_low_ms,
            "access_high_ms": self.access_high_ms,
            "total_power_mw": self.total_power_mw,
            "power_low_mw": self.power_low_mw,
            "power_high_mw": self.power_high_mw,
            "error_bound": self.error_bound,
            "verdict_certain": self.verdict_certain,
            "escalations": self.escalations,
        }

    def describe(self) -> str:
        """One human-readable line."""
        certainty = "" if self.verdict_certain else " (verdict uncertain)"
        return (
            f"level {self.level} on {self.channels}ch @ {self.freq_mhz:g} MHz "
            f"[{self.workload}]: {self.verdict}{certainty} -- access "
            f"{self.access_time_ms:.3f} ms in [{self.access_low_ms:.3f}, "
            f"{self.access_high_ms:.3f}], power {self.total_power_mw:.1f} mW, "
            f"tier={self.tier}, err<={self.error_bound:.1%}"
        )


class FeasibilityOracle:
    """Low-latency feasibility query layer over the stored sweep work.

    ``cache`` (directory path or prepared
    :class:`~repro.service.cache.ResultCache`) is the harvest source
    for surrogate surfaces *and* the store exact answers are folded
    back into.
    ``scale`` / ``chunk_budget`` / ``block_bytes`` pin the simulation
    context; they are part of every canonical key, so an oracle only
    harvests points computed under the identical context.

    ``exact_backend`` pins the tier-3 backend (must be bit-identical);
    the default is ``batch``.  ``probe_channels`` x ``probe_freqs`` is
    the grid the harvester looks up in the stores (defaults to the
    paper grid).

    Thread-compatibility mirrors the rest of the package: one oracle
    per thread/process; the underlying cache is multi-process safe.
    """

    def __init__(
        self,
        cache: Optional[Union[str, Path, ResultCache]] = None,
        chunk_budget: int = DEFAULT_CHUNK_BUDGET,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        scale: Optional[float] = None,
        exact_backend: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        probe_channels: Sequence[int] = PAPER_CHANNEL_COUNTS,
        probe_freqs: Sequence[float] = PAPER_FREQUENCIES_MHZ,
        margin: float = PAPER_MARGIN,
    ) -> None:
        self.cache = resolve_cache(cache)
        self.chunk_budget = chunk_budget
        self.block_bytes = block_bytes
        self.scale = scale
        self.margin = margin
        self.planner = CostPlanner(exact_backend=exact_backend)
        self.telemetry = telemetry
        self.probe_channels = tuple(probe_channels)
        self.probe_freqs = tuple(probe_freqs)
        self._surfaces: Dict[tuple, SurrogateSurface] = {}
        self._point_keys: Dict[tuple, str] = {}
        if telemetry is not None:
            for name in _COUNTERS:
                telemetry.registry.counter(name).add(0)

    # -- harvesting ---------------------------------------------------------

    def _lookup(self, key: str) -> Optional[SweepPoint]:
        """One stored exact point by canonical key, if any (a negative
        entry is not a point)."""
        if self.cache is None or not self.cache.contains(key):
            return None
        hit = self.cache.get(key, lambda payload: isinstance(payload, SweepPoint))
        return hit if isinstance(hit, SweepPoint) else None

    def _context(self, level: H264Level, bound: BoundWorkload) -> tuple:
        """The plain tuple a (level, workload) is filed under: the
        level, the workload's name, resolved parameters and
        :meth:`~repro.workloads.spec.WorkloadSpec.structure_digest`, and
        this oracle's scale, chunk budget and block size -- the fields a
        canonical key would hash, compared by value."""
        return (
            level,
            bound.name,
            bound.params,
            bound.spec.structure_digest(),
            self.scale,
            self.chunk_budget,
            self.block_bytes,
        )

    def _point_key(
        self,
        context: tuple,
        level: H264Level,
        config: SystemConfig,
        bound: BoundWorkload,
    ) -> str:
        """The canonical :func:`~repro.analysis.sweep.point_key` of one
        of this oracle's points, computed once per process.

        Every config the oracle builds is the default
        :class:`~repro.core.config.SystemConfig` apart from its channel
        count, clock and backend, so those three fields, ``context``
        (:meth:`_context` of ``level`` and ``bound``) and the call-time
        :data:`repro.keys.ENGINE_VERSION` name the key: a repeated
        point hashes a small tuple instead of projecting its whole
        config, and a runtime version bump re-keys.
        """
        memo_key = (
            context,
            config.channels,
            config.freq_mhz,
            config.backend,
            canonical_keys.ENGINE_VERSION,
        )
        key = self._point_keys.get(memo_key)
        if key is None:
            key = point_key(
                level,
                config,
                scale=self.scale,
                chunk_budget=self.chunk_budget,
                block_bytes=self.block_bytes,
                workload=bound,
            )
            if len(self._point_keys) >= POINT_KEY_MEMO_SIZE:
                del self._point_keys[next(iter(self._point_keys))]
            self._point_keys[memo_key] = key
        return key

    def surface_for(
        self, level: H264Level, workload: WorkloadLike = None
    ) -> SurrogateSurface:
        """The (memoized) surrogate surface of one (level, workload).

        Built by *probing*: for every grid point and every exact
        backend, the point's canonical key -- the same
        :func:`~repro.analysis.sweep.point_key` a sweep files it
        under, workload identity included, got through
        :meth:`_point_key` -- is looked up in the attached cache.  No
        directory scanning, so a cache shared across workloads can
        never leak foreign points onto a surface.

        Built surfaces are filed in memory under the :meth:`_context`
        tuple (the workload's structure digest is stored on the spec
        after its first call), so a warm query hashes a few small
        objects instead of serialising the workload.
        """
        bound = (
            workload
            if isinstance(workload, BoundWorkload)
            else resolve_workload(workload)
        )
        context = self._context(level, bound)
        surface = self._surfaces.get(context)
        if surface is not None:
            return surface
        surface = SurrogateSurface()
        for channels in self.probe_channels:
            for freq in self.probe_freqs:
                base = SystemConfig(channels=channels, freq_mhz=freq)
                for backend in EXACT_BACKENDS:
                    point = self._lookup(
                        self._point_key(
                            context, level, base.with_backend(backend), bound
                        )
                    )
                    if point is not None:
                        surface.insert(point)
                        break
        self._surfaces[context] = surface
        return surface

    def warm(self, level: H264Level, workload: WorkloadLike = None) -> int:
        """Build the surface for (level, workload) now; returns the
        number of exact points harvested."""
        return len(self.surface_for(level, workload))

    # -- querying -----------------------------------------------------------

    def query(
        self,
        level: Union[H264Level, str],
        channels: int,
        freq_mhz: float,
        accuracy: float = DEFAULT_ACCURACY,
        workload: WorkloadLike = None,
    ) -> OracleAnswer:
        """Answer one feasibility question.

        ``accuracy`` is the relative access-time error the caller
        tolerates (0.0 demands an exact simulation).  The answer
        always names its tier and error bound; see
        :class:`OracleAnswer`.
        """
        start = time.perf_counter()
        if isinstance(level, str):
            level = level_by_name(level)
        if not math.isfinite(accuracy) or accuracy < 0:
            raise ConfigurationError(
                f"accuracy budget must be finite and >= 0, got {accuracy}"
            )
        bound = (
            workload
            if isinstance(workload, BoundWorkload)
            else resolve_workload(workload)
        )
        # Constructing the config validates channels and frequency
        # against the device envelope before any tier runs.
        config = SystemConfig(channels=channels, freq_mhz=freq_mhz)
        surface = self.surface_for(level, bound)
        answer = self._answer(level, config, accuracy, bound, surface, start)
        if self.telemetry is not None:
            registry = self.telemetry.registry
            registry.counter("oracle.queries").add(1)
            registry.counter(f"oracle.tier_hits.{answer.tier}").add(1)
            registry.counter("oracle.escalations").add(answer.escalations)
            registry.histogram("oracle.latency_seconds").record(
                answer.latency_s
            )
        return answer

    def _answer(
        self,
        level: H264Level,
        config: SystemConfig,
        accuracy: float,
        bound: BoundWorkload,
        surface: SurrogateSurface,
        start: float,
    ) -> OracleAnswer:
        """The answer to one validated query; ``latency_s`` is measured
        from ``start`` up to the answer's construction."""
        exact_hit = surface.exact(config.channels, config.freq_mhz)
        if exact_hit is not None:
            return self._from_point(
                level, config, accuracy, bound, exact_hit,
                tier=TIER_EXACT, error_bound=0.0, escalations=0, start=start,
            )
        estimate = surface.estimate(
            config.channels,
            config.freq_mhz,
            level.frame_period_ms,
            margin=self.margin,
        )
        plan = self.planner.plan(
            accuracy,
            surrogate_bound=(
                estimate.error_bound if estimate is not None else None
            ),
            surrogate_verdict_certain=(
                estimate.verdict_certain if estimate is not None else False
            ),
        )
        if plan.tier == TIER_SURROGATE:
            assert estimate is not None
            return OracleAnswer(
                level=level.name,
                workload=bound.name,
                channels=config.channels,
                freq_mhz=config.freq_mhz,
                accuracy=accuracy,
                tier=TIER_SURROGATE,
                verdict=estimate.verdict,
                feasible=estimate.verdict.feasible,
                access_time_ms=estimate.access_time_ms,
                access_low_ms=estimate.access_low_ms,
                access_high_ms=estimate.access_high_ms,
                total_power_mw=estimate.total_power_mw,
                power_low_mw=estimate.power_low_mw,
                power_high_mw=estimate.power_high_mw,
                error_bound=estimate.error_bound,
                verdict_certain=estimate.verdict_certain,
                escalations=plan.escalations,
                latency_s=time.perf_counter() - start,
            )
        point = self._simulate(level, config.with_backend(plan.backend), bound)
        if plan.tier == TIER_EXACT:
            # Exact work is never wasted: the point now serves future
            # grid-exact queries from the in-memory surface (and, via
            # the shared cache, future processes).
            surface.insert(point)
        return self._from_point(
            level, config, accuracy, bound, point,
            tier=plan.tier, error_bound=plan.error_bound,
            escalations=plan.escalations, start=start,
        )

    def _simulate(
        self, level: H264Level, config: SystemConfig, bound: BoundWorkload
    ) -> SweepPoint:
        """Run one point through the real sweep machinery.

        Going through :func:`~repro.analysis.sweep.sweep_use_case`
        (rather than ``simulate_use_case``) keeps the exact tier
        bit-identical to a sweep *by construction* and gives analytic
        and exact answers the cache fold-in/out for free.  The point's
        key comes from :meth:`_point_key` and rides into the sweep, so
        a stored answer costs one store read, not a re-projection of
        the whole config.
        """
        keys = None
        if self.cache is not None:
            keys = [
                self._point_key(self._context(level, bound), level, config, bound)
            ]
        report = sweep_use_case(
            [level],
            [config],
            scale=self.scale,
            chunk_budget=self.chunk_budget,
            block_bytes=self.block_bytes,
            cache=self.cache,
            workload=bound,
            telemetry=self.telemetry,
            _keys=keys,
        )
        return report[0]

    def _from_point(
        self,
        level: H264Level,
        config: SystemConfig,
        accuracy: float,
        bound: BoundWorkload,
        point: SweepPoint,
        tier: str,
        error_bound: float,
        escalations: int,
        start: float,
    ) -> OracleAnswer:
        access = point.access_time_ms
        power = point.total_power_mw
        access_low = access * (1.0 - error_bound)
        access_high = access * (1.0 + error_bound)
        power_low = power * (1.0 - error_bound)
        power_high = power * (1.0 + error_bound)
        if error_bound:
            verdict_certain = realtime_verdict(
                access_low, level.frame_period_ms, margin=self.margin
            ) is realtime_verdict(
                access_high, level.frame_period_ms, margin=self.margin
            )
        else:
            verdict_certain = True
        return OracleAnswer(
            level=level.name,
            workload=bound.name,
            channels=config.channels,
            freq_mhz=config.freq_mhz,
            accuracy=accuracy,
            tier=tier,
            verdict=point.verdict,
            feasible=point.verdict.feasible,
            access_time_ms=access,
            access_low_ms=access_low,
            access_high_ms=access_high,
            total_power_mw=power,
            power_low_mw=power_low,
            power_high_mw=power_high,
            error_bound=error_bound,
            verdict_certain=verdict_certain,
            escalations=escalations,
            point=point,
            latency_s=time.perf_counter() - start,
        )


#: Fields a batch query line may carry.
_BATCH_FIELDS = frozenset({"level", "channels", "freq_mhz", "accuracy", "workload"})
_BATCH_REQUIRED = frozenset({"level", "channels", "freq_mhz"})


def run_batch(oracle: FeasibilityOracle, lines: Iterable[str]) -> List[str]:
    """Answer one JSON query object per input line.

    Each line must be an object with ``level`` (name), ``channels``,
    ``freq_mhz`` and optionally ``accuracy`` / ``workload``; blank
    lines are skipped.  Returns one sorted-key JSON answer string per
    query, in input order -- deterministic, so two runs against the
    same stores produce byte-identical output.  Malformed input raises
    :class:`~repro.errors.ConfigurationError` naming the line.
    """
    answers: List[str] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"batch query line {number} is not valid JSON: {exc}"
            )
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"batch query line {number} must be a JSON object, got "
                f"{type(spec).__name__}"
            )
        unknown = sorted(set(spec) - _BATCH_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"batch query line {number} has unknown field(s) "
                f"{', '.join(unknown)}; allowed: {', '.join(sorted(_BATCH_FIELDS))}"
            )
        missing = sorted(_BATCH_REQUIRED - set(spec))
        if missing:
            raise ConfigurationError(
                f"batch query line {number} is missing required field(s) "
                f"{', '.join(missing)}"
            )
        answer = oracle.query(
            spec["level"],
            spec["channels"],
            spec["freq_mhz"],
            accuracy=spec.get("accuracy", DEFAULT_ACCURACY),
            workload=spec.get("workload"),
        )
        answers.append(json.dumps(answer.to_json(), sort_keys=True))
    return answers
