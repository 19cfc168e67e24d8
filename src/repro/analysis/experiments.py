"""Experiment runners: one per paper artifact.

Every table and figure of the paper's evaluation has a runner here
that regenerates its rows/series from the simulator:

=============  ========================================================
runner          paper artifact
=============  ========================================================
run_table1      Table I  -- per-stage bandwidth requirements
run_table2      Table II -- memory mapping over channels
run_fig3        Fig. 3   -- access time vs clock frequency (720p30)
run_fig4        Fig. 4   -- access time vs frame format (400 MHz)
run_fig5        Fig. 5   -- power vs frame format (400 MHz)
run_xdr_...     Section IV/V -- the Cell BE XDR comparison
=============  ========================================================

Each result object carries the raw numbers plus a ``format()`` method
producing the ASCII rendition the CLI and the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.realtime import RealTimeVerdict
from repro.analysis.sweep import (
    SweepPoint,
    channel_sweep_configs,
    sweep_use_case,
)
from repro.analysis.tables import format_table
from repro.core.config import (
    PAPER_CHANNEL_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    SystemConfig,
)
from repro.core.interleave import ChannelInterleaver
from repro.errors import ConfigurationError
from repro.power.xdr import XDR_CELL_BE, XdrReference
from repro.resilience.report import JobFailure
from repro.telemetry.progress import ProgressSink
from repro.telemetry.session import Telemetry
from repro.usecase.bandwidth import BandwidthTable, compute_table1
from repro.usecase.levels import PAPER_LEVELS, H264Level, level_by_name
from repro.workloads.registry import WorkloadLike

#: Cell shown for a sweep point that failed under ``strict=False``.
FAILED_CELL = "ERR"


def _failure_legend(failures: Sequence[JobFailure]) -> str:
    """Annotation block appended to a figure rendition when some sweep
    points failed under graceful degradation."""
    lines = [f"{len(failures)} point(s) failed (ERR cells):"]
    lines += [f"  {failure.describe()}" for failure in failures]
    return "\n".join(lines)

# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def run_table1(levels: Sequence[H264Level] = PAPER_LEVELS) -> BandwidthTable:
    """Regenerate Table I (purely analytic: the Fig. 1 model)."""
    return compute_table1(levels)


def format_table1(table: BandwidthTable) -> str:
    """ASCII rendition of Table I."""
    return format_table(table.as_rows())


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Result:
    """Regenerated Table II for one channel count."""

    channels: int
    rows: Tuple[Tuple[str, str], ...]

    def format(self) -> str:
        """ASCII rendition (address range -> bank cluster)."""
        table = [["Address", "Bank cluster"]] + [list(r) for r in self.rows]
        return format_table(table)


def run_table2(channels: int = 8) -> Table2Result:
    """Regenerate Table II: the address-to-channel interleaving map."""
    interleaver = ChannelInterleaver(channels)
    return Table2Result(channels=channels, rows=tuple(interleaver.table2_rows()))


# ---------------------------------------------------------------------------
# Fig. 3: access time vs clock frequency (720p, one frame, 30 fps line)
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    """Fig. 3 data: access time [ms] per (frequency, channel count)."""

    level: H264Level
    frequencies_mhz: Tuple[float, ...]
    channel_counts: Tuple[int, ...]
    #: access_ms[freq][channels]
    access_ms: Dict[float, Dict[int, float]]
    verdicts: Dict[float, Dict[int, RealTimeVerdict]]
    #: Sweep points that failed (graceful degradation, ``strict=False``);
    #: their cells render as :data:`FAILED_CELL`.
    failures: Tuple[JobFailure, ...] = ()

    @property
    def realtime_requirement_ms(self) -> float:
        """The red line of Fig. 3."""
        return self.level.frame_period_ms

    def as_records(self) -> List[Dict[str, object]]:
        """Flat per-point records in sweep order: ``freq_mhz``,
        ``channels``, ``access_ms``, ``verdict``.  Failed cells
        (graceful degradation) are omitted.  Shared by the CSV
        exporter and the golden-baseline store
        (:mod:`repro.regression`)."""
        records: List[Dict[str, object]] = []
        for freq in self.frequencies_mhz:
            for channels in self.channel_counts:
                if channels not in self.access_ms.get(freq, {}):
                    continue
                records.append(
                    {
                        "freq_mhz": freq,
                        "channels": channels,
                        "access_ms": self.access_ms[freq][channels],
                        "verdict": str(self.verdicts[freq][channels]),
                    }
                )
        return records

    def format(self) -> str:
        """ASCII rendition: one row per frequency, one column per
        channel count, with the paper's verdict annotations."""
        header = ["Clock [MHz]"] + [f"{m} ch [ms]" for m in self.channel_counts]
        rows: List[List[str]] = [header]
        for f in self.frequencies_mhz:
            row = [f"{f:g}"]
            for m in self.channel_counts:
                if m not in self.access_ms.get(f, {}):
                    row.append(FAILED_CELL)
                    continue
                cell = f"{self.access_ms[f][m]:.1f}"
                verdict = self.verdicts[f][m]
                if verdict is RealTimeVerdict.FAIL:
                    cell += " !"
                elif verdict is RealTimeVerdict.MARGINAL:
                    cell += " ~"
                row.append(cell)
            rows.append(row)
        legend = (
            f"real-time requirement for {self.level.fps} fps: "
            f"{self.realtime_requirement_ms:.1f} ms   (! = fail, ~ = marginal)"
        )
        out = format_table(rows) + "\n" + legend
        if self.failures:
            out += "\n" + _failure_legend(self.failures)
        return out


def run_fig3(
    frequencies_mhz: Sequence[float] = PAPER_FREQUENCIES_MHZ,
    channel_counts: Sequence[int] = PAPER_CHANNEL_COUNTS,
    base_config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
    chunk_budget: Optional[int] = None,
    workers: Optional[int] = None,
    strict: bool = True,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressSink] = None,
    backend: Optional[str] = None,
    point_timeout: Optional[float] = None,
    cache: Optional[Union[str, Path]] = None,
    workload: WorkloadLike = None,
    resume: bool = False,
) -> Fig3Result:
    """Regenerate Fig. 3: sweep the interface clock for the least
    demanding HD level (3.1: 720p at 30 fps) over 1-8 channels.

    ``workers`` distributes the (frequency, channel-count) points over
    worker processes (0 = one per CPU); results are identical.
    ``backend`` selects the simulation backend for every point (see
    :mod:`repro.backends`).  ``strict=False`` renders failed points as
    ERR cells instead of raising; ``point_timeout`` puts every point
    under watchdog supervision (hung points are killed, requeued and
    eventually quarantined as ERR cells -- see
    :func:`repro.analysis.sweep.sweep_use_case`); ``cache`` names a
    persistent content-addressed result store directory, so a warm
    cache regenerates the figure without simulating anything and an
    interrupted run recomputes only the missing points; ``resume``
    also serves the points an earlier run quarantined as ERR cells."""
    level = level_by_name("3.1")
    base = base_config if base_config is not None else SystemConfig()
    kwargs = {} if chunk_budget is None else {"chunk_budget": chunk_budget}
    configs = [
        config
        for f in frequencies_mhz
        for config in channel_sweep_configs(base.with_frequency(f), channel_counts)
    ]
    report = sweep_use_case(
        [level],
        configs,
        scale=scale,
        workers=workers,
        strict=strict,
        telemetry=telemetry,
        progress=progress,
        backend=backend,
        point_timeout=point_timeout,
        cache=cache,
        workload=workload,
        resume=resume,
        **kwargs,
    )
    access: Dict[float, Dict[int, float]] = {}
    verdicts: Dict[float, Dict[int, RealTimeVerdict]] = {}
    for point in report:
        f = point.config.freq_mhz
        access.setdefault(f, {})[point.config.channels] = point.access_time_ms
        verdicts.setdefault(f, {})[point.config.channels] = point.verdict
    return Fig3Result(
        level=level,
        frequencies_mhz=tuple(frequencies_mhz),
        channel_counts=tuple(channel_counts),
        access_ms=access,
        verdicts=verdicts,
        failures=tuple(report.failures),
    )


# ---------------------------------------------------------------------------
# Fig. 4: access time vs frame format at 400 MHz
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Fig. 4 data: access time [ms] per (level, channel count)."""

    levels: Tuple[H264Level, ...]
    channel_counts: Tuple[int, ...]
    freq_mhz: float
    #: points[level_name][channels]
    points: Dict[str, Dict[int, SweepPoint]]
    #: Sweep points that failed (graceful degradation, ``strict=False``);
    #: their cells render as :data:`FAILED_CELL`.
    failures: Tuple[JobFailure, ...] = ()

    def access_ms(self, level_name: str, channels: int) -> float:
        """Access time of one bar."""
        return self.points[level_name][channels].access_time_ms

    def verdict(self, level_name: str, channels: int) -> RealTimeVerdict:
        """Feasibility of one bar."""
        return self.points[level_name][channels].verdict

    def as_records(self) -> List[Dict[str, object]]:
        """Flat per-point records: ``level``, ``format``, ``fps``,
        ``channels``, ``access_ms``, ``verdict``.  Failed cells are
        omitted.  Shared by the CSV exporter and the golden store."""
        records: List[Dict[str, object]] = []
        for level in self.levels:
            for channels in self.channel_counts:
                point = self.points.get(level.name, {}).get(channels)
                if point is None:
                    continue
                records.append(
                    {
                        "level": level.name,
                        "format": level.frame.name,
                        "fps": level.fps,
                        "channels": channels,
                        "access_ms": point.access_time_ms,
                        "verdict": str(point.verdict),
                    }
                )
        return records

    def format(self) -> str:
        """ASCII rendition: rows = formats, columns = channel counts."""
        header = ["Frame format"] + [f"{m} ch [ms]" for m in self.channel_counts]
        rows: List[List[str]] = [header]
        for level in self.levels:
            row = [level.column_title]
            for m in self.channel_counts:
                point = self.points.get(level.name, {}).get(m)
                if point is None:
                    row.append(FAILED_CELL)
                    continue
                cell = f"{point.access_time_ms:.1f}"
                if point.verdict is RealTimeVerdict.FAIL:
                    cell += " !"
                elif point.verdict is RealTimeVerdict.MARGINAL:
                    cell += " ~"
                row.append(cell)
            rows.append(row)
        legend = (
            f"clock {self.freq_mhz:g} MHz; requirement 33.3 ms @30 fps / "
            "16.7 ms @60 fps   (! = fail, ~ = marginal)"
        )
        out = format_table(rows) + "\n" + legend
        if self.failures:
            out += "\n" + _failure_legend(self.failures)
        return out


def run_fig4(
    levels: Sequence[H264Level] = PAPER_LEVELS,
    channel_counts: Sequence[int] = PAPER_CHANNEL_COUNTS,
    freq_mhz: float = 400.0,
    base_config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
    chunk_budget: Optional[int] = None,
    workers: Optional[int] = None,
    strict: bool = True,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressSink] = None,
    backend: Optional[str] = None,
    point_timeout: Optional[float] = None,
    cache: Optional[Union[str, Path]] = None,
    workload: WorkloadLike = None,
    resume: bool = False,
) -> Fig4Result:
    """Regenerate Fig. 4: frame-format sweep at a 400 MHz clock.

    ``workers`` distributes the (level, channel-count) points over
    worker processes (0 = one per CPU); results are identical.
    ``backend`` selects the simulation backend for every point.
    ``strict=False`` renders failed points as ERR cells instead of
    raising; ``point_timeout`` puts every point under watchdog
    supervision; ``cache`` names a persistent content-addressed result
    store directory shared across figures (Fig. 4 and Fig. 5 sweep
    identical points, so either warms the cache for both); ``resume``
    also serves the points an earlier run quarantined as ERR cells."""
    base = (base_config if base_config is not None else SystemConfig()).with_frequency(
        freq_mhz
    )
    kwargs = {} if chunk_budget is None else {"chunk_budget": chunk_budget}
    report = sweep_use_case(
        levels,
        channel_sweep_configs(base, channel_counts),
        scale=scale,
        workers=workers,
        strict=strict,
        telemetry=telemetry,
        progress=progress,
        backend=backend,
        point_timeout=point_timeout,
        cache=cache,
        workload=workload,
        resume=resume,
        **kwargs,
    )
    points: Dict[str, Dict[int, SweepPoint]] = {}
    for point in report:
        points.setdefault(point.level.name, {})[point.config.channels] = point
    return Fig4Result(
        levels=tuple(levels),
        channel_counts=tuple(channel_counts),
        freq_mhz=freq_mhz,
        points=points,
        failures=tuple(report.failures),
    )


# ---------------------------------------------------------------------------
# Fig. 5: power vs frame format at 400 MHz
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    """Fig. 5 data: frame-average power per (level, channel count).

    ``reported_power_mw`` follows the paper's convention: zero for
    configurations that miss the real-time requirement.
    """

    fig4: Fig4Result

    @property
    def levels(self) -> Tuple[H264Level, ...]:
        """Levels on the x axis."""
        return self.fig4.levels

    @property
    def channel_counts(self) -> Tuple[int, ...]:
        """Bar groups."""
        return self.fig4.channel_counts

    @property
    def failures(self) -> Tuple[JobFailure, ...]:
        """Failed sweep points (graceful degradation)."""
        return self.fig4.failures

    def point(self, level_name: str, channels: int) -> SweepPoint:
        """One bar's underlying sweep point."""
        return self.fig4.points[level_name][channels]

    def as_records(self) -> List[Dict[str, object]]:
        """Flat per-point records: ``level``, ``channels``,
        ``power_mw`` (the bar height: 0 when real time is missed),
        ``raw_power_mw``, ``interface_mw``, ``verdict``.  Failed cells
        are omitted.  Shared by the CSV exporter and the golden
        store."""
        records: List[Dict[str, object]] = []
        for level in self.levels:
            for channels in self.channel_counts:
                point = self.fig4.points.get(level.name, {}).get(channels)
                if point is None:
                    continue
                records.append(
                    {
                        "level": level.name,
                        "channels": channels,
                        "power_mw": point.reported_power_mw,
                        "raw_power_mw": point.total_power_mw,
                        "interface_mw": point.power.interface_power_w * 1e3,
                        "verdict": str(point.verdict),
                    }
                )
        return records

    def format(self) -> str:
        """ASCII rendition with total and interface power per bar."""
        header = ["Frame format"] + [
            f"{m} ch [mW]" for m in self.channel_counts
        ]
        rows: List[List[str]] = [header]
        for level in self.levels:
            row = [level.column_title]
            for m in self.channel_counts:
                point = self.fig4.points.get(level.name, {}).get(m)
                if point is None:
                    row.append(FAILED_CELL)
                    continue
                if point.verdict is RealTimeVerdict.FAIL:
                    row.append("0 !")
                else:
                    cell = (
                        f"{point.total_power_mw:.0f}"
                        f" (if {point.power.interface_power_w * 1e3:.1f})"
                    )
                    if point.verdict is RealTimeVerdict.MARGINAL:
                        cell += " ~"
                    row.append(cell)
            rows.append(row)
        legend = (
            f"clock {self.fig4.freq_mhz:g} MHz; 0 = misses real time "
            "(paper: zero bars); (if x.x) = equation-(1) interface share; "
            "~ = MARGINAL"
        )
        out = format_table(rows) + "\n" + legend
        if self.failures:
            out += "\n" + _failure_legend(self.failures)
        return out


def run_fig5(
    levels: Sequence[H264Level] = PAPER_LEVELS,
    channel_counts: Sequence[int] = PAPER_CHANNEL_COUNTS,
    freq_mhz: float = 400.0,
    base_config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
    chunk_budget: Optional[int] = None,
    workers: Optional[int] = None,
    strict: bool = True,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressSink] = None,
    backend: Optional[str] = None,
    point_timeout: Optional[float] = None,
    cache: Optional[Union[str, Path]] = None,
    workload: WorkloadLike = None,
    resume: bool = False,
) -> Fig5Result:
    """Regenerate Fig. 5.  Shares Fig. 4's sweep (the paper derives
    both from the same simulations) -- including its result cache, so
    a Fig. 5 run reuses a Fig. 4 run's completed points."""
    return Fig5Result(
        fig4=run_fig4(
            levels=levels,
            channel_counts=channel_counts,
            freq_mhz=freq_mhz,
            base_config=base_config,
            scale=scale,
            chunk_budget=chunk_budget,
            workers=workers,
            strict=strict,
            telemetry=telemetry,
            progress=progress,
            backend=backend,
            point_timeout=point_timeout,
            cache=cache,
            workload=workload,
            resume=resume,
        )
    )


# ---------------------------------------------------------------------------
# XDR comparison (Section IV / V)
# ---------------------------------------------------------------------------


@dataclass
class XdrComparisonResult:
    """The 8-channel vs Cell BE XDR comparison."""

    reference: XdrReference
    peak_bandwidth_bytes_per_s: float
    #: level name -> (power_mw, ratio to XDR power), feasible levels only.
    per_level: Dict[str, Tuple[float, float]]

    @property
    def power_ratio_range(self) -> Tuple[float, float]:
        """(min, max) fraction of the XDR power across formats --
        the paper quotes 4 % to 25 %."""
        if not self.per_level:
            raise ConfigurationError("no feasible level to compare")
        ratios = [ratio for _, ratio in self.per_level.values()]
        return min(ratios), max(ratios)

    def format(self) -> str:
        """ASCII rendition of the comparison."""
        rows: List[List[str]] = [["Format", "Power [mW]", "% of XDR 5 W"]]
        for name, (power_mw, ratio) in self.per_level.items():
            rows.append([name, f"{power_mw:.0f}", f"{ratio * 100:.0f} %"])
        if not self.per_level:
            return format_table(rows) + "\nno feasible level to compare"
        lo, hi = self.power_ratio_range
        legend = (
            f"8-channel peak bandwidth "
            f"{self.peak_bandwidth_bytes_per_s / 1e9:.1f} GB/s vs "
            f"{self.reference.name} {self.reference.bandwidth_bytes_per_s / 1e9:.1f} "
            f"GB/s at {self.reference.power_w:g} W; power ratio "
            f"{lo * 100:.0f} %-{hi * 100:.0f} % (paper: 4 %-25 %)"
        )
        return format_table(rows) + "\n" + legend


def run_xdr_comparison(
    fig5: Optional[Fig5Result] = None,
    channels: int = 8,
    freq_mhz: float = 400.0,
    reference: XdrReference = XDR_CELL_BE,
    base_config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
    chunk_budget: Optional[int] = None,
    workers: Optional[int] = None,
    strict: bool = True,
    telemetry: Optional[Telemetry] = None,
    progress: Optional[ProgressSink] = None,
    backend: Optional[str] = None,
    point_timeout: Optional[float] = None,
    cache: Optional[Union[str, Path]] = None,
    workload: WorkloadLike = None,
    resume: bool = False,
) -> XdrComparisonResult:
    """Compare the 8-channel configuration's power against the XDR
    reference across the encoding formats (Section IV).

    Failed sweep points (graceful degradation) are omitted from the
    comparison, exactly as infeasible levels are."""
    if fig5 is None:
        fig5 = run_fig5(
            channel_counts=(channels,),
            freq_mhz=freq_mhz,
            base_config=base_config,
            scale=scale,
            chunk_budget=chunk_budget,
            workers=workers,
            strict=strict,
            telemetry=telemetry,
            progress=progress,
            backend=backend,
            point_timeout=point_timeout,
            cache=cache,
            workload=workload,
            resume=resume,
        )
    config = SystemConfig(channels=channels, freq_mhz=freq_mhz)
    per_level: Dict[str, Tuple[float, float]] = {}
    for level in fig5.levels:
        point = fig5.fig4.points.get(level.name, {}).get(channels)
        if point is None or point.verdict is RealTimeVerdict.FAIL:
            continue
        power_w = point.power.total_power_w
        per_level[level.column_title] = (
            power_w * 1e3,
            reference.power_ratio(power_w),
        )
    return XdrComparisonResult(
        reference=reference,
        peak_bandwidth_bytes_per_s=config.peak_bandwidth_bytes_per_s,
        per_level=per_level,
    )
