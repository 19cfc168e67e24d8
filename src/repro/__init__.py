"""repro: multi-channel memory simulation for video recording.

A from-scratch Python reproduction of *"A case for multi-channel
memories in video recording"* (Aho, Nikara, Tuominen, Kuusilinna --
Nokia Research Center, DATE 2009): a transaction-level simulator for
multi-channel mobile-DDR execution memories, driven by a complete
model of a camcorder's processing chain (image pipeline + H.264/AVC
encoding), with Micron-methodology DRAM power and 3D-stacking
interface power models.

Quickstart::

    from repro import (
        SystemConfig, level_by_name, simulate_use_case,
    )

    level = level_by_name("4")          # 1080p @ 30 fps
    config = SystemConfig(channels=4, freq_mhz=400.0)
    point = simulate_use_case(level, config)
    print(f"access time {point.access_time_ms:.1f} ms, "
          f"power {point.total_power_mw:.0f} mW, verdict {point.verdict}")

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

The heavy ``repro.analysis`` / ``repro.telemetry`` surfaces load
lazily (PEP 562): ``import repro`` pays for the simulation core only,
and e.g. ``repro.analysis.charts`` is imported the first time an
analysis name is actually touched.
"""

from repro.backends import (
    ChannelBackend,
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
)
from repro.controller import (
    AddressMultiplexing,
    ChannelRun,
    MasterTransaction,
    Op,
    PagePolicy,
)
from repro.core import (
    AnalyticModel,
    ChannelCluster,
    ChannelInterleaver,
    ClusteredMemorySystem,
    MultiChannelMemorySystem,
    SimulationResult,
    SystemConfig,
)
from repro.dram import (
    ImmediatePowerDown,
    NEXT_GEN_MOBILE_DDR,
    NoPowerDown,
    PowerModel,
    ProtocolChecker,
    TimeoutPowerDown,
    next_gen_mobile_ddr,
)
from repro.dram.datasheet import CONTEMPORARY_MOBILE_DDR, STANDARD_DDR2
from repro.load import (
    VideoRecordingLoadModel,
    choose_scale,
    pace_transactions,
    read_trace,
    write_trace,
)
from repro.power import (
    XDR_CELL_BE,
    compute_frame_power,
    interface_power_w,
)
from repro.resilience import (
    JobFailure,
    RetryPolicy,
    SweepReport,
)
from repro.usecase import (
    FORMAT_1080P,
    FORMAT_2160P,
    FORMAT_720P,
    FORMAT_WVGA,
    H264Level,
    PAPER_LEVELS,
    VideoRecordingUseCase,
    compute_table1,
    level_by_name,
)

__version__ = "1.0.0"

#: Names resolved lazily (PEP 562): attribute -> providing module.
#: ``import repro`` must stay cheap -- in particular it must NOT pull
#: in ``repro.analysis`` (and through it the chart/export machinery);
#: ``tests/test_import_cost.py`` pins that.  The telemetry surface is
#: listed for the same reason, although the simulation core's optional
#: telemetry taps already import ``repro.telemetry.session``.
_LAZY_ATTRS = {
    # analysis
    "RealTimeVerdict": "repro.analysis",
    "realtime_verdict": "repro.analysis",
    "compare_energy_strategies": "repro.analysis",
    "conclusions_summary": "repro.analysis",
    "find_minimum_power_configuration": "repro.analysis",
    "minimum_channels": "repro.analysis",
    "stage_breakdown": "repro.analysis",
    "run_fig3": "repro.analysis",
    "run_fig4": "repro.analysis",
    "run_fig5": "repro.analysis",
    "run_table1": "repro.analysis",
    "run_table2": "repro.analysis",
    "run_xdr_comparison": "repro.analysis",
    "simulate_use_case": "repro.analysis",
    "sweep_use_case": "repro.analysis",
    # oracle (pulls in repro.analysis, so it must stay lazy too)
    "CostPlanner": "repro.oracle",
    "FeasibilityOracle": "repro.oracle",
    "OracleAnswer": "repro.oracle",
    "SurrogateSurface": "repro.oracle",
    # telemetry
    "CallbackProgressSink": "repro.telemetry",
    "MetricsRegistry": "repro.telemetry",
    "PhaseProfiler": "repro.telemetry",
    "ProfileReport": "repro.telemetry",
    "ProgressEvent": "repro.telemetry",
    "ProgressSink": "repro.telemetry",
    "StreamProgressSink": "repro.telemetry",
    "Telemetry": "repro.telemetry",
    "validate_metrics": "repro.telemetry",
    "write_metrics": "repro.telemetry",
}


def __getattr__(name: str):
    """Resolve a lazily exported name (PEP 562) and cache it."""
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    """Advertise lazy names alongside the eagerly imported ones."""
    return sorted(set(globals()) | set(_LAZY_ATTRS))


__all__ = [
    # analysis (lazy)
    "RealTimeVerdict",
    "realtime_verdict",
    "compare_energy_strategies",
    "conclusions_summary",
    "find_minimum_power_configuration",
    "minimum_channels",
    "stage_breakdown",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_table1",
    "run_table2",
    "run_xdr_comparison",
    "simulate_use_case",
    "sweep_use_case",
    # oracle (lazy)
    "CostPlanner",
    "FeasibilityOracle",
    "OracleAnswer",
    "SurrogateSurface",
    # backends
    "ChannelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_default_backend",
    # controller
    "AddressMultiplexing",
    "ChannelRun",
    "MasterTransaction",
    "Op",
    "PagePolicy",
    # core
    "AnalyticModel",
    "ChannelCluster",
    "ChannelInterleaver",
    "ClusteredMemorySystem",
    "MultiChannelMemorySystem",
    "SimulationResult",
    "SystemConfig",
    # dram
    "CONTEMPORARY_MOBILE_DDR",
    "ImmediatePowerDown",
    "NEXT_GEN_MOBILE_DDR",
    "NoPowerDown",
    "PowerModel",
    "ProtocolChecker",
    "STANDARD_DDR2",
    "TimeoutPowerDown",
    "next_gen_mobile_ddr",
    # load
    "VideoRecordingLoadModel",
    "choose_scale",
    "pace_transactions",
    "read_trace",
    "write_trace",
    # power
    "XDR_CELL_BE",
    "compute_frame_power",
    "interface_power_w",
    # resilience
    "JobFailure",
    "RetryPolicy",
    "SweepReport",
    # telemetry (lazy)
    "CallbackProgressSink",
    "MetricsRegistry",
    "PhaseProfiler",
    "ProfileReport",
    "ProgressEvent",
    "ProgressSink",
    "StreamProgressSink",
    "Telemetry",
    "validate_metrics",
    "write_metrics",
    # usecase
    "FORMAT_1080P",
    "FORMAT_2160P",
    "FORMAT_720P",
    "FORMAT_WVGA",
    "H264Level",
    "PAPER_LEVELS",
    "VideoRecordingUseCase",
    "compute_table1",
    "level_by_name",
    "__version__",
]
