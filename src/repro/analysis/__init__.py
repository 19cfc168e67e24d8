"""Analysis harness: experiment runners for every paper table/figure.

- :mod:`repro.analysis.realtime` -- real-time requirement verdicts,
- :mod:`repro.analysis.tables` -- plain-text table formatting,
- :mod:`repro.analysis.sweep` -- configuration sweep machinery,
- :mod:`repro.analysis.experiments` -- Table I/II, Fig. 3/4/5 and XDR
  experiment runners.
"""

from repro.analysis.realtime import RealTimeVerdict, realtime_verdict
from repro.analysis.tables import format_table
from repro.analysis.sweep import SweepPoint, simulate_use_case, sweep_use_case
from repro.analysis.breakdown import StageBreakdown, StageCost, stage_breakdown
from repro.analysis.explorer import (
    EnergyStrategyComparison,
    compare_energy_strategies,
    find_minimum_power_configuration,
    minimum_channels,
)
from repro.analysis.export import (
    export_fig3,
    export_fig4,
    export_fig5,
    export_table1,
    export_xdr,
)
from repro.analysis.charts import fig3_chart, fig4_chart, fig5_chart, hbar_chart
from repro.analysis.steadystate import GopAnalysis, analyze_gop
from repro.analysis.reportgen import AnchorCheck, generate_report, write_report
from repro.analysis.validate import (
    ValidationCheck,
    ValidationSummary,
    validate_configuration,
)
from repro.analysis.sensitivity import (
    SensitivityResult,
    check_boundary_pattern,
    sweep_block_bytes,
    sweep_interconnect_overhead,
    sweep_queue_depth,
    sweep_reference_frames,
)
from repro.analysis.experiments import (
    run_table1,
    run_table2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_xdr_comparison,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    XdrComparisonResult,
)

__all__ = [
    "RealTimeVerdict",
    "realtime_verdict",
    "StageBreakdown",
    "StageCost",
    "stage_breakdown",
    "EnergyStrategyComparison",
    "compare_energy_strategies",
    "find_minimum_power_configuration",
    "minimum_channels",
    "export_fig3",
    "export_fig4",
    "export_fig5",
    "export_table1",
    "export_xdr",
    "fig3_chart",
    "fig4_chart",
    "fig5_chart",
    "hbar_chart",
    "GopAnalysis",
    "analyze_gop",
    "AnchorCheck",
    "generate_report",
    "write_report",
    "ValidationCheck",
    "ValidationSummary",
    "validate_configuration",
    "SensitivityResult",
    "check_boundary_pattern",
    "sweep_block_bytes",
    "sweep_interconnect_overhead",
    "sweep_queue_depth",
    "sweep_reference_frames",
    "format_table",
    "SweepPoint",
    "simulate_use_case",
    "sweep_use_case",
    "run_table1",
    "run_table2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_xdr_comparison",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "XdrComparisonResult",
]
