"""Command-line interface: regenerate any paper artifact.

Usage::

    repro-sim table1
    repro-sim table2 --channels 8
    repro-sim fig3  [--scale 0.125] [--csv DIR]
    repro-sim fig4  [--freq 400]
    repro-sim fig5
    repro-sim xdr
    repro-sim breakdown [--level 4 --channels 4]
    repro-sim explore   [--level 4.2]
    repro-sim profile fig3 [--freq 400]
    repro-sim verify-paper [--update] [--goldens DIR]
    repro-sim fuzz [--cases 100 --seed 0]
    repro-sim chaos [--seeds 1,5,17]
    repro-sim sweep [--levels 3.1,4 --channels 1,2,4,8 --freqs 200,400]
    repro-sim query [--level 4 --channels 4 --freq 400] [--json]
    repro-sim query --batch < queries.jsonl
    repro-sim workloads
    repro-sim all

Every subcommand prints the regenerated table/figure as ASCII; pass
``--csv DIR`` to also write the raw data as CSV files.  See
EXPERIMENTS.md for how the output maps onto the paper's artifacts.

``--workers N`` runs the sweeps behind fig3/fig4/fig5/xdr/explore on N
worker processes (0 = one per CPU); the artifacts are bit-identical to
the sequential default.

``--backend NAME`` selects the simulation backend for every simulated
point (see :mod:`repro.backends` and docs/architecture.md, Backends):
``reference`` (default, exact), ``batch`` (bit-identical segment
decode + cross-point caching + closed-form batching, an order of
magnitude faster) or ``analytic`` (closed-form screening).  ``explore
--prescreen analytic`` screens the design grid closed-form and refines
only plausible points under ``--backend``.

``--workload NAME`` selects the workload spec every simulated point
models (see :mod:`repro.workloads` and docs/architecture.md,
Workloads): ``h264_camcorder`` (default, the paper's Fig. 1 pipeline),
``vvc_encoder``, ``h264_lossy_ec`` or ``vdcm_display``.  Repeatable
``--workload-param NAME=VALUE`` overrides spec parameters (validated
against the spec's schema).  ``workloads`` lists every registered spec
with its parameters and stages.  Table I/II and ``verify-paper`` are
paper artifacts and always use the camcorder.

Fault tolerance (see :mod:`repro.resilience`):

- ``--cache-dir DIR`` attaches the persistent content-addressed result
  cache (see :mod:`repro.service.cache`): every completed sweep point
  is stored under its canonical job key (configuration, backend,
  engine version) as it finishes and served from disk on any later
  run -- across subcommands and processes, so warming the cache once
  replays fig3/fig4/fig5/verify-paper in seconds, and an interrupted
  run re-run against the same DIR recomputes only the missing work.
  Corrupt entries degrade to a recompute with a warning; under strict
  mode (the default) the run then exits non-zero to flag the damaged
  store, under ``--no-strict`` it is tolerated silently.
- ``--point-timeout SECONDS`` puts every sweep point under watchdog
  supervision: a point still running after the deadline has its worker
  killed and is requeued; a point that hangs on every permitted
  attempt is quarantined -- an ERR cell under ``--no-strict``, an
  error naming the point otherwise -- and stored in ``--cache-dir`` as
  a negative entry.
- ``--resume`` (requires ``--cache-dir``) reruns against that store
  and also serves its negative entries as their recorded failures, so
  a resumed run never hangs on the same point again.  Without it a
  quarantined point is retried.
- ``--no-strict`` degrades gracefully: failed sweep points render as
  ERR cells instead of aborting the artifact.
- ``sweep`` runs an ad-hoc (levels x channels x frequencies) grid
  through :func:`~repro.analysis.sweep.sweep_use_case`, the same
  engine as every figure: the same result cache, the same
  ``--workers``/``--point-timeout`` supervision and the same
  ``--metrics-out`` telemetry.
- ``--check-invariants`` audits every simulated command stream against
  the DRAM datasheet timing (slower; a validation mode).
- ``chaos`` runs the seeded chaos campaign: a real sweep under
  randomized crash/stall/torn-write injection, asserting the final
  report is bit-identical to an undisturbed run; exits non-zero on
  divergence and prints the failing seed for reproduction.

Feasibility oracle (see :mod:`repro.oracle`):

- ``query`` asks the feasibility oracle one question -- will
  (``--channels``, ``--freq``) sustain ``--level`` in real time, at
  what power -- and answers from the cheapest adequate tier:
  surrogate interpolation over the exact points already in
  ``--cache-dir`` (microseconds), the analytic
  backend, or an exact simulation when ``--accuracy`` demands it.
  Every answer names its tier and error bound.  ``--json`` emits the
  answer as sorted-key JSON; ``--batch`` reads one JSON query object
  per stdin line and writes one JSON answer per line
  (deterministically, so output is byte-stable across runs).

Observability (see :mod:`repro.telemetry`):

- ``--metrics-out FILE`` writes the run's metrics registry and phase
  profile to FILE as JSON under the documented ``repro-metrics/1``
  schema; works with every subcommand.
- ``--progress`` prints per-point sweep heartbeats (done/total, ETA,
  failures) to stderr while a sweep runs.
- ``profile <figure>`` runs one figure's sweep with profiling on and
  prints the phase breakdown plus the engine statistics.

Regression (see :mod:`repro.regression` and docs/architecture.md,
Regression & goldens):

- ``verify-paper`` regenerates every paper artifact and compares it
  cell by cell against the committed golden baselines, exiting
  non-zero on any out-of-tolerance cell; ``--update`` recaptures the
  goldens instead (requires a bit-identical backend), ``--goldens
  DIR`` points at an alternative golden store.
- ``fuzz`` runs a seeded differential-fuzzing campaign: every case
  under ``batch``/``analytic`` vs the reference, plus metamorphic
  invariant checks; exits non-zero on any mismatch.  ``--repro
  STRING`` replays a single failure repro instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.breakdown import stage_breakdown
from repro.analysis.experiments import (
    format_table1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
    run_xdr_comparison,
)
from repro.analysis.explorer import (
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
from repro.core.config import SystemConfig
from repro.telemetry import StreamProgressSink, Telemetry, write_metrics
from repro.usecase.levels import level_by_name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Regenerate the tables and figures of 'A case for multi-channel "
            "memories in video recording' (DATE 2009)."
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload fraction to simulate (default: automatic)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="simulated-burst budget used for automatic scaling",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep simulation (0 = one per CPU; "
            "default: in-process); results are bit-identical either way"
        ),
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "simulation backend for every simulated point: 'reference' "
            "(exact event-driven engine, the default), 'batch' "
            "(bit-identical closed-form batching, ~10x+) or 'analytic' "
            "(closed-form screening); see docs/architecture.md, Backends"
        ),
    )
    parser.add_argument(
        "--workload",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "workload spec for every simulated point: 'h264_camcorder' "
            "(the paper's Fig. 1 pipeline, the default), 'vvc_encoder', "
            "'h264_lossy_ec' or 'vdcm_display'; run 'repro-sim "
            "workloads' for details (docs/architecture.md, Workloads)"
        ),
    )
    parser.add_argument(
        "--workload-param",
        dest="workload_params",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help=(
            "override one workload parameter (repeatable), e.g. "
            "--workload-param intra_only=true --workload-param "
            "encoder_factor=8; validated against the spec's schema"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "rerun against --cache-dir DIR: serve its stored points and "
            "the points an earlier run quarantined (as ERR cells) "
            "instead of retrying them; requires --cache-dir"
        ),
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock deadline per sweep point (watchdog supervision): "
            "hung points are killed, requeued, and quarantined as ERR "
            "cells (stored in --cache-dir) when they hang on every attempt"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "persistent content-addressed result cache: completed sweep "
            "points are stored in DIR as they finish, keyed by their full "
            "job description (configuration, backend, engine version), and "
            "served from disk on re-runs, so an interrupted run recomputes "
            "only the missing points; corrupt entries are recomputed with "
            "a warning (non-zero exit under strict mode)"
        ),
    )
    parser.add_argument(
        "--no-strict",
        dest="strict",
        action="store_false",
        help=(
            "degrade gracefully: render failed sweep points as ERR cells "
            "instead of aborting the artifact"
        ),
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help=(
            "audit every simulated DRAM command stream against the "
            "datasheet timing constraints (slower; validation mode)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "write the run's metrics and phase profile to FILE as JSON "
            "(schema 'repro-metrics/1'; see docs/architecture.md)"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print sweep heartbeats (done/total, ETA) to stderr",
    )
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        metavar="DIR",
        help="also write the artifact's data as CSV files into DIR",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figures as terminal bar charts as well as tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: per-stage bandwidth requirements")

    p_t2 = sub.add_parser("table2", help="Table II: memory mapping over channels")
    p_t2.add_argument("--channels", type=int, default=8, help="channel count M")

    sub.add_parser("fig3", help="Fig. 3: access time vs clock frequency")

    p_f4 = sub.add_parser("fig4", help="Fig. 4: access time vs frame format")
    p_f4.add_argument("--freq", type=float, default=400.0, help="clock, MHz")

    p_f5 = sub.add_parser("fig5", help="Fig. 5: power vs frame format")
    p_f5.add_argument("--freq", type=float, default=400.0, help="clock, MHz")

    sub.add_parser("xdr", help="Section IV: XDR power comparison")

    p_bd = sub.add_parser(
        "breakdown", help="per-stage access-time/energy attribution"
    )
    p_bd.add_argument("--level", type=str, default="4", help="H.264 level name")
    p_bd.add_argument("--channels", type=int, default=4, help="channel count")
    p_bd.add_argument("--freq", type=float, default=400.0, help="clock, MHz")

    p_ex = sub.add_parser(
        "explore", help="minimum channels and cheapest design point for a level"
    )
    p_ex.add_argument("--level", type=str, default="4", help="H.264 level name")
    p_ex.add_argument(
        "--prescreen",
        type=str,
        default=None,
        metavar="BACKEND",
        help=(
            "pre-screen the design grid under BACKEND (typically "
            "'analytic') and refine only the plausible points under "
            "--backend (docs/cookbook.md: screen-then-confirm)"
        ),
    )

    p_prof = sub.add_parser(
        "profile",
        help="run one figure's sweep with profiling and print the breakdown",
    )
    p_prof.add_argument(
        "figure",
        choices=("fig3", "fig4", "fig5", "xdr"),
        help="which figure's sweep to profile",
    )
    p_prof.add_argument(
        "--freq", type=float, default=400.0, help="clock for fig4/fig5, MHz"
    )

    p_rep = sub.add_parser(
        "report", help="write a full reproduction report (markdown)"
    )
    p_rep.add_argument(
        "--out", type=str, default="REPORT.md", help="output markdown path"
    )

    p_val = sub.add_parser(
        "validate", help="run every correctness oracle for one design point"
    )
    p_val.add_argument("--level", type=str, default="4", help="H.264 level name")
    p_val.add_argument("--channels", type=int, default=4, help="channel count")
    p_val.add_argument("--freq", type=float, default=400.0, help="clock, MHz")

    p_vp = sub.add_parser(
        "verify-paper",
        help="check every regenerated artifact against the golden baselines",
    )
    p_vp.add_argument(
        "--update",
        action="store_true",
        help=(
            "recapture the golden files from the current tree instead of "
            "verifying (requires a bit-identical backend)"
        ),
    )
    p_vp.add_argument(
        "--goldens",
        type=str,
        default=None,
        metavar="DIR",
        help="golden store directory (default: the committed baselines)",
    )

    p_fz = sub.add_parser(
        "fuzz",
        help="differentially fuzz every backend against the reference",
    )
    p_fz.add_argument(
        "--cases", type=int, default=100, help="number of generated cases"
    )
    p_fz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (deterministic)"
    )
    p_fz.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="report failures unshrunk (faster on a failing tree)",
    )
    p_fz.add_argument(
        "--no-invariants",
        dest="invariants",
        action="store_false",
        help="skip the metamorphic invariant checks",
    )
    p_fz.add_argument(
        "--repro",
        type=str,
        default=None,
        metavar="STRING",
        help="replay one failure repro string instead of a campaign",
    )

    p_ch = sub.add_parser(
        "chaos",
        help=(
            "seeded chaos campaign: sweep under randomized "
            "crash/stall/torn-write injection, assert bit-identity"
        ),
    )
    p_ch.add_argument(
        "--seeds",
        type=str,
        default="1,5,17",
        metavar="LIST",
        help="comma-separated campaign seeds (default: 1,5,17)",
    )
    p_ch.add_argument(
        "--max-attempts",
        type=int,
        default=8,
        metavar="N",
        help="resume attempts per seed before giving up (default: 8)",
    )

    p_sw = sub.add_parser(
        "sweep",
        help=(
            "run an ad-hoc (levels x channels x frequencies) grid "
            "through the same sweep engine as every figure"
        ),
    )
    p_sw.add_argument(
        "--levels",
        type=str,
        default="3.1",
        metavar="LIST",
        help="comma-separated H.264 level names (default: 3.1)",
    )
    p_sw.add_argument(
        "--channels",
        type=str,
        default="1,2,4,8",
        metavar="LIST",
        help="comma-separated channel counts (default: 1,2,4,8)",
    )
    p_sw.add_argument(
        "--freqs",
        type=str,
        default="200,266,333,400",
        metavar="LIST",
        help="comma-separated interface clocks, MHz (default: 200,266,333,400)",
    )

    p_q = sub.add_parser(
        "query",
        help=(
            "ask the feasibility oracle: will (channels, freq) sustain "
            "a level in real time, and at what power?"
        ),
    )
    p_q.add_argument("--level", type=str, default="4", help="H.264 level name")
    p_q.add_argument("--channels", type=int, default=4, help="channel count")
    p_q.add_argument("--freq", type=float, default=400.0, help="clock, MHz")
    p_q.add_argument(
        "--accuracy",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "relative access-time error budget (default: 0.15, the "
            "analytic tolerance; 0 demands an exact simulation)"
        ),
    )
    p_q.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the answer as sorted-key JSON instead of prose",
    )
    p_q.add_argument(
        "--batch",
        action="store_true",
        help=(
            "read one JSON query object per stdin line "
            '({"level": ..., "channels": ..., "freq_mhz": ..., '
            '"accuracy"?, "workload"?}) and write one JSON answer per '
            "line; byte-stable across runs"
        ),
    )

    sub.add_parser(
        "workloads",
        help="list every registered workload spec (parameters, stages)",
    )

    sub.add_parser("all", help="run every artifact in paper order")
    return parser


def _split_csv(text: str, cast, flag: str) -> List:
    """Parse one comma-separated CLI list, failing with the flag name."""
    try:
        values = [cast(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"{flag} must be a comma-separated list, got {text!r}")
    if not values:
        raise SystemExit(f"{flag} needs at least one value")
    return values


def _parse_workload_params(items: Optional[List[str]]) -> dict:
    """Parse repeated ``--workload-param NAME=VALUE`` flags.

    Values are coerced the way JSON would read them -- ``true``/
    ``false`` to bool, numerals to int/float -- so ``intra_only=true``
    and ``encoder_factor=8`` mean what they look like; anything else
    stays a string (the spec's schema rejects it loudly if wrong).
    """
    params: dict = {}
    for item in items or []:
        name, sep, raw = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise SystemExit(
                f"--workload-param must look like NAME=VALUE, got {item!r}"
            )
        text = raw.strip()
        value: object
        lowered = text.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            try:
                value = int(text)
            except ValueError:
                try:
                    value = float(text)
                except ValueError:
                    value = text
        params[name] = value
    return params


def _csv_dir(args: argparse.Namespace) -> Optional[Path]:
    if args.csv is None:
        return None
    path = Path(args.csv)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _format_metrics_summary(telemetry: Telemetry) -> str:
    """Counter/timer table for the ``profile`` subcommand output."""
    snapshot = telemetry.registry.as_dict()
    lines: List[str] = []
    for name, value in snapshot["counters"].items():
        lines.append(f"  {name:<34} {value:>14,d}")
    for name, stats in snapshot["timers"].items():
        lines.append(
            f"  {name:<34} {stats['seconds']:>12.3f} s "
            f"({stats['calls']} call(s))"
        )
    return "\n".join(lines) if lines else "  (no metrics recorded)"


def _run_command(args: argparse.Namespace) -> Tuple[List[str], int]:
    """Execute one subcommand; returns (output sections, exit code)."""
    exit_code = 0
    telemetry: Optional[Telemetry] = None
    if args.metrics_out is not None or args.command == "profile":
        telemetry = Telemetry.enabled()
    kwargs = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.budget is not None:
        kwargs["chunk_budget"] = args.budget
    if args.workers is not None:
        kwargs["workers"] = args.workers
    budget_only = {k: v for k, v in kwargs.items() if k == "chunk_budget"}
    backend_kw = {} if args.backend is None else {"backend": args.backend}
    if args.backend is not None:
        kwargs["backend"] = args.backend
    bound_workload = None
    if args.workload is not None or args.workload_params:
        from repro.workloads.registry import resolve_workload

        bound_workload = resolve_workload(
            args.workload, _parse_workload_params(args.workload_params)
        )
        kwargs["workload"] = bound_workload
    workload_kw = {} if bound_workload is None else {"workload": bound_workload}
    if args.resume:
        kwargs["resume"] = True
    if args.point_timeout is not None:
        kwargs["point_timeout"] = args.point_timeout
    if not args.strict:
        kwargs["strict"] = False
    if args.check_invariants:
        kwargs["base_config"] = SystemConfig(check_invariants=True, **backend_kw)
    cache_store = None
    if args.cache_dir is not None:
        from repro.service.cache import ResultCache

        # One instance for the whole command, so its statistics cover
        # every sweep the command ran (and the corrupt-entry check
        # below sees all of them).
        cache_store = ResultCache(args.cache_dir)
        kwargs["cache"] = cache_store
    explore_kwargs = {
        k: v
        for k, v in kwargs.items()
        if k
        in (
            "chunk_budget",
            "workers",
            "strict",
            "backend",
            "point_timeout",
            "cache",
            "workload",
        )
    }
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
        explore_kwargs["telemetry"] = telemetry
    if args.progress:
        kwargs["progress"] = StreamProgressSink()
    csv_dir = _csv_dir(args)

    sections: List[str] = []
    command = args.command

    if command in ("table1", "all"):
        table = run_table1()
        sections.append("== Table I: memory bandwidth requirements ==")
        sections.append(format_table1(table))
        if csv_dir is not None:
            export_table1(table, csv_dir / "table1.csv")
    if command in ("table2", "all"):
        channels = getattr(args, "channels", 8)
        sections.append(f"== Table II: memory mapping over {channels} channels ==")
        sections.append(run_table2(channels).format())
    if command in ("fig3", "all"):
        fig3 = run_fig3(**kwargs)
        sections.append("== Fig. 3: access time vs clock frequency (720p30) ==")
        sections.append(fig3.format())
        if args.chart:
            from repro.analysis.charts import fig3_chart

            sections.append(fig3_chart(fig3))
        if csv_dir is not None:
            export_fig3(fig3, csv_dir / "fig3.csv")
    if command in ("fig4", "all"):
        freq = getattr(args, "freq", 400.0)
        fig4 = run_fig4(freq_mhz=freq, **kwargs)
        sections.append(f"== Fig. 4: access time vs frame format ({freq:g} MHz) ==")
        sections.append(fig4.format())
        if args.chart:
            from repro.analysis.charts import fig4_chart

            sections.append(fig4_chart(fig4))
        if csv_dir is not None:
            export_fig4(fig4, csv_dir / "fig4.csv")
    if command in ("fig5", "all"):
        freq = getattr(args, "freq", 400.0)
        fig5 = run_fig5(freq_mhz=freq, **kwargs)
        sections.append(f"== Fig. 5: power vs frame format ({freq:g} MHz) ==")
        sections.append(fig5.format())
        if args.chart:
            from repro.analysis.charts import fig5_chart

            sections.append(fig5_chart(fig5))
        if csv_dir is not None:
            export_fig5(fig5, csv_dir / "fig5.csv")
    if command in ("xdr", "all"):
        xdr = run_xdr_comparison(**kwargs)
        sections.append("== XDR comparison (8 channels @ 400 MHz) ==")
        sections.append(xdr.format())
        if csv_dir is not None:
            export_xdr(xdr, csv_dir / "xdr.csv")
    if command == "breakdown":
        level = level_by_name(args.level)
        config = SystemConfig(
            channels=args.channels, freq_mhz=args.freq, **backend_kw
        )
        result = stage_breakdown(level, config, **budget_only, **workload_kw)
        sections.append(
            f"== Per-stage breakdown: {level.column_title} on "
            f"{config.describe()} =="
        )
        sections.append(result.format())
    if command == "report":
        from repro.analysis.reportgen import write_report

        report_kwargs = dict(budget_only)
        if not args.strict:
            report_kwargs["strict"] = False
        if args.check_invariants:
            report_kwargs["base_config"] = SystemConfig(
                check_invariants=True, **backend_kw
            )
        elif args.backend is not None:
            report_kwargs["base_config"] = SystemConfig(**backend_kw)
        anchors = write_report(args.out, **report_kwargs)
        held = sum(a.holds for a in anchors)
        sections.append(
            f"wrote {args.out}: {held}/{len(anchors)} paper anchors reproduced"
        )
    if command == "validate":
        from repro.analysis.validate import validate_configuration

        summary = validate_configuration(
            level_by_name(args.level),
            SystemConfig(channels=args.channels, freq_mhz=args.freq, **backend_kw),
            **budget_only,
        )
        sections.append("== Validation: all correctness oracles ==")
        sections.append(summary.format())
        if not summary.all_passed:
            sections.append("VALIDATION FAILED")
            exit_code = 1
    if command == "explore":
        level = level_by_name(args.level)
        sections.append(f"== Design exploration: {level.column_title} ==")
        needed = minimum_channels(level, **explore_kwargs)
        if needed is None:
            sections.append("no evaluated channel count meets real time at 400 MHz")
        else:
            sections.append(f"minimum channels at 400 MHz: {needed}")
        best = find_minimum_power_configuration(
            level, prescreen_backend=args.prescreen, **explore_kwargs
        )
        if best is None:
            sections.append("no configuration passes with the 15 % margin")
        else:
            sections.append(
                f"cheapest safe design point: {best.config.channels} ch @ "
                f"{best.config.freq_mhz:g} MHz -> {best.access_time_ms:.1f} ms, "
                f"{best.total_power_mw:.0f} mW"
            )
    if command == "verify-paper":
        from repro.regression import GOLDEN_CHUNK_BUDGET, update_goldens, verify_paper

        common = dict(
            directory=args.goldens,
            backend=args.backend,
            workers=args.workers,
            telemetry=telemetry,
            progress=kwargs.get("progress"),
            cache=cache_store,
        )
        if args.update:
            written = update_goldens(
                chunk_budget=(
                    args.budget if args.budget is not None else GOLDEN_CHUNK_BUDGET
                ),
                **common,
            )
            sections.append("== Golden baselines recaptured ==")
            sections.extend(f"wrote {path}" for path in written)
        else:
            verification = verify_paper(**common)
            sections.append("== Paper verification against goldens ==")
            sections.append(verification.format())
            if not verification.passed:
                exit_code = 1
    if command == "fuzz":
        from repro.regression import run_fuzz, run_repro

        if args.repro is not None:
            backend = args.backend if args.backend is not None else "batch"
            problems = run_repro(args.repro, backend)
            sections.append(f"== Repro replay under backend={backend} ==")
            if problems:
                sections.extend(f"  {p}" for p in problems)
                sections.append("FAIL: repro still mismatches")
                exit_code = 1
            else:
                sections.append("PASS: repro no longer mismatches")
        else:
            # --backend narrows the campaign to one backend-under-test;
            # the default (and explicit 'reference') differentially
            # checks every non-reference built-in.
            backends = None
            if args.backend is not None and args.backend != "reference":
                backends = [args.backend]
            report = run_fuzz(
                cases=args.cases,
                seed=args.seed,
                backends=backends,
                check_invariants=args.invariants,
                shrink=args.shrink,
                telemetry=telemetry,
            )
            sections.append("== Differential fuzzing campaign ==")
            sections.append(report.format())
            if not report.passed:
                exit_code = 1
    if command == "chaos":
        from repro.resilience.chaos import run_chaos_campaign

        try:
            seeds = tuple(
                int(part) for part in args.seeds.split(",") if part.strip()
            )
        except ValueError:
            raise SystemExit(
                f"--seeds must be a comma-separated integer list, "
                f"got {args.seeds!r}"
            )
        if not seeds:
            raise SystemExit("--seeds needs at least one seed")
        chaos_kwargs = dict(budget_only)
        if args.backend is not None:
            chaos_kwargs["backend"] = args.backend
        if args.workers is not None:
            chaos_kwargs["workers"] = args.workers
        if args.point_timeout is not None:
            chaos_kwargs["point_timeout"] = args.point_timeout
        report = run_chaos_campaign(
            seeds=seeds, max_attempts=args.max_attempts, **chaos_kwargs
        )
        sections.append("== Chaos campaign ==")
        sections.append(report.format())
        if not report.passed:
            exit_code = 1
    if command == "sweep":
        from repro.analysis.sweep import sweep_use_case
        from repro.analysis.tables import format_table

        levels = [
            level_by_name(name)
            for name in _split_csv(args.levels, str, "--levels")
        ]
        channel_counts = _split_csv(args.channels, int, "--channels")
        freqs = _split_csv(args.freqs, float, "--freqs")
        base = kwargs.pop("base_config", SystemConfig(**backend_kw))
        configs = [
            base.with_channels(m).with_frequency(f)
            for f in freqs
            for m in channel_counts
        ]
        report = sweep_use_case(levels, configs, **kwargs)
        workload_note = (
            "" if bound_workload is None else f" [{bound_workload.name}]"
        )
        sections.append(
            f"== Sweep: {len(levels)} level(s) x "
            f"{len(configs)} config(s){workload_note} =="
        )
        rows = [["Level", "Channels", "Clock [MHz]", "Access [ms]", "Verdict"]]
        for point in report:
            rows.append(
                [
                    point.level.column_title,
                    str(point.config.channels),
                    f"{point.config.freq_mhz:g}",
                    f"{point.access_time_ms:.1f}",
                    str(point.verdict),
                ]
            )
        sections.append(format_table(rows))
        sections.append(report.summary())
        if report.failures:
            sections.append(report.format_failures())
    if command == "query":
        import json as _json

        from repro.oracle import DEFAULT_ACCURACY, FeasibilityOracle, run_batch

        oracle_kwargs = {}
        if args.scale is not None:
            oracle_kwargs["scale"] = args.scale
        if args.budget is not None:
            oracle_kwargs["chunk_budget"] = args.budget
        if args.backend is not None:
            oracle_kwargs["exact_backend"] = args.backend
        oracle = FeasibilityOracle(
            cache=cache_store,
            telemetry=telemetry,
            **oracle_kwargs,
        )
        accuracy = (
            args.accuracy if args.accuracy is not None else DEFAULT_ACCURACY
        )
        if args.batch:
            sections.append("\n".join(run_batch(oracle, sys.stdin)))
        else:
            answer = oracle.query(
                args.level,
                args.channels,
                args.freq,
                accuracy=accuracy,
                workload=bound_workload,
            )
            if args.as_json:
                sections.append(_json.dumps(answer.to_json(), sort_keys=True))
            else:
                sections.append("== Feasibility query ==")
                sections.append(answer.describe())
                sections.append(
                    f"answered in {answer.latency_s * 1e3:.3f} ms "
                    f"({answer.escalations} escalation(s))"
                )
    if command == "workloads":
        from repro.workloads.registry import (
            available_workloads,
            default_workload_name,
            get_workload,
        )

        sections.append("== Registered workloads ==")
        for name in available_workloads():
            spec = get_workload(name)
            marker = " (default)" if name == default_workload_name() else ""
            sections.append(f"-- {name}{marker} --")
            sections.append(spec.describe())
    if command == "profile":
        figure = args.figure
        if figure == "fig3":
            run_fig3(**kwargs)
        elif figure == "fig4":
            run_fig4(freq_mhz=args.freq, **kwargs)
        elif figure == "fig5":
            run_fig5(freq_mhz=args.freq, **kwargs)
        else:
            run_xdr_comparison(**kwargs)
        sections.append(f"== Phase profile: {figure} ==")
        sections.append(telemetry.profile_report().format())
        sections.append("== Metrics ==")
        sections.append(_format_metrics_summary(telemetry))
    if cache_store is not None:
        stats = cache_store.stats()
        # Machine-readable query output must stay pure (and byte-stable
        # across a computing run and a cache-served re-run), so the
        # stats trailer is prose-mode only; the strict corruption exit
        # code below still applies either way.
        machine_output = command == "query" and (
            getattr(args, "as_json", False) or getattr(args, "batch", False)
        )
        if not machine_output:
            sections.append(
                f"cache {args.cache_dir}: {stats['hits']} hit(s), "
                f"{stats['misses']} miss(es), {stats['writes']} write(s), "
                f"{stats['corrupt']} corrupt, {stats['evictions']} evicted"
            )
        if stats["corrupt"] and args.strict:
            # The damaged entries were already recomputed (the artifact
            # above is correct); the non-zero exit flags the store so
            # operators notice before the next hundred runs re-pay the
            # misses.  --no-strict tolerates a self-healing cache.
            sections.append(
                f"CACHE CORRUPTION: {stats['corrupt']} entr(y/ies) were "
                "ignored and recomputed (results are unaffected); "
                "failing under strict mode -- use --no-strict to tolerate"
            )
            exit_code = max(exit_code, 1)
    if args.metrics_out is not None:
        write_metrics(args.metrics_out, command, telemetry, backend=args.backend)
        sections.append(f"wrote metrics to {args.metrics_out}")
    return sections, exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.cache_dir is None:
        parser.error("--resume requires --cache-dir DIR")
    if args.backend is not None:
        # Validate eagerly so even subcommands that never build a
        # SystemConfig (e.g. table1) reject a typo'd backend.
        from repro.backends.registry import validate_backend_name

        validate_backend_name(args.backend)
    if getattr(args, "prescreen", None) is not None:
        from repro.backends.registry import validate_backend_name

        validate_backend_name(args.prescreen)
    if args.workload is not None:
        # Same eager validation as --backend: a typo'd workload name
        # fails before any sweep starts.
        from repro.workloads.registry import validate_workload_name

        validate_workload_name(args.workload)
    sections, exit_code = _run_command(args)
    # Machine-readable query output (--json / --batch) is emitted
    # verbatim -- one JSON document per line, no blank separators --
    # so it can be piped, compared byte for byte, or fed to jq.
    machine_output = getattr(args, "as_json", False) or getattr(args, "batch", False)
    for section in sections:
        print(section)
        if not machine_output:
            print()
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
