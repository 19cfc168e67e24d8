"""The golden-baseline store: versioned paper numbers with tolerances.

The paper's claims are numeric -- the Table I totals, the Table II
mapping and the Fig. 3/4/5 grids -- and with three backends and
parallel sweeps in the tree, nothing short of a pinned baseline
protects those numbers from silent drift.  This module stores them as
versioned JSON files under ``src/repro/regression/goldens/`` (schema
``repro-goldens/1``), one file per artifact, each carrying:

- a **provenance header**: the exact regeneration recipe (command,
  chunk budget, backend, package version) -- deliberately free of
  timestamps and host details so regenerating on an unchanged tree
  reproduces the files byte for byte;
- **per-metric tolerances** (absolute + relative): the engine is
  deterministic, so the committed defaults are tight, but they are
  data, not code -- a platform with different libm rounding can widen
  them in the files without touching the comparator;
- the **values**: per-level Table I totals, the Table II rows, and the
  Fig. 3/4/5 grids as flat per-cell records (``access_ms`` /
  ``verdict`` / ``power_mw`` per point).

:func:`compare_artifact` reports *per-cell* diffs -- every failing
cell with its expected/actual values and the tolerance it broke --
instead of stopping at the first mismatch, so one run of
``repro-sim verify-paper`` localises a regression to the exact grid
points it moved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import RegressionError

PathLike = Union[str, Path]

#: Schema tag every golden file carries.
GOLDEN_SCHEMA = "repro-goldens/1"

#: Simulated-chunk budget the committed goldens are captured at.  The
#: same budget must be used to verify (the provenance header records
#: it); it matches ``examples/reproduce_paper.py --fast``.
GOLDEN_CHUNK_BUDGET = 60_000

#: Artifacts the store versions, in paper order.
GOLDEN_ARTIFACTS = ("table1", "table2", "fig3", "fig4", "fig5")

#: Packaged golden directory (the committed baselines).
PACKAGED_GOLDENS_DIR = Path(__file__).parent / "goldens"

#: Default per-metric tolerances written into captured goldens.  The
#: simulation is integer-cycle deterministic and the float reductions
#: are fixed-order, so exact reproduction is the expectation; the
#: relative term only absorbs cross-platform libm noise in the power
#: integration.
DEFAULT_TOLERANCES: Dict[str, Dict[str, float]] = {
    "access_ms": {"abs": 1e-9, "rel": 1e-9},
    "power_mw": {"abs": 1e-6, "rel": 1e-9},
    "raw_power_mw": {"abs": 1e-6, "rel": 1e-9},
    "interface_mw": {"abs": 1e-6, "rel": 1e-9},
    "frame_total_mbits": {"abs": 1e-9, "rel": 1e-9},
    "bandwidth_mb_per_s": {"abs": 1e-9, "rel": 1e-9},
}


@dataclass(frozen=True)
class Tolerance:
    """An absolute + relative tolerance for one metric."""

    abs_tol: float
    rel_tol: float

    def allows(self, expected: float, actual: float) -> bool:
        """Whether ``actual`` is within tolerance of ``expected``."""
        if not (math.isfinite(expected) and math.isfinite(actual)):
            return False
        return abs(actual - expected) <= self.abs_tol + self.rel_tol * abs(
            expected
        )

    def widened(self, extra_rel: float) -> "Tolerance":
        """A copy with ``extra_rel`` added to the relative term (used
        for screening backends and cross-budget comparisons)."""
        return Tolerance(self.abs_tol, self.rel_tol + extra_rel)

    def describe(self) -> str:
        """Human-readable rendition for diff reports."""
        return f"abs={self.abs_tol:g}, rel={self.rel_tol:g}"


@dataclass(frozen=True)
class CellDiff:
    """One compared cell: coordinates, values, verdict."""

    artifact: str
    cell: str
    metric: str
    expected: object
    actual: object
    within: bool
    detail: str = ""

    def describe(self) -> str:
        """One line: ``fig3[freq=400,channels=4].access_ms: ...``."""
        status = "ok" if self.within else "MISMATCH"
        line = (
            f"[{status}] {self.artifact}[{self.cell}].{self.metric}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )
        return line + (f" ({self.detail})" if self.detail else "")


@dataclass(frozen=True)
class GoldenComparison:
    """All compared cells of one artifact."""

    artifact: str
    diffs: Tuple[CellDiff, ...]

    @property
    def mismatches(self) -> List[CellDiff]:
        """The failing cells only."""
        return [d for d in self.diffs if not d.within]

    @property
    def passed(self) -> bool:
        """Whether every cell was within tolerance."""
        return not self.mismatches

    def format(self) -> str:
        """Summary line plus one line per failing cell."""
        bad = self.mismatches
        lines = [
            f"{self.artifact}: {len(self.diffs) - len(bad)}/{len(self.diffs)} "
            f"cells within tolerance"
        ]
        lines += ["  " + d.describe() for d in bad]
        return "\n".join(lines)


def _tolerance(
    golden: Mapping[str, object], metric: str, extra_rel: float = 0.0
) -> Tolerance:
    """The golden file's tolerance for ``metric`` (falling back to the
    code defaults), widened by ``extra_rel``."""
    table = dict(DEFAULT_TOLERANCES.get(metric, {"abs": 0.0, "rel": 0.0}))
    table.update(golden.get("tolerances", {}).get(metric, {}))  # type: ignore[union-attr]
    return Tolerance(float(table["abs"]), float(table["rel"])).widened(extra_rel)


# ---------------------------------------------------------------------------
# Load / store
# ---------------------------------------------------------------------------


def golden_path(artifact: str, directory: Optional[PathLike] = None) -> Path:
    """Path of one artifact's golden file."""
    if artifact not in GOLDEN_ARTIFACTS:
        raise RegressionError(
            f"unknown golden artifact {artifact!r}; have "
            f"{', '.join(GOLDEN_ARTIFACTS)}"
        )
    base = Path(directory) if directory is not None else PACKAGED_GOLDENS_DIR
    return base / f"{artifact}.json"


def load_golden(
    artifact: str, directory: Optional[PathLike] = None
) -> Dict[str, object]:
    """Load and schema-check one artifact's golden file."""
    path = golden_path(artifact, directory)
    if not path.exists():
        raise RegressionError(
            f"golden file {path} is missing; run "
            "'repro-sim verify-paper --update' to (re)capture the baselines"
        )
    try:
        payload = json.loads(path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise RegressionError(f"golden file {path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != GOLDEN_SCHEMA:
        raise RegressionError(
            f"golden file {path} does not carry schema {GOLDEN_SCHEMA!r} "
            f"(got {payload.get('schema') if isinstance(payload, dict) else payload!r})"
        )
    if payload.get("artifact") != artifact:
        raise RegressionError(
            f"golden file {path} claims artifact "
            f"{payload.get('artifact')!r}, expected {artifact!r}"
        )
    return payload


def load_goldens(
    directory: Optional[PathLike] = None,
) -> Dict[str, Dict[str, object]]:
    """Load every artifact's golden file from ``directory``."""
    return {name: load_golden(name, directory) for name in GOLDEN_ARTIFACTS}


def write_goldens(
    payloads: Mapping[str, Mapping[str, object]],
    directory: Optional[PathLike] = None,
) -> List[Path]:
    """Write golden payloads as pretty-printed, sorted-key JSON.

    Deterministic output (and a trailing newline) so regeneration on
    an unchanged tree is a no-op diff.
    """
    base = Path(directory) if directory is not None else PACKAGED_GOLDENS_DIR
    base.mkdir(parents=True, exist_ok=True)
    written = []
    for artifact, payload in payloads.items():
        path = golden_path(artifact, base)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def _provenance(chunk_budget: int, backend: str) -> Dict[str, object]:
    """The regeneration recipe stamped into every golden file.

    Deliberately timestamp- and host-free: the provenance names *how*
    to reproduce the file, and an unchanged tree must regenerate the
    bytes exactly.
    """
    from repro import __version__

    return {
        "command": (
            f"repro-sim --backend {backend} --budget {chunk_budget} "
            "verify-paper --update"
        ),
        "chunk_budget": chunk_budget,
        "backend": backend,
        "package_version": __version__,
    }


def capture_goldens(
    chunk_budget: int = GOLDEN_CHUNK_BUDGET,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    telemetry=None,
    progress=None,
    cache=None,
) -> Dict[str, Dict[str, object]]:
    """Regenerate every artifact and package it as golden payloads.

    ``backend`` must be bit-identical to the reference (``reference``
    or ``batch`` or a custom backend declaring
    ``reference_tolerance == 0``): baselines captured under a
    screening backend would pin approximations, not the paper.
    """
    from repro.analysis.experiments import run_fig3, run_fig5, run_table1, run_table2
    from repro.backends.registry import default_backend_name, get_backend

    name = backend if backend is not None else default_backend_name()
    resolved = get_backend(name)
    if not resolved.bit_identical:
        raise RegressionError(
            f"goldens must be captured under a bit-identical backend; "
            f"{name!r} declares a {resolved.reference_tolerance:.0%} "
            "screening tolerance"
        )

    sweep_kwargs = dict(
        chunk_budget=chunk_budget,
        workers=workers,
        backend=backend,
        telemetry=telemetry,
        progress=progress,
        cache=cache,
    )

    table1 = run_table1()
    table2 = run_table2(8)
    fig3 = run_fig3(**sweep_kwargs)
    fig5 = run_fig5(**sweep_kwargs)  # fig4 rides along (shared sweep)

    def payload(artifact: str, **body: object) -> Dict[str, object]:
        metrics = {
            "table1": ("frame_total_mbits", "bandwidth_mb_per_s"),
            "table2": (),
            "fig3": ("access_ms",),
            "fig4": ("access_ms",),
            "fig5": ("power_mw", "raw_power_mw", "interface_mw"),
        }[artifact]
        out: Dict[str, object] = {
            "schema": GOLDEN_SCHEMA,
            "artifact": artifact,
            "provenance": _provenance(chunk_budget, name),
            "tolerances": {m: dict(DEFAULT_TOLERANCES[m]) for m in metrics},
        }
        out.update(body)
        return out

    return {
        "table1": payload(
            "table1",
            levels={
                column.level.name: {
                    "frame_total_mbits": column.frame_total_bits / 1e6,
                    "bandwidth_mb_per_s": column.bandwidth_mb_per_s,
                }
                for column in table1.columns
            },
        ),
        "table2": payload(
            "table2",
            channels=table2.channels,
            rows=[list(row) for row in table2.rows],
        ),
        "fig3": payload("fig3", points=fig3.as_records()),
        "fig4": payload("fig4", points=fig5.fig4.as_records()),
        "fig5": payload("fig5", points=fig5.as_records()),
    }


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def _keyed(
    records: Sequence[Mapping[str, object]], key_fields: Tuple[str, ...]
) -> Dict[Tuple, Mapping[str, object]]:
    return {
        tuple(record[field] for field in key_fields): record
        for record in records
    }


def _cell_name(key_fields: Tuple[str, ...], key: Tuple) -> str:
    return ",".join(f"{f}={v}" for f, v in zip(key_fields, key))


def compare_grid(
    artifact: str,
    golden: Mapping[str, object],
    actual_records: Sequence[Mapping[str, object]],
    key_fields: Tuple[str, ...],
    metrics: Tuple[str, ...],
    extra_rel: float = 0.0,
    check_verdicts: bool = True,
) -> GoldenComparison:
    """Compare a flat record grid against its golden, cell by cell.

    ``extra_rel`` widens every metric tolerance (screening backends,
    cross-budget checks); ``check_verdicts=False`` skips the exact
    verdict comparison, which is meaningless once access times are
    allowed to drift across a PASS/MARGINAL boundary.
    """
    expected = _keyed(golden["points"], key_fields)  # type: ignore[index]
    got = _keyed(actual_records, key_fields)
    diffs: List[CellDiff] = []
    for key, exp in expected.items():
        cell = _cell_name(key_fields, key)
        act = got.get(key)
        if act is None:
            diffs.append(
                CellDiff(artifact, cell, "presence", "present", "missing", False)
            )
            continue
        for metric in metrics:
            tol = _tolerance(golden, metric, extra_rel)
            exp_v, act_v = float(exp[metric]), float(act[metric])  # type: ignore[arg-type]
            within = tol.allows(exp_v, act_v)
            diffs.append(
                CellDiff(
                    artifact,
                    cell,
                    metric,
                    exp_v,
                    act_v,
                    within,
                    detail=(
                        ""
                        if within
                        else f"|delta|={abs(act_v - exp_v):g} > {tol.describe()}"
                    ),
                )
            )
        if check_verdicts and "verdict" in exp:
            diffs.append(
                CellDiff(
                    artifact,
                    cell,
                    "verdict",
                    exp["verdict"],
                    act.get("verdict"),
                    exp["verdict"] == act.get("verdict"),
                )
            )
    for key in got:
        if key not in expected:
            diffs.append(
                CellDiff(
                    artifact,
                    _cell_name(key_fields, key),
                    "presence",
                    "absent",
                    "unexpected",
                    False,
                )
            )
    return GoldenComparison(artifact=artifact, diffs=tuple(diffs))


def compare_table1(
    golden: Mapping[str, object], table, extra_rel: float = 0.0
) -> GoldenComparison:
    """Compare a :class:`~repro.usecase.bandwidth.BandwidthTable`'s
    per-level totals against the ``table1`` golden."""
    diffs: List[CellDiff] = []
    expected_levels: Mapping[str, Mapping[str, float]] = golden["levels"]  # type: ignore[assignment]
    actual = {
        column.level.name: {
            "frame_total_mbits": column.frame_total_bits / 1e6,
            "bandwidth_mb_per_s": column.bandwidth_mb_per_s,
        }
        for column in table.columns
    }
    for level_name, metrics in expected_levels.items():
        cell = f"level={level_name}"
        if level_name not in actual:
            diffs.append(
                CellDiff(
                    "table1", cell, "presence", "present", "missing", False
                )
            )
            continue
        for metric, exp_v in metrics.items():
            tol = _tolerance(golden, metric, extra_rel)
            act_v = actual[level_name][metric]
            within = tol.allows(float(exp_v), act_v)
            diffs.append(
                CellDiff(
                    "table1",
                    cell,
                    metric,
                    float(exp_v),
                    act_v,
                    within,
                    detail=(
                        ""
                        if within
                        else f"|delta|={abs(act_v - float(exp_v)):g} > "
                        f"{tol.describe()}"
                    ),
                )
            )
    return GoldenComparison(artifact="table1", diffs=tuple(diffs))


def compare_table2(golden: Mapping[str, object], table2) -> GoldenComparison:
    """Compare a Table II mapping against the ``table2`` golden
    (structural: every row must match exactly)."""
    expected_rows = [tuple(row) for row in golden["rows"]]  # type: ignore[index]
    actual_rows = [tuple(row) for row in table2.rows]
    diffs = [
        CellDiff(
            "table2",
            "channels",
            "channels",
            golden["channels"],
            table2.channels,
            golden["channels"] == table2.channels,
        )
    ]
    for index in range(max(len(expected_rows), len(actual_rows))):
        exp = expected_rows[index] if index < len(expected_rows) else None
        act = actual_rows[index] if index < len(actual_rows) else None
        diffs.append(
            CellDiff("table2", f"row={index}", "mapping", exp, act, exp == act)
        )
    return GoldenComparison(artifact="table2", diffs=tuple(diffs))


#: Key fields and compared metrics per grid artifact.
GRID_LAYOUT: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "fig3": (("freq_mhz", "channels"), ("access_ms",)),
    "fig4": (("level", "channels"), ("access_ms",)),
    "fig5": (("level", "channels"), ("power_mw", "raw_power_mw", "interface_mw")),
}


def compare_results(
    table1=None,
    table2=None,
    fig3=None,
    fig4=None,
    fig5=None,
    directory: Optional[PathLike] = None,
    extra_rel: float = 0.0,
    check_verdicts: bool = True,
) -> List[GoldenComparison]:
    """Compare already-computed artifact results against the goldens.

    Pass whichever artifacts you have; each is compared against its
    golden file in ``directory`` (default: the committed baselines).
    Used by ``examples/reproduce_paper.py`` to assert its run against
    the store without re-simulating.
    """
    comparisons: List[GoldenComparison] = []
    if table1 is not None:
        comparisons.append(
            compare_table1(load_golden("table1", directory), table1, extra_rel)
        )
    if table2 is not None:
        comparisons.append(compare_table2(load_golden("table2", directory), table2))
    for artifact, result in (("fig3", fig3), ("fig4", fig4), ("fig5", fig5)):
        if result is None:
            continue
        key_fields, metrics = GRID_LAYOUT[artifact]
        comparisons.append(
            compare_grid(
                artifact,
                load_golden(artifact, directory),
                result.as_records(),
                key_fields,
                metrics,
                extra_rel=extra_rel,
                check_verdicts=check_verdicts,
            )
        )
    return comparisons


# ---------------------------------------------------------------------------
# End-to-end verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaperVerification:
    """Outcome of one ``verify-paper`` run."""

    comparisons: Tuple[GoldenComparison, ...]
    backend: str
    chunk_budget: int

    @property
    def passed(self) -> bool:
        """Whether every artifact matched its golden."""
        return all(c.passed for c in self.comparisons)

    @property
    def cells_checked(self) -> int:
        """Total compared cells across artifacts."""
        return sum(len(c.diffs) for c in self.comparisons)

    @property
    def cells_mismatched(self) -> int:
        """Total failing cells across artifacts."""
        return sum(len(c.mismatches) for c in self.comparisons)

    def format(self) -> str:
        """Per-artifact summaries plus the overall verdict."""
        lines = [
            f"goldens vs backend={self.backend} "
            f"(chunk_budget={self.chunk_budget}):"
        ]
        lines += [c.format() for c in self.comparisons]
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"{self.cells_checked - self.cells_mismatched}/"
            f"{self.cells_checked} cells within tolerance"
        )
        return "\n".join(lines)


def verify_paper(
    directory: Optional[PathLike] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    telemetry=None,
    progress=None,
    cache=None,
) -> PaperVerification:
    """Regenerate every artifact and check it against the goldens.

    The chunk budget comes from the goldens' own provenance headers,
    so the comparison always re-runs the exact recipe that captured
    the baselines.  A bit-identical backend (``reference``, ``batch``)
    is held to the committed tolerances; a screening backend widens
    every metric by its declared
    :attr:`~repro.backends.base.ChannelBackend.reference_tolerance`
    and skips verdict cells (feasibility near a boundary legitimately
    flips inside the screening band).

    ``telemetry`` (when given) counts every compared cell into
    ``regression.cases`` and every failing cell into
    ``regression.mismatches``.  ``cache`` names a persistent
    content-addressed result store directory (CLI ``--cache-dir``):
    cached points are bit-identical to fresh ones, so a warm cache
    verifies the paper in seconds without weakening the comparison.
    """
    from repro.analysis.experiments import run_fig3, run_fig5, run_table1, run_table2
    from repro.backends.registry import default_backend_name, get_backend

    goldens = load_goldens(directory)
    name = backend if backend is not None else default_backend_name()
    resolved = get_backend(name)
    extra_rel = resolved.reference_tolerance
    check_verdicts = resolved.bit_identical
    chunk_budget = int(
        goldens["fig3"]["provenance"]["chunk_budget"]  # type: ignore[index]
    )

    sweep_kwargs = dict(
        chunk_budget=chunk_budget,
        workers=workers,
        backend=backend,
        telemetry=telemetry,
        progress=progress,
        cache=cache,
    )
    fig3 = run_fig3(**sweep_kwargs)
    fig5 = run_fig5(**sweep_kwargs)

    comparisons = [
        compare_table1(goldens["table1"], run_table1(), 0.0),
        compare_table2(goldens["table2"], run_table2(8)),
    ]
    for artifact, result in (("fig3", fig3), ("fig4", fig5.fig4), ("fig5", fig5)):
        key_fields, metrics = GRID_LAYOUT[artifact]
        comparisons.append(
            compare_grid(
                artifact,
                goldens[artifact],
                result.as_records(),
                key_fields,
                metrics,
                extra_rel=extra_rel,
                check_verdicts=check_verdicts,
            )
        )

    verification = PaperVerification(
        comparisons=tuple(comparisons), backend=name, chunk_budget=chunk_budget
    )
    if telemetry is not None:
        telemetry.registry.counter("regression.cases").add(
            verification.cells_checked
        )
        telemetry.registry.counter("regression.mismatches").add(
            verification.cells_mismatched
        )
    return verification


def update_goldens(
    directory: Optional[PathLike] = None,
    chunk_budget: int = GOLDEN_CHUNK_BUDGET,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    telemetry=None,
    progress=None,
    cache=None,
) -> List[Path]:
    """Recapture and write the golden files (CLI ``--update``)."""
    payloads = capture_goldens(
        chunk_budget=chunk_budget,
        backend=backend,
        workers=workers,
        telemetry=telemetry,
        progress=progress,
        cache=cache,
    )
    return write_goldens(payloads, directory)
