"""Tests for the golden-baseline store and comparator."""

import json

import pytest

from repro.backends.registry import default_backend_name
from repro.errors import RegressionError
from repro.regression import (
    GOLDEN_ARTIFACTS,
    GOLDEN_CHUNK_BUDGET,
    GOLDEN_SCHEMA,
    PACKAGED_GOLDENS_DIR,
    Tolerance,
    capture_goldens,
    compare_grid,
    compare_table1,
    golden_path,
    load_golden,
    load_goldens,
    verify_paper,
    write_goldens,
)
from repro.telemetry import Telemetry

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


class TestTolerance:
    def test_exact_match_allowed(self):
        assert Tolerance(0.0, 0.0).allows(1.5, 1.5)

    def test_within_absolute(self):
        assert Tolerance(0.1, 0.0).allows(1.0, 1.05)
        assert not Tolerance(0.1, 0.0).allows(1.0, 1.2)

    def test_within_relative(self):
        assert Tolerance(0.0, 0.1).allows(100.0, 109.0)
        assert not Tolerance(0.0, 0.1).allows(100.0, 111.0)

    def test_non_finite_never_within(self):
        # A NaN measurement must fail the comparison, not slide through
        # because NaN != anything is False.
        tol = Tolerance(1e9, 1e9)
        assert not tol.allows(1.0, float("nan"))
        assert not tol.allows(float("nan"), 1.0)
        assert not tol.allows(1.0, float("inf"))

    def test_widened_adds_relative(self):
        tol = Tolerance(0.0, 0.01).widened(0.15)
        assert tol.rel_tol == pytest.approx(0.16)
        assert tol.abs_tol == 0.0


class TestStore:
    def test_committed_goldens_load(self):
        goldens = load_goldens()
        assert set(goldens) == set(GOLDEN_ARTIFACTS)
        for name, payload in goldens.items():
            assert payload["schema"] == GOLDEN_SCHEMA
            assert payload["artifact"] == name

    def test_committed_provenance_is_reproducible(self):
        # Timestamp- and host-free by design: regeneration on an
        # unchanged tree must be a byte-identical no-op.
        for name in GOLDEN_ARTIFACTS:
            prov = load_golden(name)["provenance"]
            assert prov["chunk_budget"] == GOLDEN_CHUNK_BUDGET
            assert "verify-paper --update" in prov["command"]
            assert not any("time" in key or "host" in key for key in prov)

    def test_unknown_artifact_rejected(self):
        with pytest.raises(RegressionError, match="unknown golden artifact"):
            golden_path("fig9")

    def test_missing_file_names_recovery_command(self, tmp_path):
        with pytest.raises(RegressionError, match="--update"):
            load_golden("table1", tmp_path)

    def test_unparseable_file_rejected(self, tmp_path):
        (tmp_path / "table1.json").write_text("{not json")
        with pytest.raises(RegressionError, match="unreadable"):
            load_golden("table1", tmp_path)

    def test_wrong_schema_rejected(self, tmp_path):
        (tmp_path / "table1.json").write_text(
            json.dumps({"schema": "other/9", "artifact": "table1"})
        )
        with pytest.raises(RegressionError, match="schema"):
            load_golden("table1", tmp_path)

    def test_wrong_artifact_tag_rejected(self, tmp_path):
        (tmp_path / "table1.json").write_text(
            json.dumps({"schema": GOLDEN_SCHEMA, "artifact": "fig3"})
        )
        with pytest.raises(RegressionError, match="claims artifact"):
            load_golden("table1", tmp_path)

    def test_write_is_deterministic(self, tmp_path):
        goldens = load_goldens()
        write_goldens(goldens, tmp_path / "a")
        write_goldens(goldens, tmp_path / "b")
        for name in GOLDEN_ARTIFACTS:
            a = (tmp_path / "a" / f"{name}.json").read_bytes()
            b = (tmp_path / "b" / f"{name}.json").read_bytes()
            assert a == b

    def test_write_round_trips_committed_bytes(self, tmp_path):
        # Loading the committed files and re-serialising them must
        # reproduce the committed bytes: proves the on-disk formatting
        # (sorted keys, indent, trailing newline) matches the writer.
        write_goldens(load_goldens(), tmp_path)
        for name in GOLDEN_ARTIFACTS:
            committed = (PACKAGED_GOLDENS_DIR / f"{name}.json").read_bytes()
            rewritten = (tmp_path / f"{name}.json").read_bytes()
            assert rewritten == committed


GRID_GOLDEN = {
    "schema": GOLDEN_SCHEMA,
    "artifact": "fig3",
    "tolerances": {"access_ms": {"abs": 0.0, "rel": 0.01}},
    "points": [
        {"freq_mhz": 200.0, "channels": 1, "access_ms": 40.0, "verdict": "fail"},
        {"freq_mhz": 400.0, "channels": 2, "access_ms": 10.0, "verdict": "pass"},
    ],
}


class TestCompareGrid:
    def compare(self, records, **kwargs):
        return compare_grid(
            "fig3",
            GRID_GOLDEN,
            records,
            ("freq_mhz", "channels"),
            ("access_ms",),
            **kwargs,
        )

    def test_identical_records_pass(self):
        comparison = self.compare(GRID_GOLDEN["points"])
        assert comparison.passed
        assert len(comparison.diffs) == 4  # 2 metrics + 2 verdicts

    def test_breach_reports_cell_values_and_tolerance(self):
        records = [dict(GRID_GOLDEN["points"][0]), dict(GRID_GOLDEN["points"][1])]
        records[0]["access_ms"] = 41.0  # 2.5% off a 1% tolerance
        comparison = self.compare(records)
        assert not comparison.passed
        (bad,) = comparison.mismatches
        assert bad.cell == "freq_mhz=200.0,channels=1"
        assert bad.metric == "access_ms"
        assert bad.expected == 40.0 and bad.actual == 41.0
        assert "rel=0.01" in bad.detail
        assert "MISMATCH" in bad.describe()

    def test_within_tolerance_passes(self):
        records = [dict(GRID_GOLDEN["points"][0]), dict(GRID_GOLDEN["points"][1])]
        records[0]["access_ms"] = 40.2  # 0.5% inside the 1% band
        assert self.compare(records).passed

    def test_missing_cell_reported(self):
        comparison = self.compare(GRID_GOLDEN["points"][:1])
        assert any(
            d.metric == "presence" and d.actual == "missing"
            for d in comparison.mismatches
        )

    def test_unexpected_cell_reported(self):
        extra = dict(GRID_GOLDEN["points"][0], freq_mhz=999.0)
        comparison = self.compare(list(GRID_GOLDEN["points"]) + [extra])
        assert any(
            d.actual == "unexpected" and "999" in d.cell
            for d in comparison.mismatches
        )

    def test_verdict_flip_caught_only_when_checked(self):
        records = [dict(GRID_GOLDEN["points"][0]), dict(GRID_GOLDEN["points"][1])]
        records[0]["verdict"] = "marginal"
        assert not self.compare(records).passed
        assert self.compare(records, check_verdicts=False).passed

    def test_extra_rel_widens_every_metric(self):
        records = [dict(GRID_GOLDEN["points"][0]), dict(GRID_GOLDEN["points"][1])]
        records[0]["access_ms"] = 44.0  # 10% off
        assert not self.compare(records).passed
        assert self.compare(records, extra_rel=0.15, check_verdicts=False).passed


class TestBrokenFixture:
    """A deliberately-broken committed golden must be caught loudly."""

    def test_broken_golden_fails_with_per_cell_diffs(self):
        from repro.analysis.experiments import run_table1

        golden = load_golden("table1", FIXTURES / "broken")
        comparison = compare_table1(golden, run_table1())
        assert not comparison.passed
        cells = {d.cell for d in comparison.mismatches}
        # The perturbed bandwidth cell and the fabricated level are
        # both localised by name.
        assert "level=3.1" in cells
        assert "level=9.9" in cells
        report = comparison.format()
        assert "level=3.1" in report and "1999" in report


class TestCaptureAndVerify:
    def test_capture_refuses_screening_backend(self):
        with pytest.raises(RegressionError, match="bit-identical"):
            capture_goldens(backend="analytic")

    def test_capture_verify_round_trip_small_budget(self, tmp_path):
        payloads = capture_goldens(chunk_budget=3_000)
        write_goldens(payloads, tmp_path)
        verification = verify_paper(directory=tmp_path)
        assert verification.passed
        assert verification.chunk_budget == 3_000
        assert verification.cells_checked > 100

    def test_verify_against_committed_goldens_with_telemetry(self):
        telemetry = Telemetry.enabled()
        verification = verify_paper(telemetry=telemetry)
        assert verification.passed, verification.format()
        assert verification.backend == default_backend_name()
        counters = telemetry.registry.as_dict()["counters"]
        assert counters["regression.cases"] == verification.cells_checked
        assert counters["regression.mismatches"] == 0
        assert verification.format().endswith(
            f"PASS: {verification.cells_checked}/"
            f"{verification.cells_checked} cells within tolerance"
        )
