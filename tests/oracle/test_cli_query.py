"""Tests for the ``repro-sim query`` subcommand."""

import io
import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError

SCALE = str(1 / 256)


class TestSingleQuery:
    def test_prose_answer(self, capsys):
        assert main(["--scale", SCALE, "query", "--level", "3.1",
                     "--channels", "2", "--freq", "300"]) == 0
        out = capsys.readouterr().out
        assert "Feasibility query" in out
        assert "tier=" in out
        assert "err<=" in out
        assert "escalation" in out

    def test_json_answer(self, capsys):
        assert main(["--scale", SCALE, "query", "--level", "3.1",
                     "--channels", "2", "--freq", "300", "--json"]) == 0
        out = capsys.readouterr().out
        answer = json.loads(out)
        assert answer["level"] == "3.1"
        assert answer["channels"] == 2
        assert answer["tier"] in ("surrogate", "analytic", "exact")
        assert "error_bound" in answer
        assert "access_low_ms" in answer and "access_high_ms" in answer

    def test_exact_accuracy_via_flag(self, capsys):
        assert main(["--scale", SCALE, "query", "--level", "3.1",
                     "--channels", "2", "--freq", "300",
                     "--accuracy", "0", "--json"]) == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["tier"] == "exact"
        assert answer["error_bound"] == 0.0


class TestBatchMode:
    QUERIES = (
        '{"level": "3.1", "channels": 2, "freq_mhz": 300.0}\n'
        '\n'
        '{"level": "4", "channels": 4, "freq_mhz": 400.0, "accuracy": 0.5}\n'
    )

    def _run(self, monkeypatch, capsys, cache_dir):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.QUERIES))
        assert main(["--scale", SCALE, "--cache-dir", str(cache_dir),
                     "query", "--batch"]) == 0
        return capsys.readouterr().out

    def test_one_answer_per_query_line(self, monkeypatch, capsys, tmp_path):
        out = self._run(monkeypatch, capsys, tmp_path / "cache")
        answers = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert len(answers) == 2
        assert answers[0]["level"] == "3.1"
        assert answers[1]["level"] == "4"
        assert all("tier" in a and "error_bound" in a for a in answers)

    def test_byte_stable_across_runs(self, monkeypatch, capsys, tmp_path):
        # Run 1 computes (and caches); run 2 serves from the warm
        # cache.  The bytes on stdout must be identical.
        first = self._run(monkeypatch, capsys, tmp_path / "cache")
        second = self._run(monkeypatch, capsys, tmp_path / "cache")
        assert first == second

    def test_malformed_line_is_named(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json\n"))
        with pytest.raises(ConfigurationError, match="line 1"):
            main(["--scale", SCALE, "query", "--batch"])

    def test_unknown_field_is_named(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"level": "4", "channels": 4, "freq_mhz": 400.0, "chanels": 2}\n'),
        )
        with pytest.raises(ConfigurationError, match="chanels"):
            main(["--scale", SCALE, "query", "--batch"])

    def test_missing_field_is_named(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"level": "4"}\n'))
        with pytest.raises(ConfigurationError, match="channels"):
            main(["--scale", SCALE, "query", "--batch"])
