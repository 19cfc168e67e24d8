"""Tests for ASCII table formatting."""

import pytest

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError


class TestFormatTable:
    def test_alignment(self):
        out = format_table([["name", "v"], ["long-label", "1"], ["x", "100"]])
        lines = out.split("\n")
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        # Numeric column right-aligned.
        assert lines[2].endswith("1")
        assert lines[3].endswith("100")

    def test_no_header_rule(self):
        out = format_table([["a", "b"], ["c", "d"]], header_rule=False)
        assert "---" not in out

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            format_table([])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError):
            format_table([["a", "b"], ["c"]])

    def test_min_width(self):
        out = format_table([["a", "b"]], min_width=10)
        assert len(out.split("\n")[0]) >= 20
