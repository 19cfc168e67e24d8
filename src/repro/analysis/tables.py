"""Plain-text table formatting for experiment reports.

The benchmarks and the CLI print the regenerated paper artifacts as
aligned ASCII tables; no plotting dependency is required to inspect
any result.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError


def format_table(
    rows: Sequence[Sequence[str]],
    header_rule: bool = True,
    min_width: int = 0,
) -> str:
    """Render rows of strings as an aligned ASCII table.

    The first row is treated as the header when ``header_rule`` is
    set; all rows must have the same number of columns.
    """
    if not rows:
        raise ConfigurationError("cannot format an empty table")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ConfigurationError(
                f"row {i} has {len(row)} columns, expected {width}"
            )
    cols = [max(max(len(str(r[c])) for r in rows), min_width) for c in range(width)]

    def _fmt(row: Sequence[str]) -> str:
        cells = []
        for c, value in enumerate(row):
            text = str(value)
            # Left-align the first (label) column, right-align numbers.
            if c == 0:
                cells.append(text.ljust(cols[c]))
            else:
                cells.append(text.rjust(cols[c]))
        return "  ".join(cells).rstrip()

    lines = [_fmt(rows[0])]
    if header_rule and len(rows) > 1:
        lines.append("  ".join("-" * w for w in cols))
    lines.extend(_fmt(row) for row in rows[1:])
    return "\n".join(lines)
