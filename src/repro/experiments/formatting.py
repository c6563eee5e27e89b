"""Shared fixed-width and markdown table renderers for the experiment reports.

Every paper table/figure module used to hand-roll its own column-alignment
loop over an f-string template.  The layouts were all instances of one
pattern — right-aligned cells at fixed minimum widths, joined by two spaces —
so they are now expressed declaratively: each experiment spec declares a
tuple of :class:`Column` specs and the pipeline renders its rows through
:func:`render_plain`.  The plain renderer reproduces the legacy f-string
output byte for byte (pinned by the golden-report parity tests), while
:func:`render_markdown` renders the same columns as a GitHub-flavoured
markdown table for the ``--format markdown`` CLI flag.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = ["Column", "column_value", "cell_text", "render_plain", "render_markdown"]


@dataclass(frozen=True)
class Column:
    """One column of an experiment report.

    Attributes
    ----------
    header:
        Column title, right-aligned into ``width`` like the data cells.
    width:
        Minimum cell width.  ``0`` disables padding (used by trailing
        free-form columns such as the hybrid ablation's selection counts).
    fmt:
        Format spec applied to the value before padding (``".4f"``, ``"d"``,
        …).  Empty means ``str(value)``.
    key:
        Where the value comes from: an attribute name of the row object, or
        a callable ``row -> value`` for derived/composite columns.
    """

    header: str
    width: int
    fmt: str = ""
    key: str | Callable[[Any], Any] | None = None


def column_value(column: Column, row: Any) -> Any:
    """Extract the raw value of ``column`` from ``row``."""
    key = column.key if column.key is not None else column.header
    if callable(key):
        return key(row)
    return getattr(row, key)


def cell_text(column: Column, row: Any) -> str:
    """Render one cell exactly as the legacy f-string templates did."""
    return format(column_value(column, row), f">{column.width}{column.fmt}")


def render_plain(columns: Sequence[Column], rows: Sequence[Any]) -> str:
    """Render rows as the legacy fixed-width text table.

    The output is byte-identical to the hand-rolled
    ``f"{a:>10}  {b:>5.2f}  …"`` loops this function replaced: every cell is
    right-aligned into its column width and cells are joined by two spaces.
    """
    lines = ["  ".join(format(c.header, f">{c.width}") for c in columns)]
    for row in rows:
        lines.append("  ".join(cell_text(c, row) for c in columns))
    return "\n".join(lines)


def render_markdown(columns: Sequence[Column], rows: Sequence[Any]) -> str:
    """Render the same columns as a GitHub-flavoured markdown table.

    Values reuse each column's format spec, but cells are stripped of the
    fixed-width padding (markdown renderers re-align them anyway).
    """
    header = "| " + " | ".join(c.header for c in columns) + " |"
    rule = "| " + " | ".join("---:" for _ in columns) + " |"
    lines = [header, rule]
    for row in rows:
        cells = [format(column_value(c, row), c.fmt) for c in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
