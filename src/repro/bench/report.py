"""Paper-vs-measured reporting.

Benchmarks register their result tables here; a pytest hook in
``benchmarks/conftest.py`` prints every registered table in the terminal
summary, so ``pytest benchmarks/`` emits the same rows the paper reports
next to the measured values, and writes them to ``--bench-json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


class Table:
    """A formatted experiment table.

    ``formats`` optionally supplies a printf-style format string per
    column (``None`` entries keep the magnitude default).  Percentages
    that happen to be >= 10 and sub-10-ms latencies get the format their
    column asks for instead of the magnitude guess:

        Table("...", ["n", "P[deadlock] (%)", "latency (ms)"],
              formats=[None, "%.1f", "%.2f"])
    """

    def __init__(self, title: str, columns: Sequence[str],
                 notes: Optional[str] = None,
                 formats: Optional[Sequence[Optional[str]]] = None):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[Any]] = []
        self.notes = notes
        if formats is not None and len(formats) != len(self.columns):
            raise ValueError("formats has %d entries; table has %d columns"
                             % (len(formats), len(self.columns)))
        self.formats = list(formats) if formats is not None else None

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row has %d values; table has %d columns"
                             % (len(values), len(self.columns)))
        self.rows.append(list(values))

    def _fmt(self, value: Any, column: int) -> str:
        fmt = self.formats[column] if self.formats is not None else None
        if fmt is not None and isinstance(value, (int, float)):
            return fmt % value
        if isinstance(value, float):
            # Probabilities and ratios keep three decimals; larger
            # magnitudes (milliseconds) keep one.
            return "%.3f" % value if abs(value) < 10.0 else "%.1f" % value
        return str(value)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        rendered_rows = []
        for row in self.rows:
            rendered = [self._fmt(v, i) for i, v in enumerate(row)]
            widths = [max(w, len(r)) for w, r in zip(widths, rendered)]
            rendered_rows.append(rendered)
        def line(cells):
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

        out = ["", "=" * len(self.title), self.title, "=" * len(self.title),
               line(self.columns),
               line(["-" * w for w in widths])]
        for row in rendered_rows:
            out.append(line(row))
        if self.notes:
            out.append("")
            out.append(self.notes)
        return "\n".join(out)

    def to_dict(self) -> Dict[str, Any]:
        """The table as plain JSON-serializable data (``--bench-json``)."""
        return {
            "title": self.title,
            "columns": self.columns,
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }


_REGISTRY: Dict[str, Table] = {}


def register_table(table: Table) -> Table:
    """Register (or replace) a table for end-of-run printing."""
    _REGISTRY[table.title] = table
    return table


def registered_tables() -> List[Table]:
    return [
        _REGISTRY[title] for title in sorted(_REGISTRY)
    ]


def clear_tables() -> None:
    _REGISTRY.clear()
