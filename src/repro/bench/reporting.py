"""Result tables and their text/markdown rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class ExperimentTable:
    """One regenerated table/figure: a title, column headers, and rows
    printed exactly as the paper's series (one row per x-axis point or
    per dataset, one column per method/statistic), plus the paper's
    claims checked on those numbers, each ``(statement, holds)``."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""
    claims: list[tuple[str, bool]] = field(default_factory=list)

    def add_row(self, row: Sequence) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(self.headers)}"
            )
        self.rows.append(list(row))

    def claim(self, statement: str, holds: bool) -> None:
        self.claims.append((statement, bool(holds)))

    def _verdicts(self) -> list[str]:
        return [
            f"claim: {statement}: {'holds' if holds else 'does not hold'}"
            for statement, holds in self.claims
        ]

    def _fmt(self, value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 100:
                return f"{value:.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def to_text(self) -> str:
        """Fixed-width ASCII rendering."""
        cells = [self.headers] + [[self._fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.headers))]
        lines = [f"== {self.experiment}: {self.title} =="]
        for r, row in enumerate(cells):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(f"({self.notes})")
        lines += self._verdicts()
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"#### {self.experiment}: {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            lines.append(f"*{self.notes}*")
        if self.claims:
            lines.append("")
            lines += [f"- {verdict}" for verdict in self._verdicts()]
        return "\n".join(lines)

    def column(self, header: str) -> list:
        """All values of one column (for assertions on trends)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]
