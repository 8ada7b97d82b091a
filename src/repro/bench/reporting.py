"""Result tables and the record of a run.

An :class:`ExperimentTable` holds data only; ``python -m repro.bench``
prints it through the CLI's one formatter
(:func:`repro.cli.format.format_output`), and :func:`record` keeps the
deterministic half of a run: every table not marked ``timed``, with
its claims, as the JSON that ``--output`` writes
(``BENCH_paper_smoke.json`` at ``smoke``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class ExperimentTable:
    """One regenerated table/figure: a title, column headers, and rows
    printed exactly as the paper's series (one row per x-axis point or
    per dataset, one column per method/statistic), plus the paper's
    claims checked on those numbers, each ``(statement, holds)``.  A
    ``timed`` table holds wall times, which no two runs repeat, so it
    stays out of the record."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""
    claims: list[tuple[str, bool]] = field(default_factory=list)
    timed: bool = False

    @property
    def name(self) -> str:
        return f"{self.experiment}: {self.title}"

    def add_row(self, row: Sequence) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(self.headers)}"
            )
        self.rows.append(list(row))

    def claim(self, statement: str, holds: bool) -> None:
        self.claims.append((statement, bool(holds)))

    def column(self, header: str) -> list:
        """All values of one column (for assertions on trends)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def record(profile: str, runs: "dict[str, list[ExperimentTable]]") -> dict:
    """The record of a run (``runs``: experiment name → its tables):
    ``{"profile": …, "experiments": {name: {table name: {"headers",
    "rows", "claims"}}}}``, timed tables left out."""
    experiments = {
        name: {
            table.name: {"headers": table.headers, "rows": table.rows, "claims": [
                {"statement": statement, "holds": holds} for statement, holds in table.claims
            ]}
            for table in tables if not table.timed
        }
        for name, tables in runs.items()
    }
    return {"profile": profile, "experiments": experiments}


def dumps(run_record: dict) -> str:
    """The record as the committed file's text (every float its
    ``repr``, so the file is exact)."""
    return json.dumps(run_record, indent=1, ensure_ascii=False) + "\n"
