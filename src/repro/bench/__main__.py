"""Run the paper evaluation: ``python -m repro.bench [names...]
[--profile smoke|quick|full] [--output PATH]``.

Prints each regenerated table with one verdict line ("holds" or "does
not hold") per claim the driver checks, and with ``--output`` writes
the run's record (:func:`repro.bench.reporting.record`).  The exit code
does not depend on the verdicts.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.config import PROFILES
from repro.bench.figures import ALL_EXPERIMENTS
from repro.bench.reporting import ExperimentTable, dumps, record
from repro.cli.format import format_output


def _print(table: ExperimentTable) -> None:
    rows = [dict(zip(table.headers, row)) for row in table.rows]
    print(f"\n== {table.name} ==")
    print(format_output(rows, table.headers, "table"))
    if table.notes:
        print(f"({table.notes})")
    for statement, holds in table.claims:
        print(f"claim: {statement}: {'holds' if holds else 'does not hold'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"subset to run (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    parser.add_argument("--profile", default="quick", choices=list(PROFILES))
    parser.add_argument(
        "--output", default=None, help="write the run's record (JSON, no wall times) here"
    )
    args = parser.parse_args(argv)

    profile = PROFILES[args.profile]
    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; choose from {list(ALL_EXPERIMENTS)}")

    print(f"profile: {profile.name} (|V|: gowalla={profile.gowalla_n}, "
          f"foursquare={profile.foursquare_n}, twitter={profile.twitter_n}; "
          f"{profile.queries} queries/point)")
    runs = {}
    for name in names:
        start = time.perf_counter()
        runs[name] = ALL_EXPERIMENTS[name](profile)
        elapsed = time.perf_counter() - start
        for table in runs[name]:
            _print(table)
        print(f"[{name}: {elapsed:.1f}s]")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dumps(record(profile.name, runs)))
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
