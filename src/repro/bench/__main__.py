"""Run the full paper evaluation: ``python -m repro.bench``.

Options::

    python -m repro.bench                     # all experiments, quick profile
    python -m repro.bench fig8 fig9           # a subset
    REPRO_BENCH_PROFILE=full python -m repro.bench
    python -m repro.bench --output results.md # also write markdown

Prints each regenerated table to stdout and (with ``--output``) writes
the same tables as a markdown report.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.config import get_profile
from repro.bench.figures import ALL_EXPERIMENTS


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
    parser.add_argument("--profile", default=None, help="smoke | quick | full")
    parser.add_argument("--output", default=None, help="write a markdown report here")
    args = parser.parse_args(argv)

    profile = get_profile(args.profile)
    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [name for name in names if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; choose from {list(ALL_EXPERIMENTS)}")

    print(f"profile: {profile.name} (|V|: gowalla={profile.gowalla_n}, "
          f"foursquare={profile.foursquare_n}, twitter={profile.twitter_n}; "
          f"{profile.queries} queries/point)")
    markdown: list[str] = [f"# Regenerated evaluation (profile: {profile.name})", ""]
    for name in names:
        start = time.perf_counter()
        tables = ALL_EXPERIMENTS[name](profile)
        elapsed = time.perf_counter() - start
        for table in tables:
            print()
            print(table.to_text())
            markdown.append(table.to_markdown())
            markdown.append("")
        print(f"[{name}: {elapsed:.1f}s]")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(markdown))
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
