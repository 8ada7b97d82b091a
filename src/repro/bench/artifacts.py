"""Machine-readable benchmark artifacts (``BENCH_<name>.json``).

Every run under ``benchmarks/`` — pytest-benchmark suites and
standalone scripts alike — writes a small JSON file next to the working
directory (or under ``REPRO_BENCH_JSON_DIR``), readable with plain
tooling instead of parsing stdout:

- the standalone scripts (``benchmarks/bench_sharded_scaling.py``,
  ``benchmarks/bench_approx.py``) call :func:`write_bench_json` from
  their ``main()`` with their workload parameters, medians, and
  speedups;
- pytest runs are harvested by ``benchmarks/conftest.py``: an autouse
  fixture collects every measured pytest-benchmark case per bench
  module and a session-finish hook writes one ``BENCH_<module>.json``
  each.

The envelope is stable: ``bench`` (name), ``profile`` (active scale
profile), ``backend``, and the caller's payload.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path


def bench_json_path(name: str, directory: "str | os.PathLike | None" = None) -> Path:
    """Where ``BENCH_<name>.json`` lands: explicit ``directory`` >
    ``REPRO_BENCH_JSON_DIR`` > the current working directory."""
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_JSON_DIR", ".")
    return Path(directory) / f"BENCH_{name}.json"


def write_bench_json(
    name: str,
    payload: dict,
    directory: "str | os.PathLike | None" = None,
) -> Path:
    """Write one benchmark artifact and return its path.

        >>> from repro.bench.artifacts import write_bench_json
        >>> import json, tempfile, os
        >>> with tempfile.TemporaryDirectory() as tmp:
        ...     path = write_bench_json("doctest", {"speedup": 2.0}, tmp)
        ...     data = json.loads(path.read_text())
        ...     path.name, data["bench"], data["speedup"]
        ('BENCH_doctest.json', 'doctest', 2.0)
    """
    from repro.bench.config import get_profile

    try:
        profile = get_profile().name
    except ValueError:  # unknown REPRO_BENCH_PROFILE: record it verbatim
        profile = os.environ.get("REPRO_BENCH_PROFILE", "unknown")
    envelope = {
        "bench": name,
        "profile": profile,
        "backend": os.environ.get("REPRO_BACKEND", "auto"),
        "python": platform.python_version(),
        "generated_unix": int(time.time()),
    }
    envelope.update(payload)
    path = bench_json_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=False, default=str)
        handle.write("\n")
    return path


def tables_payload(tables) -> dict:
    """Serialize :class:`~repro.bench.reporting.ExperimentTable` rows
    into an artifact payload (one entry per table)."""
    return {
        "tables": [
            {
                "experiment": t.experiment,
                "title": t.title,
                "headers": list(t.headers),
                "rows": [list(row) for row in t.rows],
                "notes": t.notes,
            }
            for t in tables
        ]
    }
