"""Benchmark harness regenerating the paper's evaluation (Section 6).

One driver per table/figure lives in :mod:`repro.bench.figures`; each
returns an :class:`~repro.bench.reporting.ExperimentTable` whose rows
mirror the series the paper plots.  ``python -m repro.bench`` runs the
whole evaluation and prints each table (``--output FILE`` also writes a
markdown report).

Scale is controlled by the ``REPRO_BENCH_PROFILE`` environment variable
(``smoke`` / ``quick`` / ``full``; default ``quick``) — see
:mod:`repro.bench.config` for the exact dataset sizes and query counts.
"""

from repro.bench.config import BenchProfile, get_profile
from repro.bench.reporting import ExperimentTable
from repro.bench.runner import MethodAggregate, run_method
from repro.bench.workloads import (
    DatasetBundle,
    get_bundle,
    sample_query_users,
    zipf_arrivals,
)

__all__ = [
    "BenchProfile",
    "get_profile",
    "ExperimentTable",
    "MethodAggregate",
    "run_method",
    "DatasetBundle",
    "get_bundle",
    "sample_query_users",
    "zipf_arrivals",
]
