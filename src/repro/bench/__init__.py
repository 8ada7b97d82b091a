"""Benchmark harness regenerating the paper's evaluation (Section 6).

One driver per table/figure lives in :mod:`repro.bench.figures`
(``ALL_EXPERIMENTS``); each returns
:class:`~repro.bench.reporting.ExperimentTable` objects whose rows
mirror the series the paper plots and whose claims state which of the
paper's findings hold on those numbers.  ``python -m repro.bench`` is
the one entry point: it runs the whole evaluation (or the named
experiments) and prints each table with one verdict line per claim
(``--output FILE`` also writes a markdown report).

Scale is the ``--profile`` option (``smoke`` / ``quick`` / ``full``;
default ``quick``); every driver and :func:`get_bundle` takes the
profile explicitly — see :mod:`repro.bench.config` for the exact
dataset sizes and query counts.
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
