"""Benchmark harness regenerating the paper's evaluation (Section 6).

One driver per table/figure lives in :mod:`repro.bench.figures`
(``ALL_EXPERIMENTS``); each returns
:class:`~repro.bench.reporting.ExperimentTable` values whose rows
mirror the series the paper plots and whose claims state which of the
paper's findings hold on those numbers.  ``python -m repro.bench`` is
the one entry point.  Every driver and :func:`get_bundle` takes its
scale profile (:mod:`repro.bench.config`) explicitly.
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
