"""Execution and aggregation of benchmark query batches."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.variants import run_query
from repro.core.engine import GeoSocialEngine
from repro.core.result import SSRQResult


@dataclass
class MethodAggregate:
    """Averages over a query batch for one (method, parameters) point —
    the unit the paper plots."""

    method: str
    queries: int
    avg_time: float
    avg_pops: float
    pop_ratio: float
    avg_evaluations: float
    results: list[SSRQResult] = field(repr=False, default_factory=list)


def run_method(
    engine: GeoSocialEngine,
    users: list[int],
    method: str,
    k: int = 30,
    alpha: float = 0.3,
    t: int | None = None,
    keep_results: bool = False,
) -> MethodAggregate:
    """Run one query per user and aggregate run-time / pop statistics
    (``method``: a served name or a :mod:`repro.bench.variants` one;
    ``t``: the ``ais-cache`` list length)."""
    if not users:
        raise ValueError("empty query workload")
    total_time = 0.0
    total_pops = 0
    total_evals = 0
    results: list[SSRQResult] = []
    for user in users:
        start = time.perf_counter()
        result = run_query(engine, method, user, k, alpha, t)
        total_time += time.perf_counter() - start
        total_pops += result.stats.pops
        total_evals += result.stats.evaluations
        if keep_results:
            results.append(result)
    n = len(users)
    return MethodAggregate(
        method=method,
        queries=n,
        avg_time=total_time / n,
        avg_pops=total_pops / n,
        pop_ratio=(total_pops / n) / engine.graph.n,
        avg_evaluations=total_evals / n,
        results=results,
    )


def jaccard(a: set, b: set) -> float:
    """Jaccard set-similarity ratio (Figure 7b's measure)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0
