"""Service-layer throughput workload: Zipf-skewed arrivals over the
query service, measuring queries/sec versus batch size, worker count,
and cache configuration.

Urban check-in traffic is highly skewed — a small set of hot users and
hot regions generates most of the load — so arrivals are drawn from a
Zipf distribution over the located users.  Each configuration serves
the *same* arrival sequence, so the rows are directly comparable; the
baseline row (batch=1, workers=1, no cache) is the sequential
``engine.query`` loop the rest are sped up against.

The drivers here back two consumers: ``python -m repro.bench service``
(registered in :data:`repro.bench.figures.ALL_EXPERIMENTS`) and the
standalone ``benchmarks/bench_service_throughput.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.config import BenchProfile, get_profile
from repro.bench.reporting import ExperimentTable
from repro.bench.workloads import get_bundle
from repro.core.engine import GeoSocialEngine
from repro.core.request import QueryRequest
from repro.service.service import QueryService
from repro.utils.rng import make_rng


def zipf_arrivals(
    users: list[int], count: int, skew: float = 1.1, seed: int = 0
) -> list[int]:
    """A ``count``-long arrival sequence over ``users``, Zipf-skewed.

    Users are ranked in a seed-shuffled order and user at rank ``r``
    arrives with probability ∝ ``1/(r+1)^skew`` — the classic model of
    repeat-heavy request traffic.

        >>> from repro.bench.service_workload import zipf_arrivals
        >>> arrivals = zipf_arrivals([10, 20, 30, 40], count=100, seed=1)
        >>> len(arrivals), set(arrivals) <= {10, 20, 30, 40}
        (100, True)
    """
    if not users:
        raise ValueError("empty user population")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    ranked = list(users)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


@dataclass
class ThroughputPoint:
    """One measured serving configuration."""

    label: str
    batch_size: int
    workers: int
    cache_size: int
    queries: int
    elapsed: float
    hit_rate: float

    @property
    def qps(self) -> float:
        """Queries served per second."""
        return self.queries / self.elapsed if self.elapsed > 0 else float("inf")


def run_throughput_point(
    engine: GeoSocialEngine,
    arrivals: list[int],
    *,
    label: str,
    batch_size: int,
    workers: int,
    cache_size: int,
    k: int = 30,
    alpha: float = 0.3,
    method: str = "ais",
) -> ThroughputPoint:
    """Serve the whole arrival sequence through a fresh
    :class:`QueryService` in ``batch_size``-sized batches and time it."""
    with QueryService(engine, max_workers=workers, cache_size=cache_size) as service:
        requests = [
            QueryRequest(user=user, k=k, alpha=alpha, method=method)
            for user in arrivals
        ]
        start = time.perf_counter()
        for lo in range(0, len(requests), batch_size):
            service.query_many(requests[lo : lo + batch_size])
        elapsed = time.perf_counter() - start
        hit_rate = service.stats.hit_rate
    return ThroughputPoint(
        label=label,
        batch_size=batch_size,
        workers=workers,
        cache_size=cache_size,
        queries=len(arrivals),
        elapsed=elapsed,
        hit_rate=hit_rate,
    )


def run_throughput_grid(
    engine: GeoSocialEngine,
    arrivals: list[int],
    *,
    k: int = 30,
    alpha: float = 0.3,
    method: str = "ais",
    batch_sizes: tuple[int, ...] = (1, 16, 64),
    worker_counts: tuple[int, ...] = (1, 4),
    cache_size: int = 4096,
) -> list[ThroughputPoint]:
    """The standard configuration sweep: a sequential no-cache baseline,
    then batching, workers, and caching toggled across the grid."""
    points = [
        run_throughput_point(
            engine,
            arrivals,
            label="baseline (seq, no cache)",
            batch_size=1,
            workers=1,
            cache_size=0,
            k=k,
            alpha=alpha,
            method=method,
        )
    ]
    for batch in batch_sizes:
        if batch == 1:
            continue
        for workers in worker_counts:
            points.append(
                run_throughput_point(
                    engine,
                    arrivals,
                    label=f"batch={batch} workers={workers} no cache",
                    batch_size=batch,
                    workers=workers,
                    cache_size=0,
                    k=k,
                    alpha=alpha,
                    method=method,
                )
            )
    points.append(
        run_throughput_point(
            engine,
            arrivals,
            label=f"cache only (seq, LRU {cache_size})",
            batch_size=1,
            workers=1,
            cache_size=cache_size,
            k=k,
            alpha=alpha,
            method=method,
        )
    )
    points.append(
        run_throughput_point(
            engine,
            arrivals,
            label=f"batch={max(batch_sizes)} workers={max(worker_counts)} "
            f"cache LRU {cache_size}",
            batch_size=max(batch_sizes),
            workers=max(worker_counts),
            cache_size=cache_size,
            k=k,
            alpha=alpha,
            method=method,
        )
    )
    return points


def service_throughput(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Experiment driver (registered as ``service``): queries/sec of the
    service layer under Zipf-skewed arrivals on the Gowalla-like
    dataset, versus batch size, worker count, and cache configuration."""
    profile = profile or get_profile()
    bundle = get_bundle("gowalla", profile)
    engine = bundle.engine
    located = list(bundle.dataset.locations.located_users())
    arrivals = zipf_arrivals(
        located, count=max(profile.queries * 25, 100), skew=1.1, seed=profile.seed
    )
    points = run_throughput_grid(
        engine,
        arrivals,
        k=profile.default_k,
        alpha=profile.default_alpha,
    )
    baseline = points[0]
    table = ExperimentTable(
        "Service",
        "Serving throughput on Zipf-skewed arrivals (Gowalla-like)",
        ["Configuration", "Queries", "QPS", "Speedup", "Cache hit rate"],
        notes=f"{len(set(arrivals))} distinct users over {len(arrivals)} arrivals; "
        "speedup is relative to the sequential no-cache baseline",
    )
    for point in points:
        table.add_row(
            [
                point.label,
                point.queries,
                point.qps,
                point.qps / baseline.qps if baseline.qps else float("inf"),
                point.hit_rate,
            ]
        )
    return [table]
