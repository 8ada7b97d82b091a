"""Sharded scatter-gather scaling: throughput and shard pruning versus
shard count on the Zipf-skewed service workload.

Not a paper figure — this benchmarks the sharding layer
(:mod:`repro.shard`) added on top of the reproduction.  Every
configuration serves the *same* Zipf arrival sequence in the same batch
sizes with result caching off (the engine, not the cache, is measured);
the interesting numbers are the speedup over the 1-shard configuration
and the fraction of non-home shards the ``MINF`` bound prunes.

Two execution backends are measured:

- ``inline`` — the scatter runs in the serving thread.  This isolates
  the *work* story: pruned shards cost nothing, searched shards run
  over right-sized indexes, and threshold propagation lets non-home
  shards terminate after a bound check.  A single unified index is a
  strong baseline (the home shard must re-derive roughly the global
  top-k on its own), so inline throughput stays near 1x — the honest
  single-core reading.
- ``process`` — the warm :class:`~repro.shard.ProcessScatterPool`:
  ``min(cpus, shards)`` pinned worker processes (one serving group per
  shard, the deployment shape sharding exists for), fork-sharing the
  built indexes copy-on-write, pre-forked before timing starts, and
  kept warm across the run.  On multi-core hardware this is where
  shard count buys real throughput; on a single core it degrades
  gracefully to the inline story plus IPC overhead.

The **mixed read/update scenario** (:func:`run_sharded_mixed`)
interleaves location updates between serving batches: under the
process backend those updates ride the delta journal to the live
workers, and the scenario records how often the pool had to cold
re-fork instead — the warm-pool acceptance number (must be <= 1; the
expectation is 0).

Drivers back ``python -m repro.bench sharded`` (registered in
:data:`repro.bench.figures.ALL_EXPERIMENTS`) and the standalone
``benchmarks/bench_sharded_scaling.py``, whose acceptance gate
requires the 4-shard configuration to beat 1-shard by >= 3x with a
nonzero pruning rate whenever the hardware gives shard parallelism
real margin (>= 4 cores; fewer cores report instead of asserting),
and writes the tracked ``BENCH_sharded.json`` baseline.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from repro.bench.config import BenchProfile, get_profile
from repro.bench.reporting import ExperimentTable
from repro.bench.workloads import get_bundle, zipf_arrivals
from repro.core.request import QueryRequest
from repro.service.service import QueryService
from repro.shard.engine import ShardedGeoSocialEngine
from repro.shard.parallel import ProcessScatterPool

#: shard counts swept by the scaling experiment
SHARD_COUNTS = (1, 2, 4, 8)


@dataclass
class ShardedPoint:
    """One measured shard-count configuration."""

    shards: int
    backend: str
    workers: int
    queries: int
    elapsed: float
    pruned_fraction: float
    shards_searched_per_query: float
    #: location updates interleaved with serving (mixed scenario only)
    updates: int = 0
    #: rounds in which the pool fell back to a cold re-fork (must stay
    #: <= 1 under delta shipping; 0 is the expectation)
    cold_reforks: int = 0
    #: per-worker re-forks the pool performed (0 when deltas sufficed)
    reforks: int = 0
    #: delta records shipped to live workers instead of re-forking
    deltas_shipped: int = 0

    @property
    def qps(self) -> float:
        """Queries served per second."""
        return self.queries / self.elapsed if self.elapsed > 0 else float("inf")


def build_sharded_engine(
    dataset,
    n_shards: int,
    *,
    profile: BenchProfile | None = None,
    landmarks=None,
    normalization=None,
    partitioner_kind: str = "grid",
    max_workers: int = 1,
    copy_locations: bool = False,
) -> ShardedGeoSocialEngine:
    """A sharded engine over ``dataset`` sharing pre-built landmark
    tables/normalization (pass the single engine's to skip N rebuilds).
    The grid partitioner's region boundaries respect the spatial
    clustering, which is what makes the MINF bound prune hard.

    ``copy_locations=True`` gives the engine a private
    :class:`~repro.engine.LocationTable` copy so a mutating scenario
    (the mixed read/update leg) cannot corrupt the shared bundle.

    The engine is pinned to ``scatter_backend="inline"``: the benchmark
    measures each backend explicitly (inline via the service, process
    via its own :class:`~repro.shard.ProcessScatterPool`), so the
    engine's auto-resolution must not fork a second, unmeasured pool.
    """
    profile = profile or get_profile()
    locations = dataset.locations.copy() if copy_locations else dataset.locations
    return ShardedGeoSocialEngine(
        dataset.graph,
        locations,
        n_shards=n_shards,
        scatter_backend="inline",
        partitioner_kind=partitioner_kind,
        num_landmarks=profile.num_landmarks,
        s=profile.default_s,
        seed=profile.seed,
        landmarks=landmarks,
        normalization=normalization,
        max_workers=max_workers,
    )


def run_sharded_point(
    engine: ShardedGeoSocialEngine,
    arrivals: list[int],
    *,
    backend: str = "inline",
    batch_size: int = 32,
    k: int = 30,
    alpha: float = 0.3,
    method: str = "ais",
) -> ShardedPoint:
    """Serve the arrival sequence in ``batch_size``-sized batches (no
    result cache — the engine is measured) and time it.

    ``backend="inline"`` serves through a fresh
    :class:`~repro.service.QueryService`; ``backend="process"`` fans
    shard searches across ``min(cpus, shards)`` forked workers via
    :class:`~repro.shard.ProcessScatterPool`.  The pool is pre-forked
    and pinged (:meth:`~repro.shard.ProcessScatterPool.warm_up`)
    *before* the clock starts — fork latency is a deployment one-off,
    not a serving cost.
    """
    before = engine.scatter_info()
    workers = 1
    if backend == "inline":
        with QueryService(engine, max_workers=1, cache_size=0) as service:
            requests = [
                QueryRequest(user=user, k=k, alpha=alpha, method=method)
                for user in arrivals
            ]
            start = time.perf_counter()
            for lo in range(0, len(requests), batch_size):
                service.query_many(requests[lo : lo + batch_size])
            elapsed = time.perf_counter() - start
    elif backend == "process":
        workers = max(1, min(os.cpu_count() or 1, engine.n_shards))
        with ProcessScatterPool(engine, processes=workers) as pool:
            pool.warm_up()
            start = time.perf_counter()
            for lo in range(0, len(arrivals), batch_size):
                pool.query_many(
                    [
                        QueryRequest(user, k, alpha, method)
                        for user in arrivals[lo : lo + batch_size]
                    ]
                )
            elapsed = time.perf_counter() - start
    else:
        raise ValueError(f"unknown backend {backend!r}; choose 'inline' or 'process'")
    after = engine.scatter_info()
    scatter = after["scatter_queries"] - before["scatter_queries"]
    considered = after["shards_considered"] - before["shards_considered"]
    searched = after["shards_searched"] - before["shards_searched"]
    prunable = considered - scatter
    return ShardedPoint(
        shards=engine.n_shards,
        backend=backend,
        workers=workers,
        queries=len(arrivals),
        elapsed=elapsed,
        pruned_fraction=(considered - searched) / prunable if prunable > 0 else 0.0,
        shards_searched_per_query=searched / scatter if scatter else 0.0,
    )


def run_sharded_mixed(
    engine: ShardedGeoSocialEngine,
    arrivals: list[int],
    *,
    backend: str = "inline",
    batch_size: int = 32,
    k: int = 30,
    alpha: float = 0.3,
    method: str = "ais",
    moves_per_batch: int = 4,
    replicas: int = 1,
    seed: int = 0,
) -> ShardedPoint:
    """Mixed read/update workload on a warm pool: between consecutive
    serving batches, jitter ``moves_per_batch`` located users' positions
    through :meth:`~repro.shard.ShardedGeoSocialEngine.move_user`.

    Under the process backend the updates reach the already-forked
    workers as delta batches over the task pipes; the returned point's
    ``cold_reforks``/``reforks``/``deltas_shipped`` counters make the
    warm-pool claim checkable — a healthy run ships every update as
    deltas and never cold re-forks.  The update schedule is seeded, so
    the inline and process legs traverse identical engine states and
    their timings stay comparable.

    The caller must hand each leg a *private* engine
    (``build_sharded_engine(..., copy_locations=True)``): the moves
    mutate the location table.
    """
    rng = random.Random(seed)
    located = sorted(engine.locations.located_users())
    box = engine.locations.bbox()
    span_x = box.width or 1.0
    span_y = (box.maxy - box.miny) or 1.0

    def apply_moves() -> int:
        moved = 0
        for _ in range(moves_per_batch):
            user = rng.choice(located)
            point = engine.locations.get(user)
            if point is None:
                continue
            x, y = point
            engine.move_user(
                user,
                min(box.maxx, max(box.minx, x + rng.uniform(-0.05, 0.05) * span_x)),
                min(box.maxy, max(box.miny, y + rng.uniform(-0.05, 0.05) * span_y)),
            )
            moved += 1
        return moved

    before = engine.scatter_info()
    workers = 1
    updates = 0
    cold_reforks = reforks = deltas_shipped = 0
    if backend == "inline":
        with QueryService(engine, max_workers=1, cache_size=0) as service:
            start = time.perf_counter()
            for lo in range(0, len(arrivals), batch_size):
                if lo:
                    updates += apply_moves()
                service.query_many(
                    [
                        QueryRequest(user=user, k=k, alpha=alpha, method=method)
                        for user in arrivals[lo : lo + batch_size]
                    ]
                )
            elapsed = time.perf_counter() - start
    elif backend == "process":
        workers = max(1, min(os.cpu_count() or 1, engine.n_shards))
        with ProcessScatterPool(engine, processes=workers, replicas=replicas) as pool:
            pool.warm_up()
            start = time.perf_counter()
            for lo in range(0, len(arrivals), batch_size):
                if lo:
                    updates += apply_moves()
                pool.query_many(
                    [
                        QueryRequest(user, k, alpha, method)
                        for user in arrivals[lo : lo + batch_size]
                    ]
                )
            elapsed = time.perf_counter() - start
            info = pool.info()
            cold_reforks = info["cold_refork_rounds"]
            reforks = info["reforks"]
            deltas_shipped = info["deltas_shipped"]
    else:
        raise ValueError(f"unknown backend {backend!r}; choose 'inline' or 'process'")
    after = engine.scatter_info()
    scatter = after["scatter_queries"] - before["scatter_queries"]
    considered = after["shards_considered"] - before["shards_considered"]
    searched = after["shards_searched"] - before["shards_searched"]
    prunable = considered - scatter
    return ShardedPoint(
        shards=engine.n_shards,
        backend=backend,
        workers=workers,
        queries=len(arrivals),
        elapsed=elapsed,
        pruned_fraction=(considered - searched) / prunable if prunable > 0 else 0.0,
        shards_searched_per_query=searched / scatter if scatter else 0.0,
        updates=updates,
        cold_reforks=cold_reforks,
        reforks=reforks,
        deltas_shipped=deltas_shipped,
    )


def sharded_scaling(profile: BenchProfile | None = None) -> list[ExperimentTable]:
    """Experiment driver (registered as ``sharded``): queries/sec and
    pruned-shard fraction versus shard count on the Zipf-skewed
    Gowalla-like workload, for both scatter backends."""
    profile = profile or get_profile()
    bundle = get_bundle("gowalla", profile)
    located = list(bundle.dataset.locations.located_users())
    arrivals = zipf_arrivals(
        located, count=max(profile.queries * 25, 100), skew=1.1, seed=profile.seed
    )
    points: list[ShardedPoint] = []
    for n_shards in SHARD_COUNTS:
        engine = build_sharded_engine(
            bundle.dataset,
            n_shards,
            profile=profile,
            landmarks=bundle.engine.landmarks,
            normalization=bundle.engine.normalization,
        )
        try:
            for backend in ("inline", "process"):
                points.append(
                    run_sharded_point(
                        engine,
                        arrivals,
                        backend=backend,
                        k=profile.default_k,
                        alpha=profile.default_alpha,
                    )
                )
        finally:
            engine.close()
    baseline = next(p for p in points if p.shards == 1 and p.backend == "inline")
    table = ExperimentTable(
        "Sharded",
        "Scatter-gather scaling on Zipf-skewed arrivals (Gowalla-like)",
        [
            "Shards",
            "Backend",
            "Workers",
            "Queries",
            "QPS",
            "Speedup",
            "Pruned fraction",
            "Searched/query",
        ],
        notes="speedup is relative to 1 shard inline; pruned fraction "
        "counts non-home shards skipped by the MINF bound; the process "
        "backend runs one worker per shard (capped at the core count)",
    )
    for point in points:
        table.add_row(
            [
                point.shards,
                point.backend,
                point.workers,
                point.queries,
                point.qps,
                point.qps / baseline.qps if baseline.qps else float("inf"),
                point.pruned_fraction,
                point.shards_searched_per_query,
            ]
        )
    mixed_table = ExperimentTable(
        "Sharded mixed",
        "Warm pool under a mixed read/update stream (4 shards)",
        [
            "Backend",
            "Queries",
            "Updates",
            "QPS",
            "Cold re-forks",
            "Re-forks",
            "Deltas shipped",
        ],
        notes="location updates interleave with serving batches; under "
        "the process backend they ship to the live workers as delta "
        "batches — cold re-forks must stay <= 1 (0 expected)",
    )
    for backend in ("inline", "process"):
        engine = build_sharded_engine(
            bundle.dataset,
            4,
            profile=profile,
            landmarks=bundle.engine.landmarks,
            normalization=bundle.engine.normalization,
            copy_locations=True,
        )
        try:
            point = run_sharded_mixed(
                engine,
                arrivals,
                backend=backend,
                k=profile.default_k,
                alpha=profile.default_alpha,
                seed=profile.seed,
            )
        finally:
            engine.close()
        mixed_table.add_row(
            [
                point.backend,
                point.queries,
                point.updates,
                point.qps,
                point.cold_reforks,
                point.reforks,
                point.deltas_shipped,
            ]
        )
    return [table, mixed_table]
