"""Layer metrics measured by direct timed calls into public functions.

These run on the traced pass's own engine after its trace has been
uninstalled, on users the workload's op stream never touched.  Each
returns ``{metric name: value}``.  Times are in reference-speed seconds
(calibration slices either side of each timed step, see
:mod:`perfbench.hostspeed`), except the host calibration loops, which
are what a foreign host is compared by and stay on the clock.
"""

from __future__ import annotations

import time
from statistics import mean, median

from perfbench import spec
from perfbench.hostspeed import bracketed

_clock = time.perf_counter


def _seconds(fn, slices: int = 2) -> float:
    return bracketed(fn, slices)[1]


def _mean_time(fn, repeats: int) -> float:
    """Per-call time of a call too short to bracket on its own."""

    def batch():
        for _ in range(repeats):
            fn()

    return _seconds(batch) / repeats


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = _clock()
        fn()
        times.append(_clock() - start)
    return median(times)


def host_calibration() -> dict:
    """Fixed microloops: a cross-host normaliser for every timing."""
    import numpy as np

    def py_loop():
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return acc

    column = np.arange(1_000_000, dtype=np.float64)

    def np_loop():
        return float(np.sqrt(column * column + 1.0).sum())

    return {
        "host.calib_py_ms": _median_time(py_loop, 5) * 1e3,
        "host.calib_np_ms": _median_time(np_loop, 5) * 1e3,
    }


def graph_probes(engine, users: list) -> dict:
    from repro.graph.traversal import DijkstraIterator

    times, settled = [], 0

    def full_column(user):
        iterator = DijkstraIterator(engine.graph, user)
        iterator.run_to_completion()
        return len(iterator.settled)

    for user in users[: spec.FULL_COLUMN_USERS]:
        count, seconds = bracketed(lambda: full_column(user), 2)
        times.append(seconds)
        settled += count
    return {
        "graph.full_column_ms": median(times) * 1e3,
        "graph.settled_per_s": settled / sum(times),
    }


def build_probes(engine) -> dict:
    """The build steps behind ``setup_s``, timed one by one with the
    engine's own parameters."""
    from repro.graph.landmarks import LandmarkIndex
    from repro.index.aggregate import AggregateIndex
    from repro.plan import AdaptivePlanner
    from repro.spatial.grid import UniformGrid

    out = {}
    landmarks, out["graph.landmark_build_s"] = bracketed(
        lambda: LandmarkIndex.build(
            engine.graph, engine.landmarks.m, engine.landmark_strategy, engine.seed
        )
    )
    out["spatial.grid_build_s"] = _seconds(
        lambda: UniformGrid.build(engine.locations, engine.s * engine.s), 10
    )
    out["index.aggregate_build_s"] = _seconds(
        lambda: AggregateIndex.build(engine.locations, landmarks, engine.s), 10
    )
    out["plan.calibrate_s"] = _seconds(
        lambda: AdaptivePlanner(seed=engine.seed).calibrate(engine), 10
    )
    return out


def backend_probes(engine, user: int) -> dict:
    kernels, n = engine.kernels, engine.graph.n
    xs, ys = engine.locations.columns()
    qx, qy = engine.locations.get(user)
    spatial = kernels.euclidean_to_point(xs, ys, qx, qy)
    social = kernels.dense_from_dict(n, {}, float("inf"))
    ids = range(n)
    vector = engine.landmarks.vector(user)

    def blend_topk():
        scores = kernels.blend(0.3, 0.7, social, spatial)
        kernels.top_k_by_score(scores, ids, 30)

    return {
        "backend.euclid_us": _mean_time(
            lambda: kernels.euclidean_to_point(xs, ys, qx, qy), 50
        ) * 1e6,
        "backend.blend_topk_us": _mean_time(blend_topk, 50) * 1e6,
        "backend.alt_bounds_us": _mean_time(
            lambda: kernels.alt_lower_bounds(engine.landmarks, vector, ids), 50
        ) * 1e6,
    }


FIXED_METHODS = ("sfa", "spa", "tsa", "ais", "bruteforce")


def fixed_method_sample(engine, users: list, count: int = spec.FIXED_SAMPLE_USERS) -> dict:
    """``engine.query`` per fixed method on unseen users, variants
    cycling the cold grid; then ``auto`` on the same (user, variant)
    pairs for the planner's regret against the best fixed candidate.
    The column cache is emptied before every query so each one pays
    its own traversal, as a never-seen user does."""
    from perfbench.workloads import COLD_VARIANTS

    pairs = [
        (user, *COLD_VARIANTS[i % len(COLD_VARIANTS)])
        for i, user in enumerate(users[:count])
    ]
    out, totals = {}, {}
    pops, candidates = [], []
    social = engine.social_cache
    for method in FIXED_METHODS:
        times = []
        for user, k, alpha in pairs:
            if social is not None:
                social.invalidate_all()   # every method pays its own traversal
            result, seconds = bracketed(
                lambda: engine.query(user, k=k, alpha=alpha, method=method), 1
            )
            times.append(seconds)
            pops.append(result.stats.pops)
            candidates.append(result.stats.candidates_scored)
        out[f"core.search_ms.{method}"] = median(times) * 1e3
        totals[method] = sum(times)
    auto = 0.0
    for user, k, alpha in pairs:
        if social is not None:
            social.invalidate_all()
        auto += _seconds(lambda: engine.query(user, k=k, alpha=alpha, method="auto"), 1)
    best = min(totals[m] for m in engine.planner.candidates if m in totals)
    out["plan.regret_pct"] = (auto / best - 1.0) * 100.0
    out["core.pops_per_query"] = mean(pops)
    out["core.candidates_per_query"] = mean(candidates)
    return out
