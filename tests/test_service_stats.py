"""Direct contract tests for the stats objects the serving stack
exposes — :class:`ServiceStats`, the cache's :class:`CacheStats` (via
``cache_info``), :class:`PlannerStats` and the server's
:class:`ServerStats`.

``/stats`` and ``/metrics`` are only as trustworthy as these counters;
this suite pins their arithmetic (rates, averages, maxima), their
snapshot key sets, and the cross-layer identities the server suite
relies on (requests = hits + misses, admitted = completed at rest).
"""

from __future__ import annotations

import pytest

from repro import GeoSocialEngine, PlannerStats, QueryService, ServiceStats
from repro.core.result import Neighbor, SSRQResult
from repro.datasets.synthetic import build_dataset
from repro.server import ServerStats
from repro.core.request import QueryRequest


def _result(method: str = "ais") -> SSRQResult:
    return SSRQResult(0, 1, 0.3, [Neighbor(9, 0.25, 1.0, 0.1)], method=method)


# -- ServiceStats arithmetic -------------------------------------------


def test_service_stats_zero_state():
    stats = ServiceStats()
    assert stats.hit_rate == 0.0
    assert stats.avg_query_seconds == 0.0
    snap = stats.snapshot()
    assert snap["requests"] == 0
    assert snap["per_method"] == {}
    assert snap["total_pops"] == 0


def test_service_stats_hit_rate():
    stats = ServiceStats(cache_hits=3, cache_misses=1)
    assert stats.hit_rate == 0.75
    assert stats.snapshot()["hit_rate"] == 0.75


def test_record_execution_accumulates():
    stats = ServiceStats()
    stats.record_execution("ais", _result("ais"), 0.5)
    stats.record_execution("spa", _result("spa"), 1.5)
    stats.record_execution("ais", _result("ais"), 0.25)
    assert stats.executed == 3
    assert stats.query_seconds == pytest.approx(2.25)
    assert stats.avg_query_seconds == pytest.approx(0.75)
    assert stats.max_query_seconds == 1.5
    assert stats.per_method == {"ais": 2, "spa": 1}


def test_snapshot_per_method_is_a_copy():
    stats = ServiceStats()
    stats.record_execution("ais", _result(), 0.1)
    snap = stats.snapshot()
    snap["per_method"]["ais"] = 999
    assert stats.per_method["ais"] == 1


# -- live service counters + cache_info --------------------------------


@pytest.fixture(scope="module")
def engine() -> GeoSocialEngine:
    dataset = build_dataset("stats-suite", n=150, avg_degree=6.0, coverage=0.9, seed=5)
    return GeoSocialEngine.from_dataset(dataset, num_landmarks=4, s=5, seed=1)


def test_cache_info_contract(engine):
    with QueryService(engine) as service:
        user = sorted(engine.locations.located_users())[0]
        service.query(user, k=5, method="ais")
        service.query(user, k=5, method="ais")  # identical: must hit
        service.query(user, k=6, method="ais")  # different k: must miss
        info = service.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["size"] == 2
        assert info["hit_rate"] == pytest.approx(1 / 3)
        assert info["capacity"] == 1024
        # service-level counters agree with the cache's own
        snap = service.stats.snapshot()
        assert snap["requests"] == 3
        assert snap["cache_hits"] == info["hits"]
        assert snap["cache_misses"] == info["misses"]
        assert snap["requests"] == snap["cache_hits"] + snap["cache_misses"]
        assert snap["executed"] == snap["cache_misses"]


def test_cache_disabled_counts_all_misses(engine):
    with QueryService(engine, cache_size=0) as service:
        user = sorted(engine.locations.located_users())[0]
        for _ in range(3):
            service.query(user, k=5)
        snap = service.stats.snapshot()
        assert snap["cache_hits"] == 0
        assert snap["cache_misses"] == 3
        assert snap["executed"] == 3
        # a disabled result cache reports no result-cache counters at
        # all rather than zeros; only the engine's social column cache
        # section (independent of cache_size) survives
        assert set(service.cache_info()) <= {"social"}


def test_batch_dedup_counted(engine):
    with QueryService(engine, cache_size=0) as service:
        user = sorted(engine.locations.located_users())[0]
        responses = service.query_many(
            [QueryRequest(user, k=5), QueryRequest(user, k=5), QueryRequest(user, k=7)]
        )
        assert len(responses) == 3
        snap = service.stats.snapshot()
        assert snap["batches"] == 1
        assert snap["requests"] == 3
        assert snap["deduplicated"] == 1
        assert snap["executed"] == 2


def test_invalidation_counters_move_on_update(engine):
    with QueryService(engine) as service:
        located = sorted(engine.locations.located_users())
        user = located[0]
        service.query(user, k=5)
        before = service.stats.snapshot()
        service.move_user(user, 0.123, 0.321)
        after = service.stats.snapshot()
        touched = (
            (after["invalidated_entries"] - before["invalidated_entries"])
            + (after["repaired_entries"] - before["repaired_entries"])
            + (after["reused_entries"] - before["reused_entries"])
            + (after["full_invalidations"] - before["full_invalidations"])
        )
        assert touched >= 1, "an update must account for the cached entry"
        # an edge update touches nothing; the swap that folds it in is
        # the one full flush, and it accounts for every entry it drops
        service.query(user, k=5)
        held, settled = len(service.cache), service.stats.snapshot()
        service.update_edge(located[0], located[1], 0.5)
        assert service.stats.snapshot() == settled
        service.rebuild_engine()
        swapped = service.stats.snapshot()
        assert swapped["full_invalidations"] - settled["full_invalidations"] == 1
        assert swapped["invalidated_entries"] - settled["invalidated_entries"] == held >= 1
        assert service.cache_info()["full_invalidations"] == 1


# -- PlannerStats -------------------------------------------------------


def test_planner_stats_snapshot_arithmetic():
    stats = PlannerStats()
    snap = stats.snapshot()
    assert snap["auto_resolutions"] == 0
    stats.auto_resolutions += 2
    stats.per_method["ais"] = stats.per_method.get("ais", 0) + 2
    snap = stats.snapshot()
    assert snap["auto_resolutions"] == 2
    assert snap["per_method"] == {"ais": 2}
    # snapshot must be detached from live state
    snap["per_method"]["ais"] = 99
    assert stats.per_method["ais"] == 2


def test_planner_stats_accumulate_through_auto_queries(engine):
    with QueryService(engine, cache_size=0) as service:
        user = sorted(engine.locations.located_users())[0]
        before = engine.planner.stats.snapshot()["auto_resolutions"]
        service.query(user, k=5, method="auto")
        service.query(user, k=6, method="auto")
        after = engine.planner.stats.snapshot()["auto_resolutions"]
        assert after - before == 2


# -- ServerStats --------------------------------------------------------


def test_server_stats_snapshot_keys():
    stats = ServerStats()
    snap = stats.snapshot()
    for key in (
        "connections",
        "requests",
        "served_inline",
        "admitted",
        "shed",
        "completed",
        "deadline_expired",
        "deadline_timeouts",
        "coalesced_batches",
        "coalesced_requests",
        "streams_opened",
        "streams_closed",
        "events_sent",
    ):
        assert snap[key] == 0, key
    stats.admitted += 5
    stats.completed += 5
    stats.shed += 2
    snap = stats.snapshot()
    assert (snap["admitted"], snap["completed"], snap["shed"]) == (5, 5, 2)
