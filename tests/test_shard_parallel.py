"""Warm process-pool suite: delta shipping, replicas, crash respawn.

The :class:`~repro.shard.ProcessScatterPool` contract under test:

- the pool stays **warm across update epochs** — location updates ship
  as journal deltas over the task pipes instead of killing the fork
  pool, and results stay bit-identical to the inline scatter;
- it re-forks only when replay is provably worse than fork (journal
  truncation, delta budget);
- a worker killed mid-batch is respawned from the *current* post-delta
  engine state and the batch result is unchanged;
- construction on spawn-only platforms raises before any
  multiprocessing context is built, and ``close()`` is idempotent and
  safe against concurrent respawn;
- read replicas answer identically to unreplicated workers;
- ``method="auto"`` is resolved once per distinct request at the
  coordinator of the process-backed pool too.

Everything here needs the ``fork`` start method (skipped otherwise) —
but none of it needs more than one core: exactness and lifecycle are
schedule-independent, only the speedup (benchmarks) is not.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.engine import GeoSocialEngine
from repro.shard import (
    DeltaJournal,
    LocationDelta,
    PoolClosedError,
    ProcessScatterPool,
    ShardedGeoSocialEngine,
    resolve_scatter_backend,
)
from tests.conftest import random_instance, requests

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process scatter pool requires the fork start method",
)


def build_engines(n=80, seed=11, n_shards=4, **kwargs):
    """A (single, sharded-inline) pair sharing one dataset."""
    graph, locations = random_instance(n, seed=seed, coverage=0.9)
    single = GeoSocialEngine(graph, locations.copy(), num_landmarks=2, s=3, seed=1)
    sharded = ShardedGeoSocialEngine(
        graph,
        locations.copy(),
        n_shards=n_shards,
        num_landmarks=2,
        s=3,
        seed=1,
        max_workers=1,
        scatter_backend="inline",
        **kwargs,
    )
    return single, sharded


def assert_matches_inline(pool, sharded, users, k=5, alpha=0.3, method="ais"):
    got = pool.query_many(requests(users, k=k, alpha=alpha, method=method))
    want = [sharded.query(u, k=k, alpha=alpha, method=method) for u in users]
    assert [r.users for r in got] == [r.users for r in want]
    assert [r.scores for r in got] == [r.scores for r in want]
    return got


# -- delta shipping ----------------------------------------------------


def test_warm_pool_survives_update_epochs_without_reforking():
    """The tentpole invariant: a stream of location updates rides the
    delta journal to the live workers — zero re-forks — and every
    post-update batch is bit-identical to the inline scatter."""
    single, sharded = build_engines()
    users = list(sharded.located_users())[:8]
    with ProcessScatterPool(sharded, processes=2) as pool:
        pool.warm_up()
        forks_after_warmup = pool.info()["forks"]
        for round_ in range(4):
            # interleave same-shard moves, boundary crossings, forgets
            sharded.move_user(users[0], 0.01 + round_ * 0.2, 0.5)
            single.move_user(users[0], 0.01 + round_ * 0.2, 0.5)
            sharded.move_user(users[1], 0.9, 0.9)
            single.move_user(users[1], 0.9, 0.9)
            if round_ == 2:
                sharded.forget_location(users[2])
                single.forget_location(users[2])
            batch = [u for u in users if sharded.locations.has_location(u)]
            got = pool.query_many(requests(batch, k=5, alpha=0.3, method="tsa"))
            want = [single.query(u, k=5, alpha=0.3) for u in batch]
            assert [r.users for r in got] == [r.users for r in want]
        info = pool.info()
        assert info["forks"] == forks_after_warmup
        assert info["reforks"] == 0
        assert info["cold_refork_rounds"] == 0
        assert info["deltas_shipped"] > 0
    single.close()
    sharded.close()


def test_delta_budget_exceeded_triggers_refork():
    _, sharded = build_engines()
    users = list(sharded.located_users())[:4]
    with ProcessScatterPool(sharded, processes=2, delta_budget=2) as pool:
        pool.warm_up()
        for i in range(5):  # 5 deltas > budget of 2
            sharded.move_user(users[0], 0.1 + 0.1 * i, 0.4)
        assert_matches_inline(pool, sharded, users)
        info = pool.info()
        assert info["reforks"] == info["groups"] * info["replicas"]
        assert info["cold_refork_rounds"] == 1
    sharded.close()


def test_journal_truncation_triggers_refork():
    _, sharded = build_engines(journal_capacity=2)
    users = list(sharded.located_users())[:4]
    with ProcessScatterPool(sharded, processes=2) as pool:
        pool.warm_up()
        for i in range(4):  # 4 deltas overflow the 2-slot ring
            sharded.move_user(users[0], 0.1 + 0.1 * i, 0.4)
        assert_matches_inline(pool, sharded, users)
        assert pool.info()["reforks"] > 0
    sharded.close()


def test_replay_delta_mirrors_coordinator_transitions():
    """Worker-side replay (location set/clear, ownership, pinned index
    maintenance) reproduces move_user/forget_location transitions."""
    _, sharded = build_engines()
    twin = ShardedGeoSocialEngine(
        sharded.graph,
        sharded.locations.copy(),
        partitioner=sharded.partitioner,
        num_landmarks=2,
        s=3,
        seed=1,
        max_workers=1,
        scatter_backend="inline",
    )
    users = list(sharded.located_users())[:3]
    epoch_before = sharded.update_epoch
    sharded.move_user(users[0], 0.95, 0.95)   # likely boundary crossing
    sharded.move_user(users[1], *sharded.locations.get(users[1]))  # same spot
    sharded.forget_location(users[2])
    records = sharded._journal.since(epoch_before)
    for delta in records:
        twin._replay_delta(delta, pinned=None)
    assert twin.update_epoch == sharded.update_epoch
    assert twin._owner == sharded._owner
    probe = users[0]
    assert (
        twin.query(probe, k=5, alpha=0.3).users
        == sharded.query(probe, k=5, alpha=0.3).users
    )
    twin.close()
    sharded.close()


# -- crash resilience --------------------------------------------------


def kill_one_worker(pool):
    with pool._state_lock:
        worker = next(iter(pool._workers.values()))
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join(timeout=5)
    return worker


def test_killed_worker_respawns_with_post_delta_state():
    """The respawned replacement re-runs the initializer over the
    *current* engine — updates applied after the original fork are
    visible without any extra delta shipping."""
    single, sharded = build_engines()
    users = list(sharded.located_users())[:6]
    with ProcessScatterPool(sharded, processes=2) as pool:
        pool.warm_up()
        # update AFTER the fork, THEN kill: the replacement must see it
        sharded.move_user(users[0], 0.88, 0.12)
        single.move_user(users[0], 0.88, 0.12)
        kill_one_worker(pool)
        got = pool.query_many(requests(users, k=5, alpha=0.3, method="tsa"))
        want = [single.query(u, k=5, alpha=0.3) for u in users]
        assert [r.users for r in got] == [r.users for r in want]
        assert pool.info()["respawns"] >= 1
    single.close()
    sharded.close()


def test_kill_mid_batch_keeps_results_bit_identical():
    """A worker SIGKILLed while it holds in-flight tasks is detected by
    its sentinel, drained, respawned, and its lost tasks re-dispatched
    — the batch completes bit-identical to the inline scatter."""
    single, sharded = build_engines(n=120, seed=5)
    users = list(sharded.located_users())[:20]
    with ProcessScatterPool(sharded, processes=2) as pool:
        pool.warm_up()
        with pool._state_lock:
            victim = next(iter(pool._workers.values()))

        def assassin():
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if victim.inflight:
                    os.kill(victim.process.pid, signal.SIGKILL)
                    return
                time.sleep(0.0005)

        killer = threading.Thread(target=assassin)
        killer.start()
        try:
            got = pool.query_many(requests(users, k=5, alpha=0.3, method="tsa"))
        finally:
            killer.join()
        want = [single.query(u, k=5, alpha=0.3) for u in users]
        assert [r.users for r in got] == [r.users for r in want]
        assert [r.scores for r in got] == [r.scores for r in want]
    single.close()
    sharded.close()


def test_worker_task_error_propagates():
    _, sharded = build_engines()
    unlocated = [
        u for u in range(sharded.graph.n) if not sharded.locations.has_location(u)
    ]
    assert unlocated
    with ProcessScatterPool(sharded, processes=2) as pool:
        # An unlocated query user never reaches the workers: the
        # coordinator mirrors the single engine's inline error exactly.
        with pytest.raises(ValueError):
            pool.query_many(requests([unlocated[0]], k=5, alpha=0.3, method="spa"))


# -- lifecycle ---------------------------------------------------------


def test_spawn_only_platform_raises_before_building_context(monkeypatch):
    """The documented failure mode on spawn-only platforms must fire
    before any multiprocessing context exists."""
    _, sharded = build_engines(n=40)
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )

    def forbidden(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("get_context must not be called on spawn-only platforms")

    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    with pytest.raises(RuntimeError, match="fork"):
        ProcessScatterPool(sharded)
    sharded.close()


def test_close_is_idempotent_and_final():
    _, sharded = build_engines(n=40)
    users = list(sharded.located_users())[:2]
    pool = ProcessScatterPool(sharded, processes=2)
    pool.query_many(requests(users, k=3, alpha=0.3, method="tsa"))
    pool.close()
    pool.close()  # second close: no-op, no error
    assert pool.closed
    assert pool.info()["workers_alive"] == 0
    with pytest.raises(PoolClosedError):
        pool.query_many(requests(users, k=3, alpha=0.3, method="tsa"))
    pool.close()  # closing after the failed batch is still a no-op
    sharded.close()


def test_close_mid_batch_never_respawns():
    """Concurrent close during a batch must not race the crash-respawn
    path into forking fresh workers past the teardown."""
    _, sharded = build_engines(n=120, seed=9)
    users = list(sharded.located_users())[:20]
    pool = ProcessScatterPool(sharded, processes=2)
    pool.warm_up()
    closer = threading.Thread(target=pool.close)
    try:
        closer.start()
        pool.query_many(requests(users, k=5, alpha=0.3, method="tsa"))
    except (PoolClosedError, BrokenPipeError, OSError, EOFError):
        pass  # the batch may observe the teardown at any pipe operation
    finally:
        closer.join()
    assert pool.closed
    assert pool.info()["workers_alive"] == 0
    sharded.close()


# -- read replicas -----------------------------------------------------


def test_replicas_answer_identically_and_stay_coherent():
    single, sharded = build_engines()
    users = list(sharded.located_users())[:8]
    with ProcessScatterPool(sharded, processes=2, replicas=2) as pool:
        pool.warm_up()
        info = pool.info()
        assert info["replicas"] == 2
        assert info["workers_alive"] == info["groups"] * 2
        # several passes so round-robin cycles every replica
        for _ in range(3):
            got = pool.query_many(requests(users, k=5, alpha=0.3, method="tsa"))
            want = [single.query(u, k=5, alpha=0.3) for u in users]
            assert [r.users for r in got] == [r.users for r in want]
        # every replica of every group receives the delta stream
        sharded.move_user(users[0], 0.77, 0.23)
        single.move_user(users[0], 0.77, 0.23)
        for _ in range(3):
            got = pool.query_many(requests(users, k=5, alpha=0.3, method="tsa"))
            want = [single.query(u, k=5, alpha=0.3) for u in users]
            assert [r.users for r in got] == [r.users for r in want]
        assert pool.info()["reforks"] == 0
    single.close()
    sharded.close()


# -- planner integration ----------------------------------------------


def test_auto_method_feeds_planner_from_process_scatter():
    """``auto`` requests sent through the process pool feed the
    coordinator's planner: each distinct one is resolved once, there
    (to the delegated ``bounded``: nothing scatters)."""
    _, sharded = build_engines()
    users = list(sharded.located_users())[:6]
    before = sharded.planner.stats.auto_resolutions
    with ProcessScatterPool(sharded, processes=2) as pool:
        results = pool.query_many(requests(users, k=5, alpha=0.5, method="auto") * 2)
    assert sharded.planner.stats.auto_resolutions == before + len(users)
    assert {result.method for result in results} == {"bounded"}
    # auto resolves once at the coordinator: the answer matches the
    # engine's own auto resolution for the same request
    for user, result in zip(users, results):
        assert result.users == sharded.query(user, k=5, alpha=0.5, method="auto").users
    sharded.close()


def test_per_shard_worker_latencies_surface_in_stats():
    _, sharded = build_engines()
    users = list(sharded.located_users())[:4]
    with ProcessScatterPool(sharded, processes=2) as pool:
        result = pool.query_many(requests(users, k=5, alpha=0.3, method="tsa"))[0]
    assert result.stats.extra["worker_time"] > 0.0
    assert result.stats.extra["shards_searched"] >= 1
    assert result.stats.elapsed > 0.0
    sharded.close()


# -- engine-level backend routing --------------------------------------


def test_engine_process_backend_routes_queries_through_warm_pool():
    single, sharded = build_engines()
    graph, locations = sharded.graph, sharded.locations
    process_engine = ShardedGeoSocialEngine(
        graph,
        locations.copy(),
        partitioner=sharded.partitioner,
        num_landmarks=2,
        s=3,
        seed=1,
        max_workers=1,
        scatter_backend="process",
    )
    try:
        assert process_engine.scatter_backend_info()["resolved"] == "process"
        users = list(process_engine.located_users())[:5]
        # a named scattered method: every ``auto`` arm is delegated
        for u in users:
            assert (
                process_engine.query(u, k=5, alpha=0.3, method="tsa").users
                == single.query(u, k=5, alpha=0.3).users
            )
        info = process_engine.scatter_backend_info()
        assert info["pool"]["forks"] > 0
        # updates keep the engine-owned pool warm too
        process_engine.move_user(users[0], 0.66, 0.33)
        single.move_user(users[0], 0.66, 0.33)
        assert (
            process_engine.query(users[1], k=5, alpha=0.3, method="tsa").users
            == single.query(users[1], k=5, alpha=0.3).users
        )
        assert process_engine.scatter_backend_info()["pool"]["reforks"] == 0
    finally:
        process_engine.close()
        single.close()
    # closed engine still answers (documented rebuild-swap contract)
    assert process_engine.query(users[1], k=5, alpha=0.3).users


def test_resolve_scatter_backend_rules(monkeypatch):
    monkeypatch.delenv("REPRO_SCATTER_BACKEND", raising=False)
    assert resolve_scatter_backend("inline", n_shards=8, located=10**6) == "inline"
    assert resolve_scatter_backend("process", n_shards=1, located=0) == "process"
    # auto: small data stays inline regardless of shards/cores
    assert resolve_scatter_backend("auto", n_shards=8, located=100) == "inline"
    # auto: single shard stays inline regardless of size
    assert resolve_scatter_backend("auto", n_shards=1, located=10**6) == "inline"
    monkeypatch.setenv("REPRO_SCATTER_BACKEND", "process")
    assert resolve_scatter_backend("inline", n_shards=1, located=0) == "process"
    monkeypatch.setenv("REPRO_SCATTER_BACKEND", "nope")
    with pytest.raises(ValueError, match="scatter backend"):
        resolve_scatter_backend("auto", n_shards=4, located=10**6)


# -- journal units -----------------------------------------------------


def test_journal_suffix_and_truncation():
    journal = DeltaJournal(capacity=3)
    assert journal.since(0) == []
    for epoch in range(1, 6):
        journal.append(LocationDelta(epoch, epoch, 0.1, 0.2, None, 0))
    assert journal.latest_epoch == 5
    assert len(journal) == 3
    assert [d.epoch for d in journal.since(3)] == [4, 5]
    assert [d.epoch for d in journal.since(2)] == [3, 4, 5]
    assert journal.since(1) is None  # epoch-2 record fell off the ring
    assert journal.since(5) == []
    assert journal.since(9) == []
    assert journal.appended == 5
    with pytest.raises(ValueError):
        DeltaJournal(capacity=0)


def test_journal_wrap_boundary_is_truncation_not_empty_suffix():
    """The capacity-boundary pins: with the ring wrapped to [4, 5, 6],
    a worker synced at 3 gets a full replay (oldest retained record is
    exactly the next epoch), a worker synced at 4 (the wrap landed
    exactly on its synced epoch) gets the strict suffix, and a worker
    synced at 2 — whose next record fell off — gets ``None``
    (truncation ⇒ re-fork), never a silently empty suffix."""
    journal = DeltaJournal(capacity=3)
    for epoch in range(1, 7):
        journal.append(LocationDelta(epoch, epoch, 0.1, 0.2, None, 0))
    assert [d.epoch for d in journal.since(3)] == [4, 5, 6]
    assert [d.epoch for d in journal.since(4)] == [5, 6]
    assert journal.since(2) is None


def test_suffix_of_exactly_delta_budget_ships_without_refork():
    """A replay of exactly ``delta_budget`` records is within budget:
    the cutoff is strictly *over* budget, so the boundary case must
    ship as deltas, not spuriously re-fork."""
    _, sharded = build_engines()
    users = list(sharded.located_users())[:4]
    with ProcessScatterPool(sharded, processes=2, delta_budget=2) as pool:
        pool.warm_up()
        for i in range(2):  # exactly the budget
            sharded.move_user(users[0], 0.15 + 0.1 * i, 0.4)
        assert_matches_inline(pool, sharded, users)
        info = pool.info()
        assert info["reforks"] == 0
        assert info["cold_refork_rounds"] == 0
        assert info["deltas_shipped"] > 0
    sharded.close()


def test_sync_never_marks_a_worker_ahead_of_shipped_records():
    """The mark-ahead race: the update path bumps ``update_epoch`` and
    appends the journal record as two steps under the engine write
    lock, while the pool reads the epoch without it.  Catching a worker
    in that window must leave ``synced_epoch`` untouched (no record was
    shipped) — marking it up to the bumped epoch would make the
    in-flight delta permanently invisible to later syncs.  Once the
    append lands, the next sync ships it."""
    _, sharded = build_engines()
    users = list(sharded.located_users())[:4]
    mover = users[0]
    with ProcessScatterPool(sharded, processes=2) as pool:
        pool.warm_up()
        before = {key: w.synced_epoch for key, w in pool._workers.items()}
        # step 1 of the update path, caught mid-flight: epoch bumped,
        # record not yet appended
        sharded.update_epoch += 1
        pool._ensure_workers()
        mid = {key: w.synced_epoch for key, w in pool._workers.items()}
        assert mid == before, "empty suffix must not advance synced_epoch"
        assert pool.info()["reforks"] == 0
        # step 2 lands: a no-op move record for the bumped epoch
        x, y = sharded.locations.get(mover)
        sid = sharded.shard_of_user(mover)
        sharded._journal.append(
            LocationDelta(sharded.update_epoch, mover, x, y, sid, sid)
        )
        pool._ensure_workers()
        after = {key: w.synced_epoch for key, w in pool._workers.items()}
        assert all(e == sharded.update_epoch for e in after.values())
        assert pool.info()["reforks"] == 0
        assert_matches_inline(pool, sharded, users)
    sharded.close()
