"""Stream-maintenance differential harness: maintained ≡ fresh.

The continuous-subscription subsystem's core promise: after *every*
update, every maintained :class:`~repro.core.result.SSRQResult` equals
what a fresh ``engine.query`` would return at that instant — ids,
scores, and tie-breaks.  For the repairable (forward-Dijkstra) methods
the scores must match *bit for bit*: repairs reuse stored social
distances and re-derive spatial ones with the engine's own primitives.
The AIS family recomputes rather than repairs, and its fresh scores
are legitimately schedule-dependent up to float association (1 ulp),
so AIS legs assert identical rankings with the repo's 1e-9 score
tolerance.

Runs under a fixed, derandomized Hypothesis profile like the backend
equivalence suite, applied per test.  The registry's single-case pins
(``auto`` following the planner, pure-social churn, the pending limit,
validation before registering) live in ``tests/test_service_model.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import GeoSocialEngine
from repro.service import QueryRequest, QueryService
from repro.stream import REPAIRABLE_METHODS, SubscriptionRegistry
from tests.conftest import random_instance

settings.register_profile(
    "stream-ci",
    max_examples=16,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STREAM_CI = settings.get_profile("stream-ci")

#: repairable forward methods (bitwise maintained scores), one AIS leg,
#: and ``auto`` — re-resolved by the planner on every recompute, so its
#: subscriptions change method mid-stream
METHODS = ("spa", "tsa", "sfa", "bounded", "bruteforce", "ais", "auto")
#: update/verify interleaving steps per example; with 16 derandomized
#: examples per property (x2 properties) the suite verifies
#: maintained == fresh at well over 200 randomized interleaving points
STEPS = 10


def build_engine(graph, locations):
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)


def assert_maintained_equals_fresh(sub, maintained, fresh, context):
    ids_m = [nb.user for nb in maintained]
    ids_f = [nb.user for nb in fresh]
    assert ids_m == ids_f, f"{context}: ranking differs: {ids_m} vs {ids_f}"
    if sub.method in REPAIRABLE_METHODS:
        scores_m = [nb.score for nb in maintained]
        scores_f = [nb.score for nb in fresh]
        assert scores_m == scores_f, (
            f"{context}: maintained scores not bit-identical:\n{scores_m}\n{scores_f}"
        )
        assert [nb.social for nb in maintained] == [nb.social for nb in fresh], context
        assert [nb.spatial for nb in maintained] == [nb.spatial for nb in fresh], context
    else:
        for nb_m, nb_f in zip(maintained, fresh):
            assert abs(nb_m.score - nb_f.score) <= 1e-9, (
                f"{context}: score for {nb_m.user}: {nb_m.score!r} vs {nb_f.score!r}"
            )


def check_all(registry, engine, subs, context):
    for sub in subs:
        try:
            maintained = registry.result(sub)
        except ValueError:
            # Suspended: the fresh query must fail identically (the
            # query user has no known location at this alpha).
            with pytest.raises(ValueError, match="no known location"):
                engine.query(sub.user, sub.k, sub.alpha, sub.method)
            continue
        fresh = engine.query(sub.user, sub.k, sub.alpha, sub.method)
        assert_maintained_equals_fresh(sub, maintained, fresh, context)


def apply_random_update(rng, service, engine, subs, hot_users, registry=None):
    """One randomized update: a move (often near a subscribed query,
    sometimes far away, sometimes of a member/query user), a forget,
    an edge update, or a mid-stream subscription registration."""
    roll = rng.random()
    if registry is not None and roll < 0.06:
        u = rng.choice(hot_users) if rng.random() < 0.5 else rng.randrange(engine.graph.n)
        sub = registry.subscribe(u, k=3, alpha=0.5, method=rng.choice(METHODS))
        subs.append(sub)
        hot_users.append(u)
        return ("subscribe", u)
    if registry is not None and roll < 0.12:
        u, v = rng.randrange(engine.graph.n), rng.randrange(engine.graph.n)
        if u != v:
            # The service only records it: served topology unchanged,
            # so no subscription may be touched.
            service.update_edge(u, v, rng.uniform(0.05, 1.0))
            return ("edge", (u, v))
        roll = 0.5  # fall through to a move
    if roll < 0.2 and engine.locations.n_located > 1:
        candidates = [u for u in hot_users if engine.locations.has_location(u)]
        victim = rng.choice(candidates) if candidates and rng.random() < 0.5 else None
        if victim is None:
            located = list(engine.locations.located_users())
            victim = rng.choice(located)
        service.forget_location(victim)
        return ("forget", victim)
    if roll < 0.35:
        mover = rng.choice(hot_users)  # query users / members: repairs + recomputes
    else:
        mover = rng.randrange(engine.graph.n)
    if rng.random() < 0.6:
        x, y = rng.random(), rng.random()
    else:
        x, y = rng.uniform(-0.4, 1.4), rng.uniform(-0.4, 1.4)  # out-of-box
    service.move_user(mover, x, y)
    return ("move", mover)


@STREAM_CI
@given(
    n=st.integers(min_value=30, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
    alpha=st.sampled_from((0.0, 0.3, 0.5, 1.0)),
    k=st.sampled_from((1, 4, 8)),
)
def test_maintained_results_equal_fresh_after_every_step(n, seed, alpha, k):
    """Read-after-every-update: the maintained result must equal a
    fresh query at every instant, across methods, α (endpoints
    included) and k."""
    graph, locations = random_instance(n, seed=seed, coverage=0.8)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    engine = build_engine(graph, locations)
    service = QueryService(engine, cache_size=64)
    registry = SubscriptionRegistry(service)
    rng = random.Random(seed * 31 + n)
    located = list(engine.locations.located_users())
    query_users = [rng.choice(located) for _ in range(4)]
    subs = [
        registry.subscribe(u, k=k, alpha=alpha, method=m)
        for u, m in zip(query_users, rng.sample(METHODS, 4))
    ]
    hot = list(dict.fromkeys(query_users))
    for sub in subs:
        if sub.result is not None:
            hot.extend(sub.result.users[:2])
    check_all(registry, engine, subs, "initial")
    for step in range(STEPS):
        op = apply_random_update(rng, service, engine, subs, hot, registry=registry)
        check_all(registry, engine, subs, f"step {step} after {op}")
    registry.close()
    service.close()


@STREAM_CI
@given(
    n=st.integers(min_value=30, max_value=70),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batched_bursts_then_read(n, seed):
    """Bursts of updates accumulate as pending deltas and are applied
    in one pass per subscription at read time — the batched path must
    land on exactly the fresh answer too."""
    graph, locations = random_instance(n, seed=seed, coverage=0.85)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    engine = build_engine(graph, locations)
    service = QueryService(engine, cache_size=0)
    registry = SubscriptionRegistry(service)
    rng = random.Random(seed + 7)
    located = list(engine.locations.located_users())
    subs = [
        registry.subscribe(rng.choice(located), k=5, alpha=a, method=m)
        for a, m in ((0.3, "spa"), (0.5, "tsa"), (0.7, "sfa"), (0.3, "bruteforce"))
    ]
    hot = [s.user for s in subs]
    for s in subs:
        if s.result is not None:
            hot.extend(s.result.users[:2])
    for burst in range(4):
        for _ in range(5):  # five updates, zero reads: deltas accumulate
            apply_random_update(rng, service, engine, subs, hot)
        registry.flush()
        check_all(registry, engine, subs, f"burst {burst}")
    # The registry actually maintained (not recomputed-on-every-read):
    stats = registry.stats
    assert stats.location_updates >= 15
    assert stats.noops + stats.repair_marks > 0
    registry.close()
    service.close()


def test_edge_updates_and_rebuild_keep_subscriptions_current():
    """update_edge leaves served results untouched (it only records)
    and rebuild_engine swaps the engine — the registry must
    detect the swap and recompute against the new topology."""
    graph, locations = random_instance(60, seed=41, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    service = QueryService(engine, cache_size=32)
    registry = SubscriptionRegistry(service)
    located = list(engine.locations.located_users())
    subs = [
        registry.subscribe(located[0], k=5, alpha=0.5, method="tsa"),
        registry.subscribe(located[1], k=5, alpha=0.3, method="spa"),
    ]
    before = {s: registry.result(s).users for s in subs}
    # Edge updates accumulate in the service's log: the served graph
    # is unchanged, so maintained == fresh == the previous answer.
    service.update_edge(located[0], located[2], 0.01)
    service.update_edge(located[1], located[3], 0.02)
    assert service.pending_edge_updates == 2
    for s in subs:
        assert registry.result(s).users == before[s]
        assert registry.result(s).users == engine.query(s.user, 5, s.alpha, s.method).users
    # Folding them in swaps the engine: results now reflect the new
    # topology, computed against the new engine.
    new_engine = service.rebuild_engine()
    for s in subs:
        maintained = registry.result(s)
        fresh = new_engine.query(s.user, 5, s.alpha, s.method)
        assert [(nb.user, nb.score) for nb in maintained] == [
            (nb.user, nb.score) for nb in fresh
        ]
    assert registry.stats.engine_swaps == 1
    registry.close()
    service.close()
    new_engine.close()


def test_suspension_mirrors_fresh_query_errors():
    """Forgetting the query user's location suspends the subscription
    (reads raise like a fresh query); a later move resumes it."""
    graph, locations = random_instance(50, seed=13, coverage=1.0)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    service = QueryService(engine, cache_size=0)
    registry = SubscriptionRegistry(service)
    q = next(iter(engine.locations.located_users()))
    sub = registry.subscribe(q, k=5, alpha=0.4, method="spa")
    assert sub.active
    service.forget_location(q)
    with pytest.raises(ValueError, match="no known location"):
        registry.result(sub)
    assert not sub.active and registry.stats.suspended == 1
    with pytest.raises(ValueError, match="no known location"):
        engine.query(q, 5, 0.4, "spa")
    # Unrelated churn while suspended stays a no-op ...
    other = [u for u in engine.locations.located_users() if u != q][0]
    service.move_user(other, 0.9, 0.9)
    with pytest.raises(ValueError):
        registry.result(sub)
    # ... and the query user re-appearing resumes maintenance.
    service.move_user(q, 0.4, 0.6)
    result = registry.result(sub)
    assert sub.active and registry.stats.suspended == 0
    fresh = engine.query(q, 5, 0.4, "spa")
    assert [(nb.user, nb.score) for nb in result] == [(nb.user, nb.score) for nb in fresh]
    registry.close()
    service.close()
