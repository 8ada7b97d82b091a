"""Planner differential harness: ``method="auto"`` ≡ ``bruteforce``.

The adaptive planner's correctness promise is absolute: whatever
concrete method it resolves per query, the answer is **bit-identical**
— ids, scores, *and* tie-breaks — to the brute-force reference,
because every default candidate is a forward-deterministic family
(schedule-independent social distances, shared Euclidean primitive,
shared smaller-id tie-break).

Pinned here across the whole stack:

- both backends (``python`` and ``numpy`` kernels), and the paper's
  incremental searchers opted back in as planner arms,
- shard counts {1, 4} (single engine and scatter-gather coordinator),
- interleaved location updates (moves, forgets, boundary crossings),
- the cached service path (resolved-method cache keys), and
- ``rebuild_engine`` (the planner instance and its learned costs
  survive the swap; results stay exact against the new engine).

Runs under the same fixed, derandomized Hypothesis profile as the
other equivalence suites, applied per test.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import AUTO, GeoSocialEngine
from repro.plan import DEFAULT_CANDIDATES, AdaptivePlanner
from repro.service import QueryRequest, QueryService
from repro.shard import ShardedGeoSocialEngine
from tests.conftest import random_instance

settings.register_profile(
    "plan-ci",
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PLAN_CI = settings.get_profile("plan-ci")

#: (backend, planner candidates): the default column arms on both
#: backends, and the pre-PR-24 default set as an opt-in (explored at
#: full rate so every arm is really played)
LEGS = (
    pytest.param("python", None, id="python"),
    pytest.param("numpy", None, id="numpy"),
    pytest.param("numpy", DEFAULT_CANDIDATES + ("spa", "tsa"), id="numpy-opt-in"),
)
SHARD_COUNTS = (1, 4)
ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
STEPS = 8


def build_engine(graph, locations, n_shards, backend, candidates=None):
    planner = None
    if candidates is not None:
        planner = AdaptivePlanner(candidates=candidates, epsilon=1.0, seed=3)
    if n_shards == 1:
        return GeoSocialEngine(
            graph, locations, num_landmarks=3, s=4, seed=3, backend=backend, planner=planner
        )
    return ShardedGeoSocialEngine(
        graph,
        locations,
        n_shards=n_shards,
        num_landmarks=3,
        s=4,
        seed=3,
        max_workers=1,
        backend=backend,
        planner=planner,
    )


def assert_bit_identical(auto, brute, context):
    ids_a = [nb.user for nb in auto]
    ids_b = [nb.user for nb in brute]
    assert ids_a == ids_b, f"{context}: ranking differs: {ids_a} vs {ids_b}"
    assert [nb.score for nb in auto] == [nb.score for nb in brute], (
        f"{context} ({auto.method}): scores not bit-identical:\n"
        f"{[nb.score for nb in auto]}\n{[nb.score for nb in brute]}"
    )
    assert [nb.social for nb in auto] == [nb.social for nb in brute], context
    assert [nb.spatial for nb in auto] == [nb.spatial for nb in brute], context


def verify_queries(engine, users, rng, context, picked):
    for user in users:
        k = rng.choice((1, 3, 8))
        alpha = rng.choice(ALPHAS)
        brute = engine.query(user, k, alpha, "bruteforce")
        try:
            auto = engine.query(user, k, alpha, AUTO)
        except ValueError as err:
            # Unlocated query user: auto mirrors the engine's default
            # spatial-method contract (bruteforce, the reference scan,
            # deliberately tolerates unlocated query users instead).
            assert "no known location" in str(err)
            with pytest.raises(ValueError, match="no known location"):
                engine.query(user, k, alpha, "ais")
            continue
        assert_bit_identical(auto, brute, f"{context} u={user} k={k} a={alpha}")
        if 0.0 < alpha < 1.0:
            picked.add(auto.method)
        # ... and the planner's social-first arm by name
        bounded = engine.query(user, k, alpha, "bounded")
        assert_bit_identical(bounded, brute, f"{context} bounded u={user} k={k} a={alpha}")


@pytest.mark.parametrize("backend, candidates", LEGS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_auto_equals_bruteforce_under_interleaved_updates(backend, candidates, n_shards):
    picked = set()  # what interior-alpha ``auto`` resolved to, over all examples

    @PLAN_CI
    @given(
        n=st.integers(min_value=24, max_value=70),
        seed=st.integers(min_value=0, max_value=2**16),
        coverage=st.sampled_from((0.6, 0.9, 1.0)),
    )
    def property_case(n, seed, coverage):
        graph, locations = random_instance(n, seed=seed, coverage=coverage)
        if locations.n_located == 0:
            locations.set(0, 0.5, 0.5)
        engine = build_engine(graph, locations, n_shards, backend, candidates)
        rng = random.Random(seed + n)
        users = [u for u in locations.located_users()][:3] or [0]
        verify_queries(engine, users, rng, f"initial b={backend} s={n_shards}", picked)
        for step in range(STEPS):
            mover = rng.randrange(graph.n)
            if rng.random() < 0.2 and engine.locations.has_location(mover):
                engine.forget_location(mover)
            else:
                engine.move_user(mover, rng.random(), rng.random())
            verify_queries(
                engine, users, rng, f"step={step} b={backend} s={n_shards}", picked
            )

    property_case()
    # auto really resolved to every arm it was given, opt-in ones too
    assert picked == set(candidates or DEFAULT_CANDIDATES)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_auto_equals_bruteforce_through_cached_service_and_rebuild(n_shards):
    """The service path: resolved-method cache keys, update-aware
    invalidation, then an edge update + ``rebuild_engine`` swap — auto
    responses stay bit-identical to fresh bruteforce at every point."""
    graph, locations = random_instance(90, seed=21, coverage=0.85)
    engine = build_engine(graph, locations, n_shards, "auto")
    service = QueryService(engine, cache_size=64)
    rng = random.Random(77)
    users = [u for u in locations.located_users()][:4]
    try:
        for round_no in range(3):
            for user in users:
                alpha = rng.choice(ALPHAS)
                response = service.query(
                    QueryRequest(user=user, k=5, alpha=alpha, method=AUTO)
                )
                brute = service.engine.query(user, 5, alpha, "bruteforce")
                assert_bit_identical(
                    response.result, brute, f"service r={round_no} u={user} a={alpha}"
                )
                # cached replays serve the same (still-exact) result
                again = service.query(
                    QueryRequest(user=user, k=5, alpha=alpha, method=AUTO)
                )
                assert_bit_identical(again.result, brute, "cached replay")
            service.move_user(users[round_no % len(users)], rng.random(), rng.random())
        planner = service.engine.planner
        service.update_edge(users[0], users[1], 0.25)
        new_engine = service.rebuild_engine()
        assert new_engine.planner is planner  # learned costs survive the swap
        for user in users:
            response = service.query(QueryRequest(user=user, k=5, alpha=0.5, method=AUTO))
            brute = new_engine.query(user, 5, 0.5, "bruteforce")
            assert_bit_identical(response.result, brute, f"post-rebuild u={user}")
    finally:
        service.close()


def test_auto_with_ais_candidates_keeps_rankings_exact():
    """Opting AIS into the candidate set trades bit-identical scores
    (1-ulp schedule noise) for speed — rankings must still be exact."""
    graph, locations = random_instance(80, seed=5, coverage=0.9)
    engine = GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)
    engine.planner = AdaptivePlanner(candidates=("ais",), seed=1)
    users = [u for u in locations.located_users()][:4]
    for user in users:
        auto = engine.query(user, 6, 0.5, AUTO)
        assert auto.method == "ais"
        brute = engine.query(user, 6, 0.5, "bruteforce")
        assert auto.users == brute.users
        for nb_a, nb_b in zip(auto, brute):
            assert abs(nb_a.score - nb_b.score) <= 1e-9
