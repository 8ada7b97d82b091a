"""Planner differential harness: ``method="auto"`` ≡ ``bruteforce``.

``auto``'s correctness promise is absolute: whichever path it takes per
query — ``bounded`` with its first ball, or without it (the
``bruteforce`` path, when the profile rule predicts the ball would not
pay), or a static endpoint route — the answer is **bit-identical** —
ids, scores, *and* tie-breaks — to the brute-force reference, because
every one of them is a forward-deterministic family
(schedule-independent social distances, shared Euclidean primitive,
shared smaller-id tie-break).

Pinned here across the whole stack:

- against two references — the engine's own ``bruteforce``, and the
  scalar Definition 1 model of ``tests/model.py`` kept in step with
  every update — and both paths of the rule,
- interleaved location updates (moves and forgets),
- the cached service path (question-keyed cache lines), and
- ``rebuild_engine`` (the planner instance survives the swap; results
  stay exact against the new engine).

Runs under the same fixed, derandomized Hypothesis profile as the
other equivalence suites, applied per test.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import AUTO, GeoSocialEngine
from repro.service import QueryRequest, QueryService
from tests.conftest import random_instance
from tests.model import Model

settings.register_profile(
    "plan-ci",
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PLAN_CI = settings.get_profile("plan-ci")

#: the reference ``auto`` must equal: the scalar Definition 1 model
#: ("python") or the engine's ``bruteforce`` ("numpy")
REFERENCES = ("python", "numpy")
ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
STEPS = 8


def build_engine(graph, locations):
    return GeoSocialEngine(graph, locations, num_landmarks=3, s=4, seed=3)


def rows(result):
    return [(nb.user, nb.score, nb.social, nb.spatial) for nb in result]


def assert_bit_identical(auto, brute, context):
    got = rows(auto)
    assert [r[0] for r in got] == [r[0] for r in brute], f"{context}: ranking differs"
    assert got == brute, f"{context} ({auto.method}): not bit-identical:\n{got}\n{brute}"


def verify_queries(engine, reference, users, rng, context, picked):
    """``reference(user, k, alpha)``: the rows every answer must equal."""
    for user in users:
        k = rng.choice((1, 3, 8))
        alpha = rng.choice(ALPHAS)
        try:
            brute = reference(user, k, alpha)
        except ValueError as err:
            # Unlocated query user: one rule for every method, auto too
            assert "no known location" in str(err)
            with pytest.raises(ValueError, match="no known location"):
                engine.query(user, k, alpha, AUTO)
            continue
        if engine.social_cache is not None and rng.random() < 0.5:
            engine.social_cache.invalidate_all()  # so the rule decides
        auto = engine.query(user, k, alpha, AUTO)
        assert_bit_identical(auto, brute, f"{context} u={user} k={k} a={alpha}")
        if 0.0 < alpha < 1.0:
            assert auto.method == "bounded"
            extra = auto.stats.extra
            # a cached column answers before the rule is consulted
            if "bounded_passes" in extra:
                ball = extra["bounded_passes"] == 2 or extra["bounded_radius"] < float("inf")
                picked.add("ball" if ball else "full column")
        # ... and ``bounded`` by name
        bounded = engine.query(user, k, alpha, "bounded")
        assert_bit_identical(bounded, brute, f"{context} bounded u={user} k={k} a={alpha}")


@pytest.mark.parametrize("leg", REFERENCES)
def test_auto_equals_bruteforce_under_interleaved_updates(leg):
    picked = set()  # the paths interior-alpha ``auto`` took, over all examples

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
        engine = build_engine(graph, locations)
        model = Model.of_engine(engine)
        if leg == "python":
            reference = model.rows
        else:
            def reference(user, k, alpha):
                return rows(engine.query(user, k, alpha, "bruteforce"))
        rng = random.Random(seed + n)
        users = [u for u in locations.located_users()][:3] or [0]
        verify_queries(engine, reference, users, rng, f"initial {leg}", picked)
        for step in range(STEPS):
            mover = rng.randrange(graph.n)
            if rng.random() < 0.2 and engine.locations.has_location(mover):
                engine.forget_location(mover)
                del model.locations[mover]
            else:
                x, y = rng.random(), rng.random()
                engine.move_user(mover, x, y)
                model.locations[mover] = (x, y)
            verify_queries(engine, reference, users, rng, f"step={step} {leg}", picked)

    property_case()
    # both paths of the rule really ran
    assert picked == {"ball", "full column"}


def test_auto_equals_bruteforce_through_cached_service_and_rebuild():
    """The service path: resolved-method cache keys, update-aware
    invalidation, then an edge update + ``rebuild_engine`` swap — auto
    responses stay bit-identical to fresh bruteforce at every point."""
    graph, locations = random_instance(90, seed=21, coverage=0.85)
    engine = build_engine(graph, locations)
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
                brute = rows(service.engine.query(user, 5, alpha, "bruteforce"))
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
        assert new_engine.planner is planner  # its counters survive the swap
        for user in users:
            response = service.query(QueryRequest(user=user, k=5, alpha=0.5, method=AUTO))
            brute = rows(new_engine.query(user, 5, 0.5, "bruteforce"))
            assert_bit_identical(response.result, brute, f"post-rebuild u={user}")
    finally:
        service.close()
