"""Cross-shard equivalence harness: the sharded engine must reproduce
the single engine's rankings exactly.

The core promise of :mod:`repro.shard` is that partitioning is purely a
performance/layout decision — never a semantics one.  This suite pins
it property-based: Hypothesis generates datasets (size, coverage,
degree, seeds), shard counts {1, 2, 4, 7}, both partitioner kinds, and
query parameters, and asserts that
:class:`~repro.shard.ShardedGeoSocialEngine` ranks exactly like
:class:`~repro.core.engine.GeoSocialEngine` for every paper method the
issue pins ({spa, tsa, ais}) and beyond — including tie-break order.

Exactness tiers (see ``repro/shard/engine.py`` for the why):

- *forward-Dijkstra methods* (spa, tsa and variants, sfa, bruteforce):
  bit-identical results, raw distances included;
- *ais family*: identical rankings; scores may differ by float
  associativity (≤ 1 ulp) because the bidirectional evaluation sums
  forward+backward parts at a schedule-dependent meeting vertex — the
  same noise the single engine shows between its own methods, which is
  why the repo-wide ``assert_same_scores`` uses a tolerance at all.

The property tests run under a fixed, derandomized Hypothesis profile
(registered as ``shard-ci`` and applied *per test*, so the global
profile other suites run under is untouched), making local and CI runs
byte-for-byte deterministic; pass ``--hypothesis-profile=<name>`` to
override via the plugin.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import GeoSocialEngine
from repro.graph.socialgraph import SocialGraph
from repro.shard import (
    GridPartitioner,
    KDTreePartitioner,
    ShardedGeoSocialEngine,
    make_partitioner,
)
from repro.spatial.point import LocationTable
from tests.conftest import random_instance, requests

settings.register_profile(
    "shard-ci",
    max_examples=20,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: applied per test (decorator) — never via load_profile, which would
#: silently swap the global profile under every later-collected suite
SHARD_CI = settings.get_profile("shard-ci")

SHARD_COUNTS = (1, 2, 4, 7)
PINNED_METHODS = ("spa", "tsa", "ais")
#: methods whose per-user distances are schedule-independent (forward
#: Dijkstra / exhaustive): the sharded engine must match them bit-wise
EXACT_METHODS = ("spa", "tsa", "tsa-qc", "sfa", "bruteforce")


def build_pair(n, seed, coverage, n_shards, kind, avg_degree=6.0):
    """A (single, sharded) engine pair over one shared dataset."""
    graph, locations = random_instance(n, seed=seed, coverage=coverage, avg_degree=avg_degree)
    if locations.n_located == 0:
        locations.set(0, 0.5, 0.5)
    single = GeoSocialEngine(graph, locations.copy(), num_landmarks=3, s=3, seed=3)
    sharded = ShardedGeoSocialEngine(
        graph,
        locations.copy(),
        n_shards=n_shards,
        partitioner_kind=kind,
        num_landmarks=3,
        s=3,
        seed=3,
        max_workers=1,
    )
    return single, sharded


def assert_rankings_equal(a, b, method):
    """Rankings must match exactly (order included); raw fields must be
    bit-equal for schedule-independent methods and within float
    associativity for the ais family."""
    assert a.users == b.users, f"{method}: ranking differs: {a.users} vs {b.users}"
    if method in EXACT_METHODS:
        assert [(nb.user, nb.score, nb.social, nb.spatial) for nb in a] == [
            (nb.user, nb.score, nb.social, nb.spatial) for nb in b
        ], f"{method}: raw neighbor fields differ"
    else:
        for na, nb in zip(a, b):
            assert na.score == pytest.approx(nb.score, rel=1e-12, abs=1e-15), (
                f"{method}: score beyond float-associativity noise: "
                f"{na.score} vs {nb.score}"
            )


@SHARD_CI
@given(
    n=st.integers(min_value=10, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
    coverage=st.sampled_from([1.0, 0.85, 0.6, 0.35]),
    n_shards=st.sampled_from(SHARD_COUNTS),
    kind=st.sampled_from(["grid", "kd"]),
    k=st.integers(min_value=1, max_value=8),
    alpha=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]),
)
def test_property_rankings_equal_for_pinned_methods(
    n, seed, coverage, n_shards, kind, k, alpha
):
    single, sharded = build_pair(n, seed, coverage, n_shards, kind)
    located = list(single.locations.located_users())
    queries = located[:: max(1, len(located) // 4)][:4]
    for q in queries:
        for method in PINNED_METHODS:
            assert_rankings_equal(
                single.query(q, k=k, alpha=alpha, method=method),
                sharded.query(q, k=k, alpha=alpha, method=method),
                method,
            )


@SHARD_CI
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_shards=st.sampled_from(SHARD_COUNTS),
    kind=st.sampled_from(["grid", "kd"]),
)
def test_property_every_method_agrees(seed, n_shards, kind):
    """Beyond the pinned trio: every served exact method (spatial-index,
    social-stream, delegated) stays equivalent."""
    single, sharded = build_pair(36, seed, 0.8, n_shards, kind)
    located = list(single.locations.located_users())
    q = located[len(located) // 2]
    for method in ("spa", "tsa", "tsa-qc", "sfa", "bruteforce", "ais"):
        for alpha in (0.0, 0.4, 1.0):
            assert_rankings_equal(
                single.query(q, k=5, alpha=alpha, method=method),
                sharded.query(q, k=5, alpha=alpha, method=method),
                method,
            )


def test_tie_break_order_is_preserved():
    """Exact score ties must break identically (toward smaller ids):
    co-located users with no social edges are all tied at alpha=0."""
    n = 12
    graph = SocialGraph.from_edges(n, [])
    locations = LocationTable.empty(n)
    for u in range(n):
        # three co-located groups of four exactly tied users
        locations.set(u, float(u % 3), 0.0)
    single = GeoSocialEngine(graph, locations.copy(), num_landmarks=1, s=2, seed=0)
    for n_shards in SHARD_COUNTS:
        sharded = ShardedGeoSocialEngine(
            graph, locations.copy(), n_shards=n_shards,
            num_landmarks=1, s=2, seed=0, max_workers=1,
        )
        for q in range(n):
            a = single.query(q, k=6, alpha=0.0, method="spa")
            b = sharded.query(q, k=6, alpha=0.0, method="spa")
            assert [(nb.user, nb.score) for nb in a] == [
                (nb.user, nb.score) for nb in b
            ]
            # ties really exist and break toward smaller ids
            scores = [nb.score for nb in a]
            assert len(set(scores)) < len(scores)
            for s1, s2 in zip(a.neighbors, a.neighbors[1:]):
                assert (s1.score, s1.user) < (s2.score, s2.user)


def test_unlocated_query_user_raises_identically():
    graph, locations = random_instance(30, seed=9, coverage=0.5)
    unlocated = next(
        u for u in range(graph.n) if not locations.has_location(u)
    )
    single = GeoSocialEngine(graph, locations.copy(), num_landmarks=2, s=2, seed=1)
    sharded = ShardedGeoSocialEngine(
        graph, locations.copy(), n_shards=4, num_landmarks=2, s=2, seed=1
    )
    for method in ("spa", "tsa", "ais"):
        with pytest.raises(ValueError, match="no known location"):
            single.query(unlocated, k=3, alpha=0.4, method=method)
        with pytest.raises(ValueError, match="no known location"):
            sharded.query(unlocated, k=3, alpha=0.4, method=method)
    # pure social queries from unlocated users work on both
    a = single.query(unlocated, k=3, alpha=1.0, method="ais")
    b = sharded.query(unlocated, k=3, alpha=1.0, method="ais")
    assert a.users == b.users


def test_more_shards_than_occupied_regions():
    """7 shards over 2 tight clusters: most regions stay empty and are
    skipped, results still exact."""
    n = 16
    graph, _ = random_instance(n, seed=4, coverage=1.0)
    locations = LocationTable.empty(n)
    for u in range(n):
        base = (0.05, 0.05) if u % 2 else (0.95, 0.95)
        locations.set(u, base[0] + 0.001 * u, base[1])
    single = GeoSocialEngine(graph, locations.copy(), num_landmarks=2, s=2, seed=1)
    sharded = ShardedGeoSocialEngine(
        graph, locations.copy(), n_shards=7, num_landmarks=2, s=2, seed=1
    )
    assert len(sharded.shard_sizes()) < 7  # empty regions never materialise
    for q in (0, 1, n - 1):
        for method in PINNED_METHODS:
            assert_rankings_equal(
                single.query(q, k=5, alpha=0.3, method=method),
                sharded.query(q, k=5, alpha=0.3, method=method),
                method,
            )


def test_parallel_scatter_matches_sequential_scatter():
    graph, locations = random_instance(60, seed=13, coverage=0.9)
    sequential = ShardedGeoSocialEngine(
        graph, locations.copy(), n_shards=4, num_landmarks=3, s=3, seed=2, max_workers=1
    )
    parallel = ShardedGeoSocialEngine(
        graph, locations.copy(), n_shards=4, num_landmarks=3, s=3, seed=2, max_workers=4
    )
    located = list(sequential.locations.located_users())
    for q in located[:8]:
        for method in PINNED_METHODS:
            a = sequential.query(q, k=5, alpha=0.3, method=method)
            b = parallel.query(q, k=5, alpha=0.3, method=method)
            assert a.users == b.users
            assert a.scores == b.scores
    parallel.close()
    sequential.close()


def test_process_scatter_pool_matches_inline():
    """The fork-based multi-core backend returns the same rankings as
    the in-process scatter, across update epochs (delta shipping keeps
    the warm workers coherent instead of re-forking them)."""
    from repro.shard import ProcessScatterPool

    graph, locations = random_instance(50, seed=17, coverage=0.9)
    sharded = ShardedGeoSocialEngine(
        graph, locations.copy(), n_shards=4, num_landmarks=2, s=2, seed=1, max_workers=1
    )
    located = list(sharded.locations.located_users())
    batch = located[:8] + located[:2]  # duplicates collapse
    with ProcessScatterPool(sharded, processes=2) as pool:
        got = pool.query_many(requests(batch, k=5, alpha=0.3, method="ais"))
        want = [sharded.query(u, k=5, alpha=0.3, method="ais") for u in batch]
        for g, w in zip(got, want):
            assert g.users == w.users
        # location update bumps the epoch; the delta ships to the live
        # workers and the pool serves the new placement without a fork
        mover = located[0]
        sharded.move_user(mover, 0.5, 0.5)
        # a scattered method by name: the default ``auto`` may resolve to
        # a delegated one (sfa, bruteforce), which never reaches the
        # workers and so ships no delta
        refreshed = pool.query_many(requests([located[1]], k=5, alpha=0.3, method="tsa"))[0]
        assert refreshed.users == sharded.query(located[1], k=5, alpha=0.3, method="tsa").users
        assert pool.info()["reforks"] == 0
        assert pool.info()["deltas_shipped"] > 0
    sharded.close()


def test_query_many_matches_query_loop():
    graph, locations = random_instance(40, seed=23, coverage=0.9)
    sharded = ShardedGeoSocialEngine(
        graph, locations.copy(), n_shards=4, num_landmarks=2, s=2, seed=1
    )
    located = list(sharded.locations.located_users())[:6]
    batch = sharded.query_many(located, k=4, alpha=0.4)
    loop = [sharded.query(u, k=4, alpha=0.4) for u in located]
    assert [r.users for r in batch] == [r.users for r in loop]
    sharded.close()


# -- partitioner / bounds units ---------------------------------------


def test_grid_partitioner_covers_the_plane():
    table = LocationTable.from_dict(4, {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (0.2, 0.9), 3: (0.9, 0.1)})
    for n_shards in (1, 2, 3, 4, 5, 7, 9):
        part = GridPartitioner.fit(table, n_shards)
        assert part.n_shards == n_shards
        for x, y in [(-5.0, -5.0), (0.5, 0.5), (9.0, 0.2), (0.3, 99.0)]:
            assert 0 <= part.shard_of(x, y) < n_shards


def test_kd_partitioner_balances_and_covers():
    import random

    rng = random.Random(3)
    table = LocationTable.empty(64)
    for u in range(64):
        table.set(u, rng.random(), rng.random())
    for n_shards in (1, 2, 3, 5, 7, 8):
        part = KDTreePartitioner.fit(table, n_shards)
        assert part.n_shards == n_shards
        counts = [0] * n_shards
        for u in range(64):
            x, y = table.get(u)
            counts[part.shard_of(x, y)] += 1
        assert sum(counts) == 64
        if n_shards > 1:
            assert max(counts) <= 64  # total function; balance is best-effort
            assert min(counts) >= 0
        for x, y in [(-3.0, 0.5), (0.5, -3.0), (4.0, 4.0)]:
            assert 0 <= part.shard_of(x, y) < n_shards


def test_make_partitioner_rejects_unknown_kind():
    table = LocationTable.from_dict(2, {0: (0.0, 0.0), 1: (1.0, 1.0)})
    with pytest.raises(ValueError, match="unknown partitioner"):
        make_partitioner(table, 2, kind="voronoi")


def test_shard_bounds_admissible_under_churn():
    """The widen-only envelope must stay a valid lower bound through
    inserts, moves, and removals."""
    import random

    from repro.core.ranking import RankingFunction
    from repro.shard.bounds import ShardBounds

    graph, locations = random_instance(40, seed=31, coverage=1.0)
    single = GeoSocialEngine(graph, locations, num_landmarks=3, s=2, seed=5)
    lm = single.landmarks
    rng = random.Random(7)
    members: dict[int, tuple[float, float]] = {}
    bounds = ShardBounds(lm.m)
    for step in range(200):
        u = rng.randrange(40)
        if u in members and rng.random() < 0.3:
            del members[u]
            bounds.remove_member()
        else:
            x, y = rng.random(), rng.random()
            if u in members:
                bounds.update_member(x, y)
            else:
                bounds.add_member(x, y, lm.vector(u))
            members[u] = (x, y)
        assert bounds.count == len(members)

    import math

    from repro.index.bounds import minf, social_lower_bound_vertex

    rank = RankingFunction(0.4, single.normalization)
    for q in range(0, 40, 3):
        qx, qy = locations.get(q)
        qvec = lm.vector(q)
        group_social = bounds.social_bound(qvec)
        group_spatial = bounds.spatial_lower_bound(qx, qy)
        score_bound = bounds.score_lower_bound(rank, qx, qy, qvec)
        for u, (x, y) in members.items():
            d = math.hypot(qx - x, qy - y)
            # spatial envelope bounds every member's true distance
            assert group_spatial <= d + 1e-12
            # Lemma 2's group bound never exceeds the per-vertex bound
            # of any member whose vector was widened in
            assert group_social <= social_lower_bound_vertex(qvec, lm.vector(u)) + 1e-12
            # ... so the combined MINF bounds every member's best score
            assert score_bound <= minf(
                rank, social_lower_bound_vertex(qvec, lm.vector(u)), d
            ) + 1e-12


def test_scatter_stats_accounting():
    graph, locations = random_instance(50, seed=41, coverage=1.0)
    sharded = ShardedGeoSocialEngine(
        graph, locations, n_shards=4, num_landmarks=2, s=2, seed=1, max_workers=1
    )
    located = list(sharded.locations.located_users())
    for q in located[:10]:
        sharded.query(q, k=3, alpha=0.2, method="ais")
    info = sharded.scatter_info()
    assert info["scatter_queries"] == 10
    assert info["shards_searched"] + info["shards_pruned"] == info["shards_considered"]
    assert info["shards_searched"] >= info["scatter_queries"]  # home always runs
    sharded.query(located[0], k=3, alpha=1.0, method="ais")  # delegated
    assert sharded.scatter_info()["delegated_queries"] == 1
    sharded.close()
