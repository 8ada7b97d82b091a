"""Cold start pays only for what serving uses — held by counts, not
wall time.

Two structural facts behind ``setup_s``:

- every default ``auto`` arm is a column arm, so calibration is
  4 alphas x 2 arms x 2 users = 16 probes of one or two ``sssp_column``
  calls each, and neither it nor any later ``auto`` query opens a
  :class:`~repro.graph.traversal.DijkstraIterator` (outside the kernel,
  whose python leg *is* the iterator loop), builds an incremental
  searcher, or scatters;
- the aggregate index is derived state of the incremental tier: built
  by the first ``ais`` query from the maintained grid, kept in step by
  every later location update, and never built by a snapshot load.
"""

from __future__ import annotations

import random

import pytest

from repro import GeoSocialEngine, gowalla_like, load_engine, save_engine
from repro.graph.traversal import DijkstraIterator
from repro.index.aggregate import AggregateIndex
from repro.plan.planner import CALIBRATION_ALPHAS, DEFAULT_CANDIDATES, AdaptivePlanner
from repro.shard import ShardedGeoSocialEngine

N_SHARDS = (1, 4)


def build(dataset, n_shards):
    # a private location table: the suites below move users
    locations = dataset.locations.copy()
    if n_shards == 1:
        return GeoSocialEngine(dataset.graph, locations)
    return ShardedGeoSocialEngine(dataset.graph, locations, n_shards=n_shards, max_workers=1)


def single_engines(engine):
    """The engines that own spatial indexes: the engine itself, or a
    sharded engine's shards."""
    return list(getattr(engine, "_engines", {0: engine}).values())


class KernelTally:
    """Counts ``sssp_column`` calls on one engine's kernels and the
    ``DijkstraIterator`` constructions made *outside* them."""

    def __init__(self, monkeypatch, engine):
        self.columns = 0
        self.stray_iterators = 0
        self._depth = 0
        kernel = engine.kernels.sssp_column
        init = DijkstraIterator.__init__

        def counted_kernel(*args, **kwargs):
            self.columns += 1
            self._depth += 1
            try:
                return kernel(*args, **kwargs)
            finally:
                self._depth -= 1

        def counted_init(iterator, *args, **kwargs):
            self.stray_iterators += self._depth == 0
            init(iterator, *args, **kwargs)

        monkeypatch.setattr(engine.kernels, "sssp_column", counted_kernel)
        monkeypatch.setattr(DijkstraIterator, "__init__", counted_init)


@pytest.fixture(scope="module")
def dataset():
    return gowalla_like(n=2000)


# -- the plan layer ----------------------------------------------------


@pytest.mark.parametrize("n_shards", N_SHARDS)
def test_calibration_and_auto_run_on_the_kernel_alone(dataset, n_shards, monkeypatch):
    engine = build(dataset, n_shards)
    tally = KernelTally(monkeypatch, engine)
    per_probe = []  # (method, alpha, kernel calls) of every timed probe
    probe = AdaptivePlanner._probe

    def tallied_probe(planner, engine, user, alpha, method, read_lock, timed=True):
        before = tally.columns
        executed = probe(planner, engine, user, alpha, method, read_lock, timed)
        if timed:
            per_probe.append((method, alpha, tally.columns - before))
        return executed

    monkeypatch.setattr(AdaptivePlanner, "_probe", tallied_probe)
    try:
        assert engine.planner.calibrate(engine) == 16
        assert engine.planner.stats.calibration_queries == 16
        assert len(per_probe) == len(CALIBRATION_ALPHAS) * len(DEFAULT_CANDIDATES) * 2
        # one or two columns per probe: the searchers' one-off lazy
        # builds (``bounded``'s three-column profile) are not timed
        assert all(1 <= columns <= 2 for _, _, columns in per_probe), per_probe
        first, second = (
            columns
            for method, alpha, columns in per_probe
            if method == "bounded" and alpha == CALIBRATION_ALPHAS[0]
        )
        assert max(first, second) <= 3 * min(first, second)

        rng = random.Random(3)
        users = rng.sample(engine.located_users(), 40)
        for user in users:
            result = engine.query(user, k=10, alpha=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert result.method in DEFAULT_CANDIDATES
        assert tally.stray_iterators == 0
        for shard in single_engines(engine):
            assert set(shard._searchers) <= set(DEFAULT_CANDIDATES)
            assert shard._aggregate is None
        if n_shards > 1:
            assert engine.scatter.scatter_queries == 0
            assert engine.scatter.shards_searched == 0
    finally:
        engine.close()


def test_opting_the_incremental_arms_in_is_priced(dataset):
    engine = build(dataset, 1)
    planner = AdaptivePlanner(candidates=DEFAULT_CANDIDATES + ("spa", "tsa"), seed=1)
    assert planner.calibrate(engine) == 32
    assert {"spa", "tsa"} <= set(planner.cost.snapshot()["global"])


# -- the lazily built aggregate index ----------------------------------


def ais_answers(engine, users):
    out = []
    for user in users:
        result = engine.query(user, k=10, alpha=0.3, method="ais")
        out.append((result.users, result.scores))
    return out


def update_script(n, seed, count=50):
    """``(user, x, y)`` steps, ``x is None`` a removal: teleporting
    moves (so cells change) that are first-location inserts for the
    ~46 % of users who start unlocated."""
    rng = random.Random(seed)
    return [
        (rng.randrange(n), None if rng.random() < 0.2 else rng.random(), rng.random())
        for _ in range(count)
    ]


def apply(engine, script):
    for user, x, y in script:
        if x is None:
            engine.forget_location(user)
        else:
            engine.move_user(user, x, y)


@pytest.mark.parametrize("n_shards", N_SHARDS)
def test_aggregate_is_built_by_the_first_ais_query_and_follows_updates(
    dataset, n_shards, tmp_path
):
    lazy, eager = build(dataset, n_shards), build(dataset, n_shards)
    try:
        for shard in single_engines(eager):
            # before anything else happens, by the insertion scan rather
            # than from the grid
            members = None if shard.index_users is None else sorted(shard.index_users)
            shard._aggregate = AggregateIndex.build(
                shard.locations, shard.landmarks, shard.s, users=members
            )
        first, second = (update_script(dataset.graph.n, seed) for seed in (9, 10))
        # query users no step touches, so they keep a location
        touched = {user for user, _, _ in first + second}
        users = [u for u in lazy.located_users() if u not in touched][:6]

        assert all(shard._aggregate is None for shard in single_engines(lazy))
        assert ais_answers(lazy, users) == ais_answers(eager, users)
        assert any(shard._aggregate is not None for shard in single_engines(lazy))

        for engine in (lazy, eager):
            apply(engine, first)
        assert ais_answers(lazy, users) == ais_answers(eager, users)

        # a snapshot neither stores nor rebuilds the index; the restored
        # engine derives it on its first ais query and maintains it
        restored = load_engine(save_engine(lazy, tmp_path / "snap"), mmap=True)
        try:
            assert all(shard._aggregate is None for shard in single_engines(restored))
            assert ais_answers(restored, users) == ais_answers(eager, users)
            for engine in (restored, eager):
                apply(engine, second)
            assert ais_answers(restored, users) == ais_answers(eager, users)
        finally:
            restored.close()
    finally:
        lazy.close()
        eager.close()
