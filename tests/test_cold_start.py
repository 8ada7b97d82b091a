"""Cold start pays only for what serving uses — held by counts, not
wall time.

Three structural facts behind ``setup_s``:

- interior ``auto`` resolves to ``bounded`` by static rules, so an
  engine and a service serving it run no calibration probe and build no
  landmark index; after ``bounded``'s one-time profiles (three columns)
  a miss makes at most two ``sssp_column`` calls, opens no
  :class:`~repro.graph.traversal.DijkstraIterator` outside the kernel
  (whose python leg *is* the iterator loop) and builds no incremental
  searcher;
- the landmark index is built once, by its first reader (``tsa``,
  ``ais``); neither a snapshot save nor a load builds it;
- SPA's grid and the aggregate index are derived state too: the grid is
  built by its first reader (``spa``, ``tsa``, the aggregate index),
  the aggregate index by the first ``ais`` query as a copy of the grid,
  each kept in step by every later location update, and neither built
  by a location update, a save or a snapshot load.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import GeoSocialEngine, QueryService, gowalla_like, load_engine, save_engine
from repro.graph.landmarks import LandmarkIndex
from repro.graph.socialgraph import SocialGraph
from repro.graph.traversal import DijkstraIterator
from repro.index.aggregate import AggregateIndex
from repro.server.protocol import stats_payload


def build(dataset):
    # a private location table: the suites below move users
    return GeoSocialEngine(dataset.graph, dataset.locations.copy())


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


class LandmarkTally:
    """Counts landmark index builds."""

    def __init__(self, monkeypatch):
        self.builds = 0
        init = LandmarkIndex.__init__

        def counted_init(index, *args, **kwargs):
            self.builds += 1
            init(index, *args, **kwargs)

        monkeypatch.setattr(LandmarkIndex, "__init__", counted_init)


@pytest.fixture(scope="module")
def dataset():
    return gowalla_like(n=2000)


# -- the auto path -----------------------------------------------------


def test_calibration_and_auto_run_on_the_kernel_alone(dataset, monkeypatch, tmp_path):
    landmarks = LandmarkTally(monkeypatch)
    engine = build(dataset)
    service = QueryService(engine, max_workers=1)
    tally = KernelTally(monkeypatch, engine)
    executed = []
    query = engine.query

    def counted_query(*args, **kwargs):
        executed.append(args)
        return query(*args, **kwargs)

    monkeypatch.setattr(engine, "query", counted_query)
    try:
        assert engine.planner.calibrate(engine) == 0
        rng = random.Random(3)
        users = rng.sample(engine.located_users(), 40)
        per_miss = []
        for user in users:
            before = tally.columns
            response = service.query(user, k=10, alpha=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert not response.cached and response.result.method == "bounded"
            per_miss.append(tally.columns - before)
        # the first miss also samples bounded's social profile
        assert per_miss[0] <= 2 + 3 and max(per_miss[1:]) <= 2, per_miss
        assert len(executed) == len(users)  # no query but the served ones
        assert tally.stray_iterators == 0
        assert set(engine._searchers) == {"bounded"}
        assert engine._aggregate is None and engine._grid is None
        repr(engine)
        stats_payload(service)
        assert landmarks.builds == 0
        # moves, a save and a load build no index either
        for user in users[:5]:
            service.move_user(user, rng.random(), rng.random())
        engine.forget_location(users[5])
        restored = load_engine(engine.save(tmp_path / "snap"))
        restored.query(users[0], k=10, alpha=0.5)
        for served in (engine, restored):
            assert served._grid is None and served._aggregate is None
            assert served._landmarks is None
        assert landmarks.builds == 0
        service.update_edge(users[0], users[1], 0.5)
        rebuilt = service.rebuild_engine()
        service.query(users[0], k=10, alpha=0.5)
        assert landmarks.builds == 0 and rebuilt._landmarks is None
        assert rebuilt._grid is None
    finally:
        service.close()
        engine.close()


def test_a_served_graph_holds_one_csr(dataset):
    """With scipy, an engine build plus interior ``auto`` queries run on
    the graph's arrays alone: the Python list view is never built and
    scipy's handle aliases the arrays.  Where the scalar expansion runs
    (``REPRO_BACKEND=python``, or no scipy) the view is built once, by
    the engine build, and kept."""
    try:
        import scipy.sparse  # noqa: F401

        has_scipy = True
    except ImportError:
        has_scipy = False
    # a fresh graph over the shared arrays: other tests here build the
    # fixture graph's list view
    graph = SocialGraph.from_csr(
        dataset.graph.n, dataset.graph.indptr, dataset.graph.nbrs, dataset.graph.wts
    )
    engine = GeoSocialEngine(graph, dataset.locations.copy())
    try:
        arrays_only = engine.backend == "numpy" and has_scipy
        built = graph._lists
        assert (built is None) == arrays_only
        rng = random.Random(5)
        for user in rng.sample(engine.located_users(), 40):
            result = engine.query(user, k=10, alpha=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            assert result.method == "bounded"
            assert graph._lists is built
        if arrays_only:
            handle = graph._csr
            for mine, scipys in ((graph.indptr, handle.indptr), (graph.nbrs, handle.indices),
                                 (graph.wts, handle.data)):
                assert np.shares_memory(mine, scipys)
    finally:
        engine.close()


# -- the lazily built landmark index -----------------------------------


@pytest.mark.parametrize("reader", ["tsa", "ais"])
def test_the_first_reader_builds_the_landmarks_once(dataset, reader, monkeypatch):
    landmarks = LandmarkTally(monkeypatch)
    engine = build(dataset)
    users = engine.located_users()
    engine.query(users[0], k=10, alpha=0.3)
    assert landmarks.builds == 0 and engine._landmarks is None
    for user in users[1:3]:
        engine.query(user, k=10, alpha=0.3, method=reader)
        assert landmarks.builds == 1
    assert engine.landmarks.m == 8


def test_a_snapshot_load_builds_no_landmarks(dataset, monkeypatch, tmp_path):
    """Neither the save nor the load builds the index; the restored
    engine's first ``tsa`` query does, to the same matrix."""
    engine = build(dataset)
    try:
        landmarks = LandmarkTally(monkeypatch)
        path = save_engine(engine, tmp_path / "snap")
        restored = load_engine(path, mmap=True)
        try:
            assert landmarks.builds == 0
            assert restored._landmarks is None and restored._grid is None
            user = restored.located_users()[0]
            want = engine.query(user, k=10, alpha=0.3, method="tsa")
            got = restored.query(user, k=10, alpha=0.3, method="tsa")
            assert (got.users, got.scores) == (want.users, want.scores)
            assert landmarks.builds == 2
            assert (restored.landmarks.matrix == engine.landmarks.matrix).all()
        finally:
            restored.close()
    finally:
        engine.close()


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


def test_aggregate_is_built_by_the_first_ais_query_and_follows_updates(dataset, tmp_path):
    lazy, eager = build(dataset), build(dataset)
    try:
        # before anything else happens, by the insertion scan rather than
        # from the grid
        eager._aggregate = AggregateIndex.build(eager.locations, eager.landmarks, eager.s)
        first, second = (update_script(dataset.graph.n, seed) for seed in (9, 10))
        # query users no step touches, so they keep a location
        touched = {user for user, _, _ in first + second}
        users = [u for u in lazy.located_users() if u not in touched][:6]

        assert lazy._aggregate is None
        assert ais_answers(lazy, users) == ais_answers(eager, users)
        assert lazy._aggregate is not None

        for engine in (lazy, eager):
            apply(engine, first)
        assert ais_answers(lazy, users) == ais_answers(eager, users)

        # a snapshot neither stores nor rebuilds the index; the restored
        # engine derives it on its first ais query and maintains it
        restored = load_engine(save_engine(lazy, tmp_path / "snap"), mmap=True)
        try:
            assert restored._aggregate is None
            assert ais_answers(restored, users) == ais_answers(eager, users)
            for engine in (restored, eager):
                apply(engine, second)
            assert ais_answers(restored, users) == ais_answers(eager, users)
        finally:
            restored.close()
    finally:
        lazy.close()
        eager.close()
